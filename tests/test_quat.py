import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrot import (
    ComplexPair,
    NotPure,
    NotUnit,
    Quaternion,
    conjugate,
    embed_pure,
    from_complex_pair,
    multiply,
    norm,
    pure_part,
    to_complex_pair,
    transpose,
    transpose_map,
)
from hopfrot import quat
from hopfrot.quat import I, J, K, ONE, ComplexColumn, require_unit, vector_norm

from oracles import pure_product
from values import assert_immutable_value

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = st.builds(Quaternion, finite_floats, finite_floats, finite_floats, finite_floats)


def close(a: Quaternion, b: Quaternion, tol=1e-12):
    return max(abs(a.x0 - b.x0), abs(a.x1 - b.x1), abs(a.x2 - b.x2), abs(a.x3 - b.x3)) <= tol


def test_basis_products():
    assert multiply(I, J) == K
    assert multiply(J, K) == I
    assert multiply(K, I) == J
    assert multiply(J, I) == -K
    assert multiply(I, I) == -ONE


def test_multiply_identity():
    q = Quaternion(0.3, -1.2, 4.0, 0.5)
    assert multiply(q, ONE) == q
    assert multiply(ONE, q) == q


def test_multiply_hand_expansion():
    # (1+i)(1+j) = 1 + i + j + k
    assert multiply(Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0)) == Quaternion(1, 1, 1, 1)


def test_conjugate():
    assert conjugate(ONE) == ONE
    assert conjugate(I) == -I
    assert conjugate(Quaternion(1, 2, 3, 4)) == Quaternion(1, -2, -3, -4)


def test_norm():
    assert norm(Quaternion(0, 0, 0, 0)) == 0.0
    assert norm(K) == 1.0
    assert norm(Quaternion(1, 1, 1, 1)) == 2.0


def test_norm_is_exactly_rounded():
    # a left-to-right sum of squares puts the reversed order 1.000000001 off 1
    q = [-0.059267360581204735, -0.8237093096491298, -0.4456145868156894, -0.3455690888725059]
    assert require_unit(Quaternion(*q)) == Quaternion(*q)
    assert require_unit(Quaternion(*q[::-1])) == Quaternion(*q[::-1])
    assert norm(Quaternion(*q)) == norm(Quaternion(*q[::-1])) == 1.0000000009999999


def test_huge_quaternion_is_not_unit_by_its_true_norm():
    # its square overflows the float range, its norm does not
    with pytest.raises(NotUnit, match=r"quaternion norm 1e\+200 is not 1"):
        require_unit(Quaternion(1e200, 0.0, 0.0, 0.0))


def test_complex_pair_identification():
    assert to_complex_pair(ONE) == ComplexPair(1 + 0j, 0j)
    assert to_complex_pair(J) == ComplexPair(0j, 1 + 0j)
    assert to_complex_pair(Quaternion(1, 2, 3, 4)) == ComplexPair(1 + 2j, 3 + 4j)
    assert from_complex_pair(ComplexPair(1 + 0j, 0j)) == ONE
    assert from_complex_pair(ComplexPair(1j, 1j)) == Quaternion(0, 1, 0, 1)


@given(quats)
def test_complex_pair_round_trip(q):
    assert from_complex_pair(to_complex_pair(q)) == q


def test_transpose():
    assert transpose(Quaternion(1, 2, 3, 4)) == Quaternion(1, 2, -3, 4)
    assert transpose(ONE) == ONE
    # antihomomorphism on the basis: (ij)^T = j^T i^T
    assert transpose(multiply(I, J)) == multiply(transpose(J), transpose(I))


def test_transpose_map():
    assert transpose_map(ComplexPair(1 + 0j, 0j)) == ComplexPair(1 + 0j, 0j)
    assert transpose_map(ComplexPair(0j, 1 + 0j)) == ComplexPair(0j, -1 + 0j)
    assert transpose_map(ComplexPair(1j, 1j)) == ComplexPair(1j, 1j)


@given(quats)
def test_transpose_matches_complex_form(q):
    v = to_complex_pair(q)
    assert transpose_map(v) == to_complex_pair(transpose(q))


def test_embed_pure():
    assert embed_pure((1, 0, 0)) == I
    assert embed_pure((0, 0, 0)) == Quaternion(0, 0, 0, 0)
    assert embed_pure((0, 1, 1)) == Quaternion(0, 0, 1, 1)


def test_pure_part():
    assert pure_part(Quaternion(0, 1, 2, 3)) == (1, 2, 3)
    with pytest.raises(NotPure):
        pure_part(Quaternion(0.5, 1, 2, 3))


@given(quats, quats, quats)
def test_associativity(a, b, c):
    scale = max(1.0, norm(a) * norm(b) * norm(c))
    assert close(multiply(multiply(a, b), c), multiply(a, multiply(b, c)), 1e-9 * scale)


@given(quats, quats)
def test_norm_multiplicative(a, b):
    assert norm(multiply(a, b)) == pytest.approx(norm(a) * norm(b), rel=1e-12, abs=1e-12)


@given(quats)
def test_conjugate_gives_norm_squared(q):
    n2 = norm(q) ** 2
    assert close(multiply(q, conjugate(q)), Quaternion(n2, 0, 0, 0), 1e-12 * max(1.0, n2))


@given(quats, quats)
def test_transpose_antihomomorphism(a, b):
    scale = max(1.0, norm(a) * norm(b))
    assert close(transpose(multiply(a, b)), multiply(transpose(b), transpose(a)), 1e-12 * scale)


@given(quats)
def test_transpose_involution(q):
    assert transpose(transpose(q)) == q


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_pure_product_matches_dot_cross(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    v = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    prod = multiply(embed_pure(u), embed_pure(v))
    scalar, vector = pure_product(u, v)
    assert prod.x0 == pytest.approx(scalar, abs=1e-12)
    np.testing.assert_allclose([prod.x1, prod.x2, prod.x3], vector, atol=1e-12)


# -- vector_norm on columns against the per-row norm -------------------------

signs = st.sampled_from([1.0, -1.0])


def _unit_row(v):
    n = vector_norm(v)
    return [x / n for x in v] if n else v


def _half_spacing_row(w, x, k):
    """x and components whose squares sum to half the spacing of the floats
    at x * x, so that the exact sum is a tie, then 2^k if k is not None,
    which moves it just past the tie; cut or padded with zeros to width w."""
    s = x * x
    e = round(math.log2((math.nextafter(s, math.inf) - s) / 2.0))
    tail = [2.0 ** (e // 2)] if e % 2 == 0 else [2.0 ** ((e - 1) // 2)] * 2
    row = [x, *tail, *([] if k is None else [2.0**k])][:w]
    return row + [0.0] * (w - len(row))


def _norm_rows(w):
    """Rows of width w: each family a case the column form must prove or
    hand to the per-row norm."""
    floats = st.floats(-1.0, 1.0, allow_nan=False)
    vec = st.lists(floats, min_size=w, max_size=w)
    unit = vec.map(_unit_row)
    return st.one_of(
        # power-of-two components, whose squares can sum to a power of two
        st.lists(st.builds(lambda s, k: s * 2.0**k, signs, st.integers(-8, 8)), min_size=w, max_size=w),
        # small dyadic integers, the exact ties of short sums
        st.lists(st.integers(-64, 64).map(float), min_size=w, max_size=w),
        st.lists(st.integers(2**25, 2**27).map(float), min_size=w, max_size=w),
        st.builds(_half_spacing_row, st.just(w), st.integers(1, 2**26).map(float), st.none() | st.integers(-90, -20)),
        # signed zeros and subnormal components
        st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-300, 2.0**-450, 1.0]), min_size=w, max_size=w),
        st.lists(st.floats(-(2.0**-1020), 2.0**-1020), min_size=w, max_size=w),
        # components spread over 2^+-40, some zero
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]), st.builds(lambda x, k: x * 2.0**k, floats, st.integers(-40, 40))),
            min_size=w, max_size=w,
        ),
        # unit vectors off unit norm by up to 1e-6
        st.builds(lambda u, d: [x * (1.0 + d) for x in u], unit, st.floats(-1e-6, 1e-6)),
        # differences of nearly equal unit vectors
        st.builds(
            lambda u, d: [a - b for a, b in zip(u, _unit_row([x + y for x, y in zip(u, d)]))],
            unit, st.lists(st.floats(-1e-8, 1e-8), min_size=w, max_size=w),
        ),
    )


def _column_norm(rows):
    """vector_norm on the columns of rows; no warning may escape it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return vector_norm(tuple(np.array(rows, dtype=np.float64).T)).tolist()


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 4).flatmap(lambda w: st.lists(_norm_rows(w), min_size=4, max_size=40)))
def test_column_norm_has_each_rows_bits(rows):
    for row, n in zip(rows, _column_norm(rows)):
        assert repr(n) == repr(vector_norm(row)), row


def test_column_norm_hands_unproved_rows_to_the_row_norm(monkeypatch):
    proved = [[0.6, 0.8, 0.0], [3.0, -4.0, 12.0], [1.0, 2.0**-27, 2.0**-27]]  # the last an exact tie
    forced = [
        [2.0**500 * 1.5, 1.0, 0.0],  # a component above 2^500
        [1e200, -1e200, 3.0],
        [1.0, 2.0**-451, 0.0],  # a nonzero component below 2^-450
        [5e-324, -0.0, 0.0],
        [math.inf, 1.0, 0.0],
        [0.0, -math.inf, math.inf],
        [math.nan, 1.0, 0.0],
        [1.0, math.inf, math.nan],
        [1.5, 2.0**-26, 2.0**-60],  # just past a tie: the margin cannot prove it
    ]
    row_norm, handed = quat._norm, []
    monkeypatch.setattr(quat, "_norm", lambda v: handed.append(list(v)) or row_norm(v))
    got = _column_norm(proved + forced)
    assert repr(handed) == repr(forced)
    for row, n in zip(proved + forced, got):
        assert repr(n) == repr(row_norm(row)), row


# -- ComplexColumn against CPython's complex, row by row ---------------------

SPECIAL_PARTS = [0.0, -0.0, 1.0, -2.5, 1e300, -1e300, 1e154, 1e-300, -5e-324]


def _complex_rows(rng, n):
    """n complex numbers: every pair of SPECIAL_PARTS, then random ones of
    wide magnitude."""
    rows = [complex(a, b) for a in SPECIAL_PARTS for b in SPECIAL_PARTS]
    for a, b, e in zip(rng.standard_normal(n), rng.standard_normal(n), rng.integers(-300, 300, n)):
        rows.append(complex(a * 10.0**e, b))
    return rows


def _bits(x):
    """The bit patterns of x, with one pattern for every NaN."""
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def _same(column, expected):
    """Row r of column has the bits of expected[r] (a complex or a float), or
    NaN parts where expected[r] is None (CPython raised)."""
    got = np.array([column.real, column.imag] if isinstance(column, ComplexColumn) else [column]).T
    for r, z in enumerate(expected):
        if z is None:
            assert np.isnan(got[r]).all(), r
        else:
            want = np.array([z.real, z.imag] if isinstance(z, complex) else [z])
            assert np.array_equal(_bits(got[r]), _bits(want)), (r, z, got[r])


def _quotient(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        return None


def test_complex_column_rounds_as_cpython():
    rng = np.random.default_rng(31)
    a = _complex_rows(rng, 300)
    b = a[::-1]
    col_a, col_b = (ComplexColumn([z.real for z in x], [z.imag for z in x]) for x in (a, b))
    with np.errstate(all="ignore"):  # huge rows overflow, zero divisors give NaN
        # a column, a complex number and a real number on the right
        for other, right in ((b, col_b), ([1.5 - 0.0j] * len(a), 1.5 - 0.0j), ([-0.0] * len(a), -0.0)):
            _same(col_a + right, [x + y for x, y in zip(a, other)])
            _same(col_a - right, [x - y for x, y in zip(a, other)])
            _same(col_a * right, [x * y for x, y in zip(a, other)])
            _same(right * col_a, [y * x for x, y in zip(a, other)])
            _same(col_a / right, [_quotient(x, y) for x, y in zip(a, other)])
        _same(-col_a, [-x for x in a])
        _same(col_a.conjugate(), [x.conjugate() for x in a])
        _same(abs(col_a), [abs(x) for x in a])


# -- abs and ComplexPair.norm on whole columns against CPython, row by row ----


def _either_side(x):
    """x and the floats just below and above it, of either sign."""
    return st.sampled_from([x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]).flatmap(
        lambda y: st.sampled_from([y, -y])
    )


def _mantissa_rows(seed):
    """300 rows of parts with random full mantissas in [2^-2, 2^3), where
    math.hypot rounds apart from the C library's hypot in about 1 row of
    150."""
    rng = np.random.default_rng(seed)
    m = 1.0 + rng.integers(0, 2**52, (300, 4)) * 2.0**-52
    return (rng.choice([-1.0, 1.0], (300, 4)) * np.ldexp(m, rng.integers(-2, 3, (300, 4)))).tolist()


# each family a case of the columns' hypot and of vector_norm's ranges
_magnitude_parts = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-(2.0**-1022), 2.0**-1022),  # subnormal parts
    st.floats(-(2.0**-500), 2.0**-500),  # parts whose squares are subnormal
    _either_side(2.0**512),  # from 2^512 on, squares overflow and the norm scales
    _either_side(2.0**511.5),  # two parts whose squares sum beyond the float range
    st.floats(1e308, 1.7976931348623157e308).flatmap(lambda y: st.sampled_from([y, -y])),  # hypot overflows
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


def _scalar(f, *args):
    """f(*args) with errno clear.  CPython 3.11's abs(complex) returns NaN
    for a NaN part, with no infinite part, without setting errno, so right
    after an overflow it raises OverflowError on such a number; math
    functions set errno to 0 first."""
    math.fabs(0.0)
    return f(*args)


def _magnitude(z):
    try:
        return _scalar(abs, z)
    except OverflowError:  # the column gives inf
        return math.inf


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(*[_magnitude_parts] * 4), min_size=1, max_size=30)
    | st.integers(0, 2**32 - 1).map(_mantissa_rows)
)
def test_column_magnitudes_have_each_rows_bits(rows):
    assert ComplexPair(2.0**600 + 0j, 0j).norm() == 2.0**600  # whose square overflows
    zr, zi, wr, wi = np.array(rows, dtype=np.float64).T
    pair = ComplexPair(ComplexColumn(zr, zi), ComplexColumn(wr, wi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_z, got_w, got_norm = abs(pair.z).tolist(), abs(pair.w).tolist(), pair.norm().tolist()
    for i, (a, b, c, d) in enumerate(rows):
        z, w = complex(a, b), complex(c, d)
        assert repr(got_z[i]) == repr(_magnitude(z)), (a, b)
        assert repr(got_w[i]) == repr(_magnitude(w)), (c, d)
        assert repr(got_norm[i]) == repr(_scalar(ComplexPair(z, w).norm)), rows[i]
        assert repr(_scalar(ComplexPair(z, w).norm)) == repr(vector_norm((a, b, c, d))), rows[i]


# -- Quaternion and ComplexPair are immutable values --------------------------


@pytest.mark.parametrize(
    "value, changes",
    [
        (Quaternion(0.5, -0.5, 0.25, -0.0), {"x2": 2.0}),
        (ComplexPair(1 + 2j, -0.5j), {"w": 3j}),
    ],
)
def test_values_are_immutable_and_compared_by_value(value, changes):
    assert_immutable_value(value, **changes)


def test_constants_keep_their_values():
    assert [repr(q) for q in (ONE, I, J, K)] == [
        "Quaternion(x0=1.0, x1=0.0, x2=0.0, x3=0.0)",
        "Quaternion(x0=0.0, x1=1.0, x2=0.0, x3=0.0)",
        "Quaternion(x0=0.0, x1=0.0, x2=1.0, x3=0.0)",
        "Quaternion(x0=0.0, x1=0.0, x2=0.0, x3=1.0)",
    ]
    assert I * J == K and -ONE == Quaternion(-1.0, -0.0, -0.0, -0.0)


def test_column_values_still_construct():
    rows = list(np.arange(12.0).reshape(4, 3))
    q = Quaternion(*rows)
    assert all(getattr(q, f) is r for f, r in zip(("x0", "x1", "x2", "x3"), rows))
    v = to_complex_pair(q)
    assert type(v.z) is ComplexColumn and v.w.imag.tolist() == [9.0, 10.0, 11.0]
    assert multiply(q, ONE).x3.tolist() == [9.0, 10.0, 11.0]
