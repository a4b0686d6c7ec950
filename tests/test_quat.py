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
from hopfrot.quat import I, J, K, ONE, ComplexColumn, require_unit

from oracles import pure_product

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
