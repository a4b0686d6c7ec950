import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrot import (
    ComplexPair,
    DomainError,
    HopfVariant,
    NotUnit,
    Quaternion,
    ZeroVector,
    bloch,
    conjugate,
    conjugate_action,
    fiber_sample,
    from_complex_pair,
    hopf_classic,
    lift_bloch,
    lift_classic,
    lift_quat_hopf,
    multiply,
    quat_hopf,
    reverse,
    stereo1_inv,
    to_complex_pair,
    transpose_map,
)
from hopfrot.hopf import LIFTS, MAPS, fiber_points, sandwich
from hopfrot.quat import EPS_NORM, J, K, ONE, ComplexColumn, vector_norm
from hopfrot.sphere import finite

RNG = np.random.default_rng(11)
S = 1 / math.sqrt(2)


def random_unit_quat(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def random_sphere(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestConjugateAction:
    def test_identity_acts_trivially(self):
        p = (0.3, -2.0, 1.4)
        np.testing.assert_allclose(conjugate_action(ONE, p), p)

    def test_k_flips_i(self):
        np.testing.assert_allclose(conjugate_action(K, (1, 0, 0)), [-1, 0, 0], atol=1e-15)

    def test_half_turn_about_j_axis(self):
        g = Quaternion(S, 0, S, 0)
        np.testing.assert_allclose(conjugate_action(g, (1, 0, 0)), [0, 0, -1], atol=1e-15)

    def test_preserves_length(self):
        for _ in range(200):
            g = random_unit_quat(RNG)
            p = 5.0 * RNG.standard_normal(3)
            moved = conjugate_action(g, p)
            assert np.linalg.norm(moved) == pytest.approx(np.linalg.norm(p), rel=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            conjugate_action(Quaternion(2, 0, 0, 0), (1, 0, 0))


class TestQuatHopf:
    def test_basepoint(self):
        np.testing.assert_allclose(quat_hopf(ONE), [1, 0, 0])

    def test_isotropy_circle(self):
        for theta in (0.0, 0.7, 2.0, 5.5):
            g = Quaternion(math.cos(theta), math.sin(theta), 0, 0)
            np.testing.assert_allclose(quat_hopf(g), [1, 0, 0], atol=1e-12)

    def test_half_turn_about_j(self):
        np.testing.assert_allclose(quat_hopf(Quaternion(S, 0, S, 0)), [0, 0, -1], atol=1e-15)

    def test_lands_on_sphere(self):
        for _ in range(200):
            p = quat_hopf(random_unit_quat(RNG))
            assert abs(np.dot(p, p) - 1.0) <= 1e-9


class TestBloch:
    def test_north_pole(self):
        np.testing.assert_allclose(bloch(ComplexPair(1, 0)), [0, 0, 1])

    def test_equator(self):
        np.testing.assert_allclose(bloch(ComplexPair(S, S)), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(bloch(ComplexPair(S, S * 1j)), [0, 1, 0], atol=1e-15)

    def test_scale_invariance(self):
        for _ in range(200):
            v = ComplexPair(complex(*RNG.standard_normal(2)), complex(*RNG.standard_normal(2)))
            if abs(v.w) < 1e-3:
                continue
            lam = complex(*RNG.standard_normal(2))
            if abs(lam) < 1e-3:
                continue
            np.testing.assert_allclose(bloch(v.scale(lam)), bloch(v), atol=1e-9)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            bloch(ComplexPair(0, 0))
        with pytest.raises(ZeroVector):
            bloch(ComplexPair(complex(0.0, -0.0), complex(-0.0, 0.0)))

    def test_tiny_states_are_not_zero(self):
        # scale invariance holds down to the smallest subnormal
        tiny = bloch(ComplexPair(1e-200 + 0j, 1e-200 + 0j))
        assert tiny.tobytes() == bloch(ComplexPair(1 + 0j, 1 + 0j)).tobytes()
        assert bloch(ComplexPair(5e-324 + 0j, 0j)).tolist() == [0.0, 0.0, 1.0]
        assert bloch(ComplexPair(0j, 5e-324 + 0j)).tolist() == [0.0, 0.0, -1.0]


class TestHopfClassic:
    def test_poles(self):
        np.testing.assert_allclose(hopf_classic(ComplexPair(1, 0)), [0, 0, 1])
        np.testing.assert_allclose(hopf_classic(ComplexPair(0, 1)), [0, 0, -1])

    def test_equator(self):
        np.testing.assert_allclose(hopf_classic(ComplexPair(S, S)), [1, 0, 0], atol=1e-15)

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            hopf_classic(ComplexPair(1, 1))


def test_reverse():
    np.testing.assert_allclose(reverse((1, 0, 0)), [0, 0, 1])
    np.testing.assert_allclose(reverse((0, 1, 0)), [0, 1, 0])
    p = RNG.standard_normal(3)
    np.testing.assert_allclose(reverse(reverse(p)), p)


class TestLifts:
    def test_lift_bloch_values(self):
        a = lift_bloch((0, 0, 1))
        assert a.z == 1 and a.w == 0
        b = lift_bloch((0, 0, -1))
        assert abs(b.z) <= 1e-15 and b.w == pytest.approx(1)
        c = lift_bloch((1, 0, 0))
        assert c.z == pytest.approx(S) and c.w == pytest.approx(S)

    def test_lift_quat_hopf_values(self):
        # the bases, and the points with 0 < |(y, z)| <= EPS_NORM, are pinned
        # to 1 and j, bit for bit (repr shows every zero's sign)
        for p, want in [
            ((1, 0, 0), ONE), ((-1, 0, 0), J), ((1.0, -0.0, 0.0), ONE), ((-1.0, 0.0, -0.0), J),
            ((1.0, 1e-12, 0.0), ONE), ((-1.0, 0.0, 3e-10), J), ((1.0, -1e-9, 0.0), ONE),
            ((-1.0, 6e-10, -8e-10), J), ((0.9999999999999999, 0.0, 1e-9), ONE),
        ]:
            assert repr(lift_quat_hopf(p)) == repr(want), p

    @pytest.mark.parametrize(
        "lift,mapper",
        [
            (lift_bloch, bloch),
            (lift_classic, hopf_classic),
        ],
    )
    def test_complex_sections(self, lift, mapper):
        for _ in range(300):
            p = random_sphere(RNG)
            v = lift(p)
            assert abs(v.norm() - 1.0) <= 1e-12
            np.testing.assert_allclose(mapper(v), p, atol=1e-9)

    def test_shared_routes_keep_exact_bits(self):
        # repr shows the sign of every zero; a lift built by conjugating
        # the Bloch one would turn these +0.0 imaginary parts into -0.0
        assert repr(lift_classic((0, 0, 1))) == "ComplexPair(z=(1+0j), w=0j)"
        assert repr(lift_classic((0, 0, -1))) == "ComplexPair(z=(6.123233995736766e-17+0j), w=(1+0j))"
        assert repr(lift_classic((1, 0, 0))) == (
            "ComplexPair(z=(0.7071067811865476+0j), w=(0.7071067811865475+0j))"
        )
        assert repr(lift_classic((0.6, 0, 0.8))) == (
            "ComplexPair(z=(0.9486832980505138+0j), w=(0.31622776601683794+0j))"
        )
        assert repr(stereo1_inv(finite(2 - 3j)).tolist()) == (
            "[0.8571428571428571, 0.2857142857142857, -0.42857142857142855]"
        )
        assert repr(bloch(ComplexPair(2 + 1j, 0j)).tolist()) == "[0.0, 0.0, 1.0]"
        assert repr(bloch(ComplexPair(-1j, complex(0.0, -0.0))).tolist()) == "[0.0, 0.0, 1.0]"

    def test_quat_section(self):
        for _ in range(300):
            p = random_sphere(RNG)
            h = lift_quat_hopf(p)
            np.testing.assert_allclose(quat_hopf(h), p, atol=1e-9)


SECTIONS = {
    HopfVariant.CLASSIC: (lift_classic, hopf_classic),
    HopfVariant.QUAT: (lift_quat_hopf, quat_hopf),
    HopfVariant.BLOCH: (lift_bloch, bloch),
}


def section_rows(n=2000):
    """n seeded generic unit points, then n within 1e-8 of each of
    (0, 0, 1), (0, 0, -1), (1, 0, 0) and (-1, 0, 0), as a float64 array;
    about a tenth of those near (+-1, 0, 0) are pinned bases of the
    quaternion lift."""
    rng = np.random.default_rng(41)
    g = rng.standard_normal((n, 3))
    rows = [g / np.linalg.norm(g, axis=1, keepdims=True)]
    for index, sign in [(2, 1.0), (2, -1.0), (0, 1.0), (0, -1.0)]:
        t, a = 1e-8 * rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
        near = np.column_stack([t * np.cos(a), t * np.sin(a)])  # off the axis by t
        rows.append(np.insert(near, index, sign, axis=1))
    return np.concatenate(rows)


@pytest.mark.parametrize("form", ["scalar", "columns"])
@pytest.mark.parametrize("variant", list(HopfVariant), ids=[v.value for v in HopfVariant])
def test_lifts_are_sections(variant, form):
    # map(lift(p)) = p to the last bits, but where the quaternion lift pins
    # p to the preimage of (+-1, 0, 0), which is within EPS_NORM of p
    rows = section_rows()
    lift, mapper = SECTIONS[variant]
    if form == "scalar":
        mapped = np.array([mapper(lift(p)) for p in rows.tolist()])
    else:
        lifted = np.broadcast_arrays(*LIFTS[variant].columns(*rows.T))
        mapped = np.column_stack(MAPS[variant].columns(*lifted))
    error = np.linalg.norm(mapped - rows, axis=1)
    pinned = (variant is HopfVariant.QUAT) & (vector_norm((rows[:, 1], rows[:, 2])) <= EPS_NORM)
    assert pinned.any() == (variant is HopfVariant.QUAT)
    assert (error <= np.where(pinned, EPS_NORM, 0.0) + 1e-15).all(), rows[error.argmax()].tolist()


class TestFiberSample:
    def test_quat_fiber_round_trip(self):
        lifts = fiber_sample(HopfVariant.QUAT, (1, 0, 0), 4)
        assert len(lifts) == 4
        for v in lifts:
            np.testing.assert_allclose(quat_hopf(from_complex_pair(v)), [1, 0, 0], atol=1e-9)

    def test_bloch_fiber_antipodes(self):
        lifts = fiber_sample(HopfVariant.BLOCH, (0, 0, 1), 2)
        assert lifts[0].z == pytest.approx(1) and lifts[0].w == 0
        assert lifts[1].z == pytest.approx(-1) and abs(lifts[1].w) <= 1e-15

    def test_count_one_is_canonical_lift(self):
        p = random_sphere(RNG)
        assert fiber_sample(HopfVariant.BLOCH, p, 1) == [lift_bloch(p)]
        assert fiber_sample(HopfVariant.CLASSIC, p, 1) == [lift_classic(p)]
        assert fiber_sample(HopfVariant.QUAT, p, 1) == [to_complex_pair(lift_quat_hopf(p))]

    def test_bad_count(self):
        with pytest.raises(ValueError):
            fiber_sample(HopfVariant.QUAT, (1, 0, 0), 0)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, False, "3", None])
    def test_count_must_be_an_integer(self, count):
        # 2.5 gave 3 points at phases 2 pi m / 2.5, and True acted as 1
        with pytest.raises(ValueError, match="count must be an integer"):
            fiber_sample(HopfVariant.QUAT, (0.6, 0.8, 0.0), count)

    def test_count_takes_what_operator_index_takes(self):
        p = (0.6, 0.8, 0.0)
        for variant in HopfVariant:
            assert fiber_sample(variant, p, np.int64(3)) == fiber_sample(variant, p, 3)

    def test_off_sphere_base_rejected(self):
        with pytest.raises(NotUnit):
            fiber_sample(HopfVariant.QUAT, (1, 1, 0), 3)

    @pytest.mark.parametrize("variant", list(HopfVariant))
    def test_all_variants_round_trip(self, variant):
        for _ in range(50):
            p = random_sphere(RNG)
            for v in fiber_sample(variant, p, 5):
                np.testing.assert_allclose(MAPS[variant].scalar(v), p, atol=1e-9)


class TestDiagrams:
    def test_compare_bloch_quat(self):
        # Bloch . transpose = reverse . QuatHopf on S^3
        for _ in range(300):
            q = random_unit_quat(RNG)
            s = to_complex_pair(q)
            if abs(s.w) < 1e-3:
                continue
            left = bloch(transpose_map(s))
            right = reverse(quat_hopf(q))
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_quat_fiber_phase_constancy(self):
        for _ in range(200):
            g = random_unit_quat(RNG)
            t = RNG.uniform(0, 2 * math.pi)
            phase = Quaternion(math.cos(t), math.sin(t), 0, 0)
            np.testing.assert_allclose(
                quat_hopf(multiply(g, phase)), quat_hopf(g), atol=1e-9
            )


SANDWICH_PARTS = st.one_of(
    st.floats(), st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
)


def sandwich_by_products(g, p):
    q = multiply(multiply(g, p), conjugate(g))
    return q.x1, q.x2, q.x3


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[SANDWICH_PARTS] * 8), min_size=1, max_size=12))
def test_sandwich_has_the_bits_of_two_products(rows):
    # on numbers and, row by row, on columns: the vector part of
    # multiply(multiply(g, p), conjugate(g)), signed zeros, infinities and
    # NaN included; the CLI rotates columns by one scalar g
    want = [sandwich_by_products(Quaternion(*r[:4]), Quaternion(*r[4:])) for r in rows]
    assert repr([sandwich(Quaternion(*r[:4]), Quaternion(*r[4:])) for r in rows]) == repr(want)
    cols = np.array(rows, dtype=np.float64).T
    with np.errstate(all="ignore"):
        got = np.column_stack(sandwich(Quaternion(*cols[:4]), Quaternion(*cols[4:]))).tolist()
        by_one_g = np.column_stack(sandwich(Quaternion(*rows[0][:4]), Quaternion(*cols[4:]))).tolist()
    assert repr(got) == repr([list(w) for w in want])
    g = Quaternion(*rows[0][:4])
    assert repr(by_one_g) == repr([list(sandwich_by_products(g, Quaternion(*r[4:]))) for r in rows])


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_fiber_points_rejects_a_non_finite_angle_on_numbers(angle):
    # a NaN angle gave a NaN quaternion, and inf libm's bare math domain error
    with pytest.raises(DomainError) as caught:
        fiber_points((0.6, 0.8, 0.0), angle, 1.0)
    assert type(caught.value) is DomainError
    assert str(caught.value) == f"fiber angle {angle!r} is not finite"


def test_fiber_points_hand_back_a_non_finite_angle_by_nan():
    angles = [0.3, math.inf, -math.inf, math.nan, -7.0]
    p = np.array([[0.6, 0.8, 0.0]] * len(angles)).T
    hq, hb = fiber_points(p, np.array(angles), ComplexColumn(np.ones(5), np.zeros(5)))
    rows = np.column_stack([hq.x0, hq.x1, hq.x2, hq.x3]).tolist()
    for t, row in zip(angles, rows):
        if math.isfinite(t):
            hq_t, _ = fiber_points([0.6, 0.8, 0.0], t, 1.0 + 0j)
            assert repr(row) == repr([hq_t.x0, hq_t.x1, hq_t.x2, hq_t.x3])
        else:
            assert all(map(math.isnan, row))
    assert hb.z.real.tolist() == [hb.z.real[0]] * 5  # the Bloch preimage takes no angle


def map_rows():
    """Finite rows (Re z, Im z, Re w, Im w): unit, just off unit, far off,
    w = 0, huge, tiny, zero and signed-zero rows."""
    rng = np.random.default_rng(31)
    g = rng.standard_normal((200, 4))
    unit = g / np.sqrt((g * g).sum(axis=1, keepdims=True))
    special = [
        [0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, -0.0], [1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -0.0], [-0.0, -0.0, -0.0, 1.0], [3.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, -0.0],
        [1e300, 1e300, 1e-300, 0.0], [1e-300, -1e-300, 1e-300, 1e-300], [1e200, 0.0, 0.0, 0.0],
        [1.7e308, -1.7e308, 1.7e308, 1.7e308], [5e-324, 0.0, 0.0, 5e-324], [0.0, 0.0, 1e-200, 0.0],
        [1.0, 0.0, 1e-200, 0.0], [-0.0, 1.0, 0.0, -1e-200],
    ]
    near = unit * (1.0 + rng.uniform(-3e-9, 3e-9, (200, 1)))
    return np.concatenate([
        unit, near, g, g * 1e-200, g * 1e200, unit * [1, 1, 0, 0], unit * [-0.0, 1, -0.0, 1], special
    ])


def lift_rows():
    """Points renormalized by vector_norm, with poles, the pinned bases of
    the quaternion lift, points near them and signed zeros."""
    rng = np.random.default_rng(37)
    g = rng.standard_normal((300, 3))
    special = [
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, -1.0],
        [1.0, 1e-10, -1e-10], [-1.0, -0.0, 1e-12], [0.0, 1.0, -0.0], [-0.0, -1.0, 0.0],
        [1.0, 1e-300, 0.0], [1e-17, 0.0, 1.0], [-1e-17, -0.0, -1.0],
    ]
    rows = np.concatenate([g, g * [1, 0, 1], g * [-0.0, 1, 1], g * [1, 1e-10, 1e-10], special])
    return np.array([[c / vector_norm(r) for c in r] for r in rows.tolist()])


def pair(row):
    return ComplexPair(complex(row[0], row[1]), complex(row[2], row[3]))


def scalar_of_row(kind, variant):
    """MAPS[variant] or LIFTS[variant].scalar on one row, as a list."""
    if kind == "map":
        return lambda r: MAPS[variant].scalar(pair(r)).tolist()
    if variant is HopfVariant.QUAT:
        return lambda p: list(astuple(LIFTS[variant].scalar(p)))
    return lambda p: list(astuple(from_complex_pair(LIFTS[variant].scalar(p))))


@pytest.mark.parametrize("variant", list(HopfVariant), ids=[v.value for v in HopfVariant])
@pytest.mark.parametrize("kind", ["map", "lift"])
def test_column_forms_hand_back_by_nan(kind, variant):
    # a column form gives the scalar bits wherever the scalar function
    # returns, branch rows included (w = 0, a ratio too large to square, the
    # pinned bases of the quaternion lift), and is not finite wherever it
    # raises (the batch CLI re-runs exactly those rows)
    forms = (MAPS if kind == "map" else LIFTS)[variant]
    rows = map_rows() if kind == "map" else lift_rows()
    with np.errstate(all="ignore"):
        cols = np.column_stack(np.broadcast_arrays(*forms.columns(*rows.T)))
    scalar = scalar_of_row(kind, variant)
    compared = 0
    for row, col in zip(rows.tolist(), cols.tolist()):
        finite = all(map(math.isfinite, col))
        try:
            want = scalar(row)
        except DomainError:
            assert not finite, row
            continue
        assert repr(col) == repr(want), row
        compared += 1
    assert compared >= 200  # at least the generic unit rows



# rows on which the column forms once warned (w = 0, the zero pair, ratios
# too large to square), with the poles, pinned bases, zero and off-unit
# points of the lifts, and what each form gives on them
QUIET_ROWS = {
    "map": [[1.0, 0, 0, 0], [0, 0, 0, 0], [2.0, 0, 0, 0], [1.0, 0, 1e-200, 0], [1.0, 0, 5e-324, 0],
            [1e300, 1e300, 1e-300, 0]],
    "lift": [[1.0, 0, 0], [-1.0, 0, 0], [0, 0, 1.0], [0, 0, -1.0], [0, 0, 0], [2.0, 0, 0]],
}
NAN3, POLE, H = [math.nan] * 3, [0.0, 0.0, 1.0], 0.7071067811865476
QUIET_VALUES = {
    ("map", HopfVariant.CLASSIC): [POLE, NAN3, NAN3, POLE, POLE, NAN3],
    ("map", HopfVariant.QUAT): [[1.0, 0.0, 0.0], NAN3, NAN3, [1.0, 0.0, -2e-200], [1.0, 0.0, -1e-323], NAN3],
    ("map", HopfVariant.BLOCH): [POLE, NAN3, POLE, POLE, POLE, POLE],
    ("lift", HopfVariant.CLASSIC): [
        [H, 0.0, 0.7071067811865475, 0.0], [H, 0.0, -0.7071067811865475, -8.659560562354932e-17],
        [1.0, 0.0, 0.0, 0.0], [6.123233995736766e-17, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
        [H, 0.0, 0.7071067811865475, 0.0],
    ],
    ("lift", HopfVariant.QUAT): [
        [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [H, 0.0, -0.7071067811865475, 0.0],
        [H, 0.0, 0.7071067811865475, 0.0], [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
    ],
    ("lift", HopfVariant.BLOCH): [
        [H, 0.0, 0.7071067811865475, 0.0], [H, 0.0, -0.7071067811865475, 8.659560562354932e-17],
        [1.0, 0.0, 0.0, 0.0], [6.123233995736766e-17, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
        [H, 0.0, 0.7071067811865475, 0.0],
    ],
}


@pytest.mark.parametrize("variant", list(HopfVariant), ids=[v.value for v in HopfVariant])
@pytest.mark.parametrize("kind", ["map", "lift"])
def test_column_forms_warn_nothing(kind, variant):
    forms = (MAPS if kind == "map" else LIFTS)[variant]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = forms.columns(*np.array(QUIET_ROWS[kind], dtype=np.float64).T)
    cols = np.column_stack(np.broadcast_arrays(*out))
    assert repr(cols.tolist()) == repr(QUIET_VALUES[kind, variant])
