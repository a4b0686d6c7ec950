import math
from dataclasses import astuple

import numpy as np
import pytest

from hopfrot import (
    ComplexPair,
    DomainError,
    HopfVariant,
    NotUnit,
    Quaternion,
    ZeroVector,
    bloch,
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
from hopfrot.hopf import LIFTS, MAPS
from hopfrot.quat import J, K, ONE, vector_norm
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
        assert lift_quat_hopf((1, 0, 0)) == ONE
        assert lift_quat_hopf((-1, 0, 0)) == J

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
            "ComplexPair(z=(0.9486832980505138+0j), w=(0.3162277660168379+0j))"
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
