import cmath
import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from hopfrot import (
    AxisAngle,
    ComplexPair,
    DomainError,
    NotPure,
    NotUnit,
    Quaternion,
    ZeroVector,
    act_on_vector,
    axis_angle,
    conjugate_action,
    bloch,
    gb,
    gq,
    hopf_classic,
    lift_bloch,
    lift_quat_hopf,
    matvec_as_quat,
    multiply,
    pure_part,
    reconcile,
    rotate,
    rotate_via_bloch,
    rotate_via_quat_hopf,
    stereo3,
    su2_from_quat,
    to_axis_angle,
)
from hopfrot.quat import ONE, phase, require_unit, vector_norm
from hopfrot.su2 import IDENTITY
from hopfrot.verify import _Rotations

from oracles import rodrigues, scipy_quat, scipy_rotvec

RNG = np.random.default_rng(23)
S = 1 / math.sqrt(2)


def random_axis_angle(rng):
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    return axis_angle(rng.uniform(0, 2 * math.pi), n)


def random_sphere(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_unit_quat(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def test_axis_angle_rejects_bad_axis():
    with pytest.raises(NotUnit):
        AxisAngle(1.0, (0.0, 0.0, 2.0))


NAN = math.nan
NAN_INPUTS = {
    "lift_quat_hopf": (lambda: lift_quat_hopf([NAN, 0.0, 0.0]), NotUnit),
    "hopf_classic": (lambda: hopf_classic(ComplexPair(complex(NAN, 0.0), 0j)), NotUnit),
    "to_axis_angle": (lambda: to_axis_angle(Quaternion(NAN, 0.0, 0.0, 0.0)), NotUnit),
    "AxisAngle": (lambda: AxisAngle(1.0, (NAN, 0.0, 0.0)), NotUnit),
    "AxisAngle theta": (lambda: AxisAngle(NAN, (0.0, 0.0, 1.0)), DomainError),
    "bloch": (lambda: bloch(ComplexPair(NAN, 1.0)), DomainError),
    "su2_from_quat": (lambda: su2_from_quat(Quaternion(NAN, 0.0, 0.0, 0.0)), NotUnit),
    "lift_bloch": (lambda: lift_bloch([NAN, 0.0, 0.0]), NotUnit),
    "stereo3": (lambda: stereo3([NAN, 0.0, 0.0]), NotUnit),
    "pure_part": (lambda: pure_part(Quaternion(NAN, 0.0, 0.0, 1.0)), NotPure),
    "rotate nan": (lambda: rotate(axis_angle(1.0, (0, 0, 1)), [NAN, 0.0, 0.0]), DomainError),
    "rotate inf": (lambda: rotate(axis_angle(1.0, (0, 0, 1)), [math.inf, 0.0, 0.0]), DomainError),
    "rotate -inf": (lambda: rotate(axis_angle(1.0, (0, 0, 1)), [0.0, 0.0, -math.inf]), DomainError),
    "conjugate_action nan": (lambda: conjugate_action(ONE, (0.0, NAN, 0.0)), DomainError),
    "conjugate_action inf": (lambda: conjugate_action(ONE, (0.0, 0.0, math.inf)), DomainError),
    "conjugate_action -inf": (lambda: conjugate_action(ONE, (-math.inf, 0.0, 0.0)), DomainError),
}


@pytest.mark.parametrize("name", NAN_INPUTS)
def test_unit_guards_reject_nan(name):
    # abs(nan - 1) > band is False, so each guard is written `not ... <= band`
    call, error = NAN_INPUTS[name]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("value", [NAN, math.inf, -math.inf])
def test_non_finite_angle_and_bloch_components_are_domain_errors(value):
    # NaN would otherwise end at the pole (0, 0, 1), infinity in math.cos
    with pytest.raises(DomainError, match="angle .* is not finite"):
        AxisAngle(value, (0.0, 0.0, 1.0))
    for v in (ComplexPair(value, 1.0), ComplexPair(1.0, value), ComplexPair(0j, complex(0.0, value))):
        with pytest.raises(DomainError, match="non-finite component"):
            bloch(v)


def holds(guard, v) -> bool:
    try:
        guard(v)
    except NotUnit:
        return False
    return True


# the unit guards of S^3, C^2 and rotation axes: (vector width, guard of a list)
UNIT_GUARDS = {
    "require_unit": (4, lambda v: require_unit(Quaternion(*v))),
    "hopf_classic": (4, lambda v: hopf_classic(ComplexPair(complex(*v[:2]), complex(*v[2:])))),
    "AxisAngle": (3, lambda v: AxisAngle(1.0, tuple(v))),
}


@pytest.mark.parametrize("name", UNIT_GUARDS)
def test_unit_verdict_ignores_component_order(name):
    # the guards decide by the exactly rounded norm; a plain sum of squares
    # gave some of these vectors a verdict that changed with the order
    width, guard = UNIT_GUARDS[name]
    rng = np.random.default_rng(9)
    u = rng.standard_normal((400, width))
    u /= np.sqrt((u * u).sum(axis=1, keepdims=True))
    # norms a few ulps either side of the band edges 1 -+ EPS_NORM
    r = 1.0 + rng.choice([-1e-9, 1e-9], 400) * (1.0 + rng.uniform(-1e-7, 1e-7, 400))
    seen = set()
    for v in (u * r[:, None]).tolist():
        verdicts = {holds(guard, p) for p in itertools.permutations(v)}
        assert len(verdicts) == 1, v
        seen |= verdicts
    assert seen == {True, False}


def test_gq_examples():
    assert gq(axis_angle(0, (0, 1, 0))) == ONE
    q = gq(axis_angle(math.pi, (1, 0, 0)))
    assert q.x0 == pytest.approx(0, abs=1e-15) and q.x1 == pytest.approx(1)
    q = gq(axis_angle(math.pi / 2, (0, 0, 1)))
    assert q.x0 == pytest.approx(S) and q.x3 == pytest.approx(S)


def test_gb_examples():
    assert gb(axis_angle(0, (0, 1, 0))) == IDENTITY
    m = gb(axis_angle(math.pi, (0, 0, 1)))
    assert m.z == pytest.approx(-1j) and abs(m.w) <= 1e-15
    m = gb(axis_angle(math.pi, (0, 1, 0)))
    assert abs(m.z) <= 1e-15 and m.w == pytest.approx(-1)


def _parts(x, i=None):
    """The float parts of a Quaternion or SU2Matrix, of its row i on columns."""
    if isinstance(x, Quaternion):
        parts = astuple(x)
    else:
        parts = (x.z.real, x.z.imag, x.w.real, x.w.imag)
    return tuple(p.item(i) if np.ndim(p) else p for p in parts)


def test_column_forms_give_each_rows_scalar_bits():
    # gq, gb, phase and vector_norm on columns, row by row against the scalar
    # calls by repr, so signed zeros count: gb's w on the z axis is
    # (0.0, -0.0), as in the convert golden
    assert repr(_parts(gb(axis_angle(math.pi / 2, (0, 0, 1))))[2:]) == "(0.0, -0.0)"
    axes = [(0.0, 0.0, 1.0), (-0.0, 1.0, 0.0), (-1.0, 0.0, -0.0), (0.6, 0.8, 0.0), (0.48, -0.6, 0.64)]
    thetas = [0.0, math.pi, 2.0 * math.pi, -7.0, 1.25]
    rows = [(t, n) for t in thetas for n in axes]
    cols = _Rotations(np.array([t for t, _ in rows]), np.array([n for _, n in rows]).T)
    q, m, e = gq(cols), gb(cols), phase(cols.theta)
    for i, (t, n) in enumerate(rows):
        aa = AxisAngle(t, n)
        assert repr(_parts(q, i)) == repr(_parts(gq(aa))), (t, n)
        assert repr(_parts(m, i)) == repr(_parts(gb(aa))), (t, n)
        assert repr(_parts(e, i)) == repr(_parts(phase(t))), t
    # rows that take vector_norm's scaling branches (squares that overflow,
    # or all underflow), signed zeros and an infinite norm
    vectors = [
        (1e200, -1e200, 3.0), (1e200, 0.0, -0.0), (1.7e308, 1.7e308, 1.7e308),
        (5e-324, -0.0, 0.0), (1e-310, 2e-310, -1e-320), (3e-170, 4e-170, 0.0),
        (0.0, -0.0, 0.0), (0.6, 0.8, 1e-9), (-0.0, 1.0, 0.0),
    ]
    x, y, z = np.array(vectors).T
    norms, axis_norms = vector_norm((x, y, z)).tolist(), vector_norm((y, z)).tolist()
    for v, n, s in zip(vectors, norms, axis_norms):
        assert repr(n) == repr(vector_norm(v)), v
        # |(1, 0, 0) x v| as lift_quat_hopf takes it: the exact sum is the same
        assert repr(s) == repr(vector_norm((0.0, -v[2], v[1]))), v


def test_rotate_examples():
    aa = axis_angle(math.pi / 2, (0, 0, 1))
    np.testing.assert_allclose(rotate(aa, (1, 0, 0)), [0, 1, 0], atol=1e-15)
    aa = axis_angle(1.234, (0, 1, 0))
    np.testing.assert_allclose(rotate(aa, (0, 1, 0)), [0, 1, 0], atol=1e-15)
    aa = axis_angle(2 * math.pi, (1, 0, 0))
    np.testing.assert_allclose(rotate(aa, (0.2, -1.0, 0.5)), [0.2, -1.0, 0.5], atol=1e-12)


def test_rotate_matches_rodrigues():
    for _ in range(1000):
        aa = random_axis_angle(RNG)
        p = 3.0 * RNG.standard_normal(3)
        np.testing.assert_allclose(
            rotate(aa, p), rodrigues(aa.theta, aa.axis, p), atol=1e-9
        )


def test_rotation_routes_match_scipy():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        aa = random_axis_angle(rng)
        p = 3.0 * rng.standard_normal(3)
        n = vector_norm(p.tolist())
        want = scipy_rotvec(aa.theta, aa.axis, p)
        for got in (
            rotate(aa, p),
            scipy_quat(astuple(gq(aa)), p),
            n * rotate_via_bloch(aa, lift_bloch(p / n)),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_rotation_composition_same_axis():
    for _ in range(200):
        n = random_sphere(RNG)
        t1, t2 = RNG.uniform(0, 2 * math.pi, 2)
        p = random_sphere(RNG)
        once = rotate(axis_angle(t2, n), rotate(axis_angle(t1, n), p))
        both = rotate(axis_angle(t1 + t2, n), p)
        np.testing.assert_allclose(once, both, atol=1e-9)


def test_double_cover():
    for _ in range(100):
        aa = random_axis_angle(RNG)
        flipped = axis_angle(aa.theta + 2 * math.pi, aa.axis)
        q1, q2 = gq(aa), gq(flipped)
        np.testing.assert_allclose(
            [q2.x0, q2.x1, q2.x2, q2.x3],
            [-q1.x0, -q1.x1, -q1.x2, -q1.x3],
            atol=1e-12,
        )
        p = random_sphere(RNG)
        np.testing.assert_allclose(rotate(aa, p), rotate(flipped, p), atol=1e-12)


def test_rotate_via_quat_hopf():
    np.testing.assert_allclose(
        rotate_via_quat_hopf(axis_angle(0, (0, 0, 1)), ONE), [1, 0, 0]
    )
    np.testing.assert_allclose(
        rotate_via_quat_hopf(axis_angle(math.pi, (0, 0, 1)), ONE), [-1, 0, 0], atol=1e-15
    )
    for _ in range(200):
        aa = random_axis_angle(RNG)
        p = random_sphere(RNG)
        hq = lift_quat_hopf(p)
        t = RNG.uniform(0, 2 * math.pi)
        spun = multiply(hq, Quaternion(math.cos(t), math.sin(t), 0, 0))
        np.testing.assert_allclose(rotate_via_quat_hopf(aa, hq), rotate(aa, p), atol=1e-9)
        np.testing.assert_allclose(
            rotate_via_quat_hopf(aa, spun), rotate_via_quat_hopf(aa, hq), atol=1e-9
        )


def test_rotate_via_bloch():
    np.testing.assert_allclose(
        rotate_via_bloch(axis_angle(0, (0, 0, 1)), ComplexPair(1, 0)), [0, 0, 1]
    )
    np.testing.assert_allclose(
        rotate_via_bloch(axis_angle(math.pi, (0, 1, 0)), ComplexPair(1, 0)),
        [0, 0, -1],
        atol=1e-15,
    )
    for _ in range(200):
        aa = random_axis_angle(RNG)
        p = random_sphere(RNG)
        hb = lift_bloch(p)
        lam = complex(*RNG.standard_normal(2))
        if abs(lam) < 1e-3:
            continue
        np.testing.assert_allclose(rotate_via_bloch(aa, hb), rotate(aa, p), atol=1e-9)
        np.testing.assert_allclose(
            rotate_via_bloch(aa, hb.scale(lam)), rotate_via_bloch(aa, hb), atol=1e-9
        )


def test_matvec_as_quat_is_matrix_action():
    assert matvec_as_quat(IDENTITY, ComplexPair(0.2 + 1j, -3 + 0.1j)) == ComplexPair(
        0.2 + 1j, -3 + 0.1j
    )
    for _ in range(500):
        g = su2_from_quat(random_unit_quat(RNG))
        h = ComplexPair(complex(*RNG.standard_normal(2)), complex(*RNG.standard_normal(2)))
        a = act_on_vector(g, h)
        b = matvec_as_quat(g, h)
        assert abs(a.z - b.z) <= 1e-12 and abs(a.w - b.w) <= 1e-12


def test_convert_convention_relation():
    aa = axis_angle(0, (1, 0, 0))
    q, m = gq(aa), gb(aa)
    assert q == ONE and m == IDENTITY
    for _ in range(500):
        aa = random_axis_angle(RNG)
        m = gb(aa)
        n1, n2, n3 = aa.axis
        mirrored = su2_from_quat(gq(axis_angle(-aa.theta, (n3, n2, n1))))
        assert abs(m.z - mirrored.z) <= 1e-12
        assert abs(m.w - mirrored.w) <= 1e-12


def test_convert_convention_half_turn():
    m = gb(axis_angle(math.pi, (0, 0, 1)))
    q = gq(axis_angle(-math.pi, (1, 0, 0)))
    assert q.x1 == pytest.approx(-1)
    mirrored = su2_from_quat(q)
    assert abs(m.z - mirrored.z) <= 1e-15 and abs(m.w - mirrored.w) <= 1e-15


def test_reconcile():
    aa = axis_angle(math.pi / 2, (0, 0, 1))
    a, b = reconcile(aa, np.array([1.0, 0, 0]), 0.0, 1.0)
    np.testing.assert_allclose(a, [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(b, [0, 1, 0], atol=1e-15)
    for _ in range(300):
        aa = random_axis_angle(RNG)
        p = random_sphere(RNG)
        fq = RNG.uniform(0, 2 * math.pi)
        fb = cmath.exp(complex(RNG.uniform(-2, 2), RNG.uniform(0, 2 * math.pi)))
        a, b = reconcile(aa, p, fq, fb)
        np.testing.assert_allclose(a, b, atol=1e-9)
        np.testing.assert_allclose(a, rotate(aa, p), atol=1e-9)


def test_reconcile_identity_rotation():
    p = random_sphere(RNG)
    a, b = reconcile(axis_angle(0, (0, 1, 0)), p, 1.0, 2.0 - 1.0j)
    np.testing.assert_allclose(a, p, atol=1e-9)
    np.testing.assert_allclose(b, p, atol=1e-9)


def test_reconcile_zero_fiber_rejected():
    with pytest.raises(ZeroVector):
        reconcile(axis_angle(1.0, (1, 0, 0)), np.array([0.0, 0, 1]), 0.0, 0.0)


@pytest.mark.parametrize("angle", [math.inf, -math.inf, NAN])
def test_reconcile_rejects_a_non_finite_fiber_angle(angle):
    # as AxisAngle rejects theta: not libm's bare math domain error, nor a
    # NotUnit naming a quaternion the caller never gave
    with pytest.raises(DomainError) as caught:
        reconcile(axis_angle(1.0, (0, 0, 1)), (0.6, 0.8, 0.0), angle, 1.0)
    assert type(caught.value) is DomainError
    assert str(caught.value) == f"fiber angle {angle!r} is not finite"


def test_to_axis_angle_round_trip():
    for _ in range(300):
        aa = random_axis_angle(RNG)
        q = gq(aa)
        back = gq(to_axis_angle(q))
        np.testing.assert_allclose(
            [back.x0, back.x1, back.x2, back.x3],
            [q.x0, q.x1, q.x2, q.x3],
            atol=1e-12,
        )
    assert to_axis_angle(ONE).theta == 0.0
