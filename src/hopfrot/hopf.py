"""The three Hopf maps S^3 -> S^2 and their fibers.

Naming follows common usage: the classic map is the chart-then-inverse-
stereographic pipeline with the pole on the k-axis; the quaternion map is
g -> g i g*; the Bloch map is the physicist's state-to-sphere projection
(a, b) -> stereo3_inv(conj(a/b)).

Each map and lift also has a column form (`*_columns`), which evaluates it
on float64 component columns with the scalar function's own formulas but
without its guards and branches; see `HOPF_COLUMNS`.
"""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

from .errors import NotUnit, ZeroVector
from .quat import (
    EPS_NORM,
    I,
    ComplexPair,
    Quaternion,
    cmul,
    conjugate,
    each,
    embed_pure,
    from_complex_pair,
    multiply,
    pair_of_columns,
    require_unit,
    to_complex_pair,
    vector_norm,
)
from .sphere import (
    canonical,
    chart,
    ext_conjugate,
    project,
    ratio,
    require_sphere,
    stereo3_inv,
    stereo3_inv_parts,
)


class HopfVariant(enum.Enum):
    CLASSIC = "classic"
    QUAT = "quat"
    BLOCH = "bloch"


def conjugate_action(g: Quaternion, p) -> np.ndarray:
    """Rotate p in R^3 by the unit quaternion g: p -> g p g*."""
    require_unit(g)
    return np.array(sandwich(g, embed_pure(p)))


def sandwich(g: Quaternion, p: Quaternion):
    """The vector part of g p g*, on components (floats or columns).

    The scalar part vanishes identically for pure p; its rounding residue
    is dropped.
    """
    q = multiply(multiply(g, p), conjugate(g))
    return q.x1, q.x2, q.x3


def quat_hopf(g: Quaternion) -> np.ndarray:
    """The quaternion Hopf map g -> g i g*, basepoint (1, 0, 0)."""
    return conjugate_action(g, (1.0, 0.0, 0.0))


def bloch(v: ComplexPair) -> np.ndarray:
    """The Bloch projection (a, b) -> stereo3_inv(conj(a/b)).

    Scale invariant, hence defined on all of C^2 minus the origin.
    """
    try:
        zero = abs(v.z) <= EPS_NORM and abs(v.w) <= EPS_NORM
    except OverflowError:  # |z| beyond the float range
        zero = False
    if zero:
        raise ZeroVector("Bloch projection of the zero vector")
    return stereo3_inv(ext_conjugate(ratio(v.z, v.w)))


def bloch_columns(v: ComplexPair):
    """bloch on a pair of complex columns, as component columns; rows
    where w = 0 or z/w is too large to square come out NaN or infinite."""
    u = (v.z / v.w).conjugate()
    return stereo3_inv_parts(u.real, u.imag)


def hopf_classic(v: ComplexPair) -> np.ndarray:
    """The original Hopf map: stereo3_inv . chart . project on unit vectors."""
    if abs(v.norm() - 1.0) > EPS_NORM:
        raise NotUnit(f"vector norm {v.norm()!r} is not 1")
    return stereo3_inv(chart(project(v)))


def hopf_classic_columns(v: ComplexPair):
    """hopf_classic on a pair of complex columns, as component columns,
    without the unit check; rows where the representative's w = 0 or z/w
    is too large to square come out NaN or infinite."""
    rep = canonical(v)
    u = rep.z / rep.w
    return stereo3_inv_parts(u.real, u.imag)


def reverse(p) -> np.ndarray:
    """The reflection (x, y, z) -> (z, y, x)."""
    x, y, z = np.asarray(p, dtype=np.float64)
    return np.array([z, y, x])


def _acos(t: float) -> float:
    return math.acos(max(-1.0, min(1.0, t)))


def _spherical_lift(p, sign: int) -> ComplexPair:
    x, y, z = require_sphere(p).tolist()
    zr, zi, wr, wi = spherical_lift_columns(x, y, z, sign)
    return ComplexPair(complex(zr, zi), complex(wr, wi))


def spherical_lift_columns(x, y, z, sign: int):
    """The section (cos theta/2, e^{sign i phi} sin theta/2) over a unit point,
    with colatitude theta and azimuth phi (phi = 0 at the poles), as
    (Re z, Im z, Re w, Im w).

    The phase is computed for each sign rather than conjugated: where
    phi = 0, conjugation would turn +0.0 imaginary parts into -0.0.
    """
    half = each(_acos, z) / 2.0
    phi = each(math.atan2, y, x)
    # cmath.exp(sign * 1j * phi) * sin(theta/2) as CPython 3.11 rounds it:
    # the exponent's real part is +-0.0, so its exp is exactly (cos, sin)
    # of the imaginary part
    _, angle = cmul(cmul((sign, 0.0), (0.0, 1.0)), (phi, 0.0))
    phase = (each(math.cos, angle), each(math.sin, angle))
    return (each(math.cos, half), 0.0, *cmul(phase, (each(math.sin, half), 0.0)))


def lift_bloch(p) -> ComplexPair:
    """Canonical unit preimage of p under the Bloch map.

    Uses the spherical-coordinate section (cos theta/2, e^{i phi} sin theta/2);
    at the south pole phi is fixed to 0, giving (0, 1).
    """
    return _spherical_lift(p, 1)


def lift_classic(p) -> ComplexPair:
    """Canonical unit preimage of p under the classic map.

    The classic map omits the Bloch map's conjugation, so the section is
    the Bloch one with the azimuth phase conjugated.
    """
    return _spherical_lift(p, -1)


def lift_quat_hopf(p) -> Quaternion:
    """Canonical unit preimage of p under g -> g i g*.

    Constructed as the rotation carrying (1,0,0) to p about the axis
    i x p.  The degenerate bases are pinned: (1,0,0) -> 1, (-1,0,0) -> j.
    """
    x, y, z = require_sphere(p).tolist()
    s = _axis_norm(y, z)
    if s <= EPS_NORM:
        return Quaternion(1.0, 0.0, 0.0, 0.0) if x > 0 else Quaternion(0.0, 0.0, 1.0, 0.0)
    return Quaternion(*_quat_lift(x, y, z, s))


def _axis_norm(y: float, z: float) -> float:
    return vector_norm((0.0, -z, y))  # |(1,0,0) x p|


def _quat_lift(x, y, z, s):
    half = each(_acos, x) / 2.0
    sn = each(math.sin, half)
    return each(math.cos, half), sn * (0.0 / s), sn * (-z / s), sn * (y / s)


def lift_quat_hopf_columns(x, y, z):
    """lift_quat_hopf on point columns; rows at the pinned bases come out
    wrong (LIFT_COLUMNS flags them)."""
    return _quat_lift(x, y, z, each(_axis_norm, y, z))


LIFTS = {
    HopfVariant.CLASSIC: lift_classic,
    HopfVariant.QUAT: lift_quat_hopf,
    HopfVariant.BLOCH: lift_bloch,
}


def fiber_sample(variant: HopfVariant, base, count: int) -> list[ComplexPair]:
    """Sample `count` points of the fiber over `base`, evenly in phase.

    The fiber is the isotropy orbit of the canonical lift: right quaternion
    multiplication by cos t + i sin t for the quaternion map, complex scalar
    multiplication by e^{it} for the Bloch and classic maps.  count = 1
    returns exactly the canonical lift.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lift = LIFTS[variant](base)
    out: list[ComplexPair] = []
    for m in range(count):
        t = 2.0 * math.pi * m / count
        if variant is HopfVariant.QUAT:
            phase = Quaternion(math.cos(t), math.sin(t), 0.0, 0.0)
            out.append(to_complex_pair(multiply(lift, phase)))
        else:
            out.append(lift.scale(cmath.exp(1j * t)))
    return out


def apply_variant(variant: HopfVariant, v: ComplexPair) -> np.ndarray:
    """Evaluate the selected Hopf map on a C^2 point."""
    if variant is HopfVariant.QUAT:
        return quat_hopf(from_complex_pair(v))
    if variant is HopfVariant.BLOCH:
        return bloch(v)
    return hopf_classic(v)


def _maybe_off_unit(*cols):
    """Rows whose norm may be off 1 by more than EPS_NORM (a margin below
    every unit check in the package)."""
    return abs(sum(c * c for c in cols) - 1.0) > EPS_NORM


def _maybe_zero(*cols):
    return np.logical_and.reduce([abs(c) <= EPS_NORM for c in cols])


def _maybe_pinned(x, y, z):
    return y * y + z * z <= 2.0 * EPS_NORM**2


# variant -> (the map on component columns of S^3 inputs, then of S^2
# points for the lift; the mask of rows that may meet a guard or branch of
# the scalar function).  Those rows, and rows whose result is not finite,
# must be evaluated again by the scalar function.  Inputs to the lifts are
# unit points to rounding, which pass require_sphere.
HOPF_COLUMNS = {
    HopfVariant.CLASSIC: (lambda *v: hopf_classic_columns(pair_of_columns(*v)), _maybe_off_unit),
    HopfVariant.QUAT: (lambda *g: sandwich(Quaternion(*g), I), _maybe_off_unit),
    HopfVariant.BLOCH: (lambda *v: bloch_columns(pair_of_columns(*v)), _maybe_zero),
}
LIFT_COLUMNS = {
    HopfVariant.CLASSIC: (lambda x, y, z: spherical_lift_columns(x, y, z, -1), None),
    HopfVariant.QUAT: (lift_quat_hopf_columns, _maybe_pinned),
    HopfVariant.BLOCH: (lambda x, y, z: spherical_lift_columns(x, y, z, 1), None),
}
