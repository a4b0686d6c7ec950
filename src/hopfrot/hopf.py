"""The three Hopf maps S^3 -> S^2 and their fibers.

Naming follows common usage: the classic map is the chart-then-inverse-
stereographic pipeline with the pole on the k-axis; the quaternion map is
g -> g i g*; the Bloch map is the physicist's state-to-sphere projection
(a, b) -> stereo3_inv(conj(a/b)).
"""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

from .errors import NotUnit, ZeroVector
from .quat import (
    EPS_NORM,
    ComplexPair,
    Quaternion,
    conjugate,
    embed_pure,
    from_complex_pair,
    multiply,
    require_unit,
    to_complex_pair,
    vector_norm,
)
from .sphere import chart, ext_conjugate, project, ratio, require_sphere, stereo3_inv


class HopfVariant(enum.Enum):
    CLASSIC = "classic"
    QUAT = "quat"
    BLOCH = "bloch"


def conjugate_action(g: Quaternion, p) -> np.ndarray:
    """Rotate p in R^3 by the unit quaternion g: p -> g p g*."""
    require_unit(g)
    q = multiply(multiply(g, embed_pure(p)), conjugate(g))
    # scalar part vanishes identically for pure p; drop rounding residue
    return np.array([q.x1, q.x2, q.x3])


def quat_hopf(g: Quaternion) -> np.ndarray:
    """The quaternion Hopf map g -> g i g*, basepoint (1, 0, 0)."""
    return conjugate_action(g, (1.0, 0.0, 0.0))


def bloch(v: ComplexPair) -> np.ndarray:
    """The Bloch projection (a, b) -> stereo3_inv(conj(a/b)).

    Scale invariant, hence defined on all of C^2 minus the origin.
    """
    if abs(v.z) <= EPS_NORM and abs(v.w) <= EPS_NORM:
        raise ZeroVector("Bloch projection of the zero vector")
    return stereo3_inv(ext_conjugate(ratio(v.z, v.w)))


def hopf_classic(v: ComplexPair) -> np.ndarray:
    """The original Hopf map: stereo3_inv . chart . project on unit vectors."""
    if abs(v.norm() - 1.0) > EPS_NORM:
        raise NotUnit(f"vector norm {v.norm()!r} is not 1")
    return stereo3_inv(chart(project(v)))


def reverse(p) -> np.ndarray:
    """The reflection (x, y, z) -> (z, y, x)."""
    x, y, z = np.asarray(p, dtype=np.float64)
    return np.array([z, y, x])


def _spherical_lift(p, sign: int) -> ComplexPair:
    """The section (cos theta/2, e^{sign i phi} sin theta/2) over a unit point,
    with colatitude theta and azimuth phi; phi = 0 at the poles.

    The phase is computed for each sign rather than conjugated: where
    phi = 0, conjugation would turn +0.0 imaginary parts into -0.0.
    """
    x, y, z = require_sphere(p)
    theta = math.acos(max(-1.0, min(1.0, float(z))))
    phi = math.atan2(float(y), float(x))
    return ComplexPair(
        complex(math.cos(theta / 2.0)),
        cmath.exp(sign * 1j * phi) * math.sin(theta / 2.0),
    )


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
    x, y, z = (float(c) for c in require_sphere(p))
    axis = (0.0, -z, y)  # (1,0,0) cross p
    s = vector_norm(axis)
    if s <= EPS_NORM:
        return Quaternion(1.0, 0.0, 0.0, 0.0) if x > 0 else Quaternion(0.0, 0.0, 1.0, 0.0)
    ax, ay, az = (a / s for a in axis)
    angle = math.acos(max(-1.0, min(1.0, x)))
    c, sn = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return Quaternion(c, sn * ax, sn * ay, sn * az)


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
