"""The three Hopf maps S^3 -> S^2 and their fibers.

Naming follows common usage: the classic map is the chart-then-inverse-
stereographic pipeline with the pole on the k-axis; the quaternion map is
g -> g i g*; the Bloch map is the physicist's state-to-sphere projection
(a, b) -> stereo3_inv(conj(a/b)).

Each map and lift also has a column form (`*_columns`), which evaluates it
on float64 component columns with the scalar function's own formulas and
branches, but without its checks of the input; see `MAPS` and `LIFTS`.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NotUnit, ZeroVector
from .quat import (
    EPS_NORM,
    I,
    ComplexColumn,
    ComplexPair,
    Quaternion,
    cmul,
    conjugate,
    each,
    embed_pure,
    from_complex_pair,
    multiply,
    phase,
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
    stereo3_inv_ratio,
)


class HopfVariant(enum.Enum):
    CLASSIC = "classic"
    QUAT = "quat"
    BLOCH = "bloch"


def conjugate_action(g: Quaternion, p) -> np.ndarray:
    """Rotate p in R^3 by the unit quaternion g: p -> g p g*.  A point
    with a non-finite coordinate is a DomainError, as it is for bloch."""
    require_unit(g)
    q = embed_pure(p)
    if not (math.isfinite(q.x1) and math.isfinite(q.x2) and math.isfinite(q.x3)):
        raise DomainError("cannot rotate a point with a non-finite coordinate")
    return np.array(sandwich(g, q))


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

    Scale invariant, hence defined on every finite nonzero vector of C^2.
    """
    if v.z == 0 and v.w == 0:
        raise ZeroVector("Bloch projection of the zero vector")
    if not (cmath.isfinite(v.z) and cmath.isfinite(v.w)):
        raise DomainError("Bloch projection of a vector with a non-finite component")
    return stereo3_inv(ext_conjugate(ratio(v.z, v.w)))


def bloch_columns(v: ComplexPair):
    """bloch on a pair of complex columns, as component columns, without
    its checks of the input; rows where z = w = 0 come out NaN."""
    return stereo3_inv_ratio(v.z, v.w, ComplexColumn.conjugate)


def hopf_classic(v: ComplexPair) -> np.ndarray:
    """The original Hopf map: stereo3_inv . chart . project on unit vectors."""
    n = vector_norm((v.z.real, v.z.imag, v.w.real, v.w.imag))
    if not abs(n - 1.0) <= EPS_NORM:
        raise NotUnit(f"vector norm {n!r} is not 1")
    return stereo3_inv(chart(project(v)))


def hopf_classic_columns(*v):
    """hopf_classic on component columns (Re z, Im z, Re w, Im w), without
    the unit check."""
    rep = canonical(to_complex_pair(Quaternion(*v)))
    return stereo3_inv_ratio(rep.z, rep.w)


def reverse(p) -> np.ndarray:
    """The reflection (x, y, z) -> (z, y, x)."""
    x, y, z = np.asarray(p, dtype=np.float64)
    return np.array([z, y, x])


def _acos(t: float) -> float:
    return math.acos(max(-1.0, min(1.0, t)))


def _spherical_lift(p, sign: int) -> ComplexPair:
    x, y, z = require_sphere(p)
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
    e_phi = (each(math.cos, angle), each(math.sin, angle))
    return (each(math.cos, half), 0.0, *cmul(e_phi, (each(math.sin, half), 0.0)))


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
    x, y, z = require_sphere(p)
    s = vector_norm((y, z))  # |(1,0,0) x p|
    if s <= EPS_NORM:
        return Quaternion(1.0, 0.0, 0.0, 0.0) if x > 0 else Quaternion(0.0, 0.0, 1.0, 0.0)
    return Quaternion(*_quat_lift(x, y, z, s))


def _quat_lift(x, y, z, s):
    half = each(_acos, x) / 2.0
    sn = each(math.sin, half)
    return each(math.cos, half), sn * (0.0 / s), sn * (-z / s), sn * (y / s)


def lift_quat_hopf_columns(x, y, z):
    """lift_quat_hopf on point columns, pinned bases included."""
    s = vector_norm((y, z))
    pin = np.where(x > 0, 1.0, 0.0)  # 1 at (1,0,0), j at (-1,0,0)
    pinned = (pin, 0.0, 1.0 - pin, 0.0)
    return tuple(np.where(s <= EPS_NORM, a, b) for a, b in zip(pinned, _quat_lift(x, y, z, s)))


def fiber_sample(variant: HopfVariant, base, count: int) -> list[ComplexPair]:
    """Sample `count` points of the fiber over `base`, evenly in phase.

    The fiber is the isotropy orbit of the canonical lift: right quaternion
    multiplication by cos t + i sin t for the quaternion map, complex scalar
    multiplication by e^{it} for the Bloch and classic maps.  count = 1
    returns exactly the canonical lift.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lift = LIFTS[variant].scalar(base)
    out: list[ComplexPair] = []
    for m in range(count):
        t = 2.0 * math.pi * m / count
        if variant is HopfVariant.QUAT:
            out.append(to_complex_pair(multiply(lift, phase(t))))
        else:
            out.append(lift.scale(cmath.exp(1j * t)))
    return out


def _unit_rows(*v):
    """The columns v, NaN in the rows that the scalar unit checks reject."""
    return np.where(abs(vector_norm(v) - 1.0) <= EPS_NORM, v, np.nan)


class Forms(NamedTuple):
    """A function's scalar form and its column form.  On rows of finite
    values (for a lift, points unit to rounding), the column form gives
    the bits of `scalar` wherever `scalar` returns, and is NaN or infinite
    wherever it raises."""

    scalar: Callable
    columns: Callable


# the Hopf maps of a ComplexPair, on columns of (Re z, Im z, Re w, Im w);
# the lifts of a unit point, on columns of (x, y, z) that are unit to
# rounding (so the columns skip require_sphere, which they would pass)
MAPS = {
    HopfVariant.CLASSIC: Forms(hopf_classic, lambda *v: hopf_classic_columns(*_unit_rows(*v))),
    HopfVariant.QUAT: Forms(
        lambda v: quat_hopf(from_complex_pair(v)),
        lambda *g: sandwich(Quaternion(*_unit_rows(*g)), I),
    ),
    HopfVariant.BLOCH: Forms(bloch, lambda *v: bloch_columns(to_complex_pair(Quaternion(*v)))),
}
LIFTS = {
    HopfVariant.CLASSIC: Forms(lift_classic, lambda *p: spherical_lift_columns(*p, -1)),
    HopfVariant.QUAT: Forms(lift_quat_hopf, lift_quat_hopf_columns),
    HopfVariant.BLOCH: Forms(lift_bloch, lambda *p: spherical_lift_columns(*p, 1)),
}
