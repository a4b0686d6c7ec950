"""The three Hopf maps S^3 -> S^2 and their fibers.

Naming follows common usage: the classic map is the chart-then-inverse-
stereographic pipeline with the pole on the k-axis; the quaternion map is
g -> g i g*; the Bloch map is the physicist's state-to-sphere projection
(a, b) -> stereo3_inv(conj(a/b)).

Each map and lift also has a column form (`*_columns`), which evaluates it
on float64 component columns with the scalar function's own formulas and
branches; it raises and warns nothing, and a map's is NaN where its unit
check rejects a row.  See `MAPS` and `LIFTS`.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ZeroVector
from .quat import (
    EPS_NORM,
    I,
    ComplexColumn,
    ComplexPair,
    Quaternion,
    complex_of,
    each,
    embed_pure,
    from_complex_pair,
    multiply,
    phase,
    require_finite,
    require_index,
    require_unit,
    to_complex_pair,
    unit_norm,
    vector_norm,
    where,
)
from .sphere import (
    ProjectivePoint,
    canonical,
    chart,
    ext_conjugate,
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
    """Rotate p in R^3 by the unit quaternion g: p -> g p g*, the numeric
    core `sandwich` behind the unit guard.  A point with a non-finite
    coordinate is a DomainError, as it is for bloch."""
    require_unit(g)
    q = embed_pure(p)
    if not (math.isfinite(q.x1) and math.isfinite(q.x2) and math.isfinite(q.x3)):
        raise DomainError("cannot rotate a point with a non-finite coordinate")
    return np.array(sandwich(g, q))


def sandwich(g: Quaternion, p: Quaternion):
    """The vector part of g p g*, on components (floats or columns).

    The bits of multiply(multiply(g, p), conjugate(g)): the same operations
    in the same order, on the eight components held in locals, with
    conjugate(g) as (a0, -a1, -a2, -a3).  The scalar part, which vanishes
    identically for pure p but for its rounding residue, is not computed.
    """
    a0, a1, a2, a3 = g.x0, g.x1, g.x2, g.x3
    b0, b1, b2, b3 = p.x0, p.x1, p.x2, p.x3
    m0 = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    m1 = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
    m2 = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
    m3 = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    c1, c2, c3 = -a1, -a2, -a3
    return (
        m0 * c1 + m1 * a0 + m2 * c3 - m3 * c2,
        m0 * c2 - m1 * c3 + m2 * a0 + m3 * c1,
        m0 * c3 + m1 * c2 - m2 * c1 + m3 * a0,
    )


def quat_hopf(g: Quaternion) -> np.ndarray:
    """The quaternion Hopf map g -> g i g*, basepoint (1, 0, 0)."""
    return np.array(sandwich(require_unit(g), I))


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
    return stereo3_inv(chart(ProjectivePoint(canonical(v, unit_norm(v.norm(), "vector")))))


def hopf_classic_columns(*v):
    """hopf_classic on columns (Re z, Im z, Re w, Im w); NaN where its unit check rejects."""
    rep = canonical(to_complex_pair(Quaternion(*v)), unit_norm(vector_norm(v), "vector"))
    return stereo3_inv_ratio(rep.z, rep.w)


def quat_hopf_columns(*g):
    """quat_hopf on columns (x0, x1, x2, x3); NaN where its unit check rejects."""
    n = unit_norm(vector_norm(g), "quaternion")
    return sandwich(Quaternion(*np.where(np.isnan(n), n, g)), I)


def reverse(p) -> np.ndarray:
    """The reflection (x, y, z) -> (z, y, x)."""
    x, y, z = np.asarray(p, dtype=np.float64)
    return np.array([z, y, x])


def _spherical_lift(p, sign: int) -> ComplexPair:
    zr, zi, wr, wi = spherical_lift_columns(*require_sphere(p), sign)
    return ComplexPair(complex(zr, zi), complex(wr, wi))


def spherical_lift_columns(x, y, z, sign: int):
    """The section (cos theta/2, e^{sign i phi} sin theta/2) over a unit point,
    with colatitude theta = atan2(|(x, y)|, z) and azimuth phi (phi = 0 at
    the poles), as (Re z, Im z, Re w, Im w).

    The phase is computed for each sign rather than conjugated: where
    phi = 0, conjugation would turn +0.0 imaginary parts into -0.0.
    """
    half = each(math.atan2, vector_norm((x, y)), z) / 2.0
    phi = each(math.atan2, y, x)
    # cmath.exp(sign * 1j * phi) * sin(theta/2) as CPython 3.11 rounds it:
    # the exponent's real part is +-0.0, so its exp is exactly (cos, sin)
    # of the imaginary part; each product by a real factor (x, 0.0) is
    # complex multiplication written out
    si = sign * 1j  # (0.0, 1.0) or (-0.0, -1.0)
    angle = si.real * 0.0 + si.imag * phi
    c, s, sn = each(math.cos, angle), each(math.sin, angle), each(math.sin, half)
    return each(math.cos, half), 0.0, c * sn - s * 0.0, c * 0.0 + s * sn


def lift_bloch(p) -> ComplexPair:
    """Canonical unit preimage of p under the Bloch map.

    Uses the spherical-coordinate section (cos theta/2, e^{i phi} sin theta/2);
    at the south pole phi = 0, giving (cos(pi/2), 1) = (6.123233995736766e-17, 1).
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
    return Quaternion(*lift_quat_hopf_columns(*require_sphere(p)))


def lift_quat_hopf_columns(x, y, z):
    """lift_quat_hopf past its require_sphere, on coordinates that are
    numbers or columns, pinned bases included."""
    s = vector_norm((y, z))  # |(1,0,0) x p|
    half = each(math.atan2, s, x) / 2.0
    pinned = s <= EPS_NORM
    s = s + pinned  # s + 1.0 where pinned, so that a pinned number never divides 0/0
    pin = 1.0 * (x > 0)  # 1 at (1,0,0), j at (-1,0,0)
    sn = each(math.sin, half)
    return (
        where(pinned, pin, each(math.cos, half)),
        where(pinned, 0.0, sn * (0.0 / s)),
        where(pinned, 1.0 - pin, sn * (-z / s)),
        where(pinned, 0.0, sn * (y / s)),
    )


def fiber_points(p, fq, fb):
    """The preimages lift_quat_hopf(p) * e^{i fq} and fb * lift_bloch(p) of
    a unit point p, as numbers or columns past require_sphere.  A
    non-finite angle fq is a DomainError on numbers and NaN on columns."""
    hq = multiply(Quaternion(*lift_quat_hopf_columns(*p)), phase(require_finite(fq, "fiber angle")))
    return hq, to_complex_pair(Quaternion(*spherical_lift_columns(*p, 1))).scale(fb)


def fiber_sample(variant: HopfVariant, base, count: int) -> list[ComplexPair]:
    """`count` points of the fiber over `base`, evenly in phase: fiber_columns
    at m = 0 .. count - 1.  count = 1 returns exactly the canonical lift."""
    count = require_index(count, "count must be an integer")
    if count < 1:
        raise ValueError("count must be >= 1")
    v = fiber_columns(variant, LIFTS[variant].scalar(base), np.arange(count), count)
    rows = np.array([v.z.real, v.z.imag, v.w.real, v.w.imag]).T.tolist()
    return [ComplexPair(complex(a, b), complex(c, d)) for a, b, c, d in rows]


def fiber_columns(variant: HopfVariant, lift, m, count: int):
    """The fiber through `lift` = LIFTS[variant].scalar(base) at phases
    t = 2 pi m / count (m an index column), as a pair of complex columns:
    lift * (cos t + i sin t) for the quaternion map, e^{it} lift for the
    Bloch and classic maps, where complex(cos t, sin t) has the bits of
    cmath.exp(1j * t) = exp(0.0) (cos t, sin t), as exp(0.0) is 1."""
    e = phase(2.0 * math.pi * m / count)
    if variant is HopfVariant.QUAT:
        return to_complex_pair(multiply(lift, e))
    return lift.scale(complex_of(e.x0, e.x1))


class Forms(NamedTuple):
    """A function's scalar form and its column form (a lift's scalar form
    is its column form behind require_sphere).  On rows of finite values
    (for a lift, points unit to rounding), the column form gives the bits
    of `scalar` wherever `scalar` returns, and is NaN or infinite wherever it raises."""

    scalar: Callable
    columns: Callable


# the Hopf maps of a ComplexPair, on columns of (Re z, Im z, Re w, Im w);
# the lifts of a unit point: each is its column form behind require_sphere,
# run on columns of (x, y, z) that are unit to rounding, which it would pass
MAPS = {
    HopfVariant.CLASSIC: Forms(hopf_classic, hopf_classic_columns),
    HopfVariant.QUAT: Forms(lambda v: quat_hopf(from_complex_pair(v)), quat_hopf_columns),
    HopfVariant.BLOCH: Forms(bloch, lambda *v: bloch_columns(to_complex_pair(Quaternion(*v)))),
}
LIFTS = {
    HopfVariant.CLASSIC: Forms(lift_classic, lambda *p: spherical_lift_columns(*p, -1)),
    HopfVariant.QUAT: Forms(lift_quat_hopf, lift_quat_hopf_columns),
    HopfVariant.BLOCH: Forms(lift_bloch, lambda *p: spherical_lift_columns(*p, 1)),
}
