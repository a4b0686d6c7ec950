"""The projective line P^1, the extended complex plane, and stereographic
projections between the 2-sphere and C+ = C u {inf}.

Points of R^3 are numpy float64 arrays of shape (3,).  The two
stereographic projections put the pole on the i-axis (stereo1, pole
(1,0,0)) and on the k-axis (stereo3, pole (0,0,1)); each inverse is the
other's coordinate permutation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnit, ZeroVector
from .quat import EPS_NORM, ComplexPair, where

EPS_PROJ = 1e-9

# 1-x (or 1-z) below this is treated as exactly at the projection pole;
# C+ represents the pole exactly, so return Infinity instead of overflowing.
_POLE_FLOOR = 1e-300


@dataclass(frozen=True)
class ExtendedComplex:
    """An element of C+ : a finite complex value or the point at infinity."""

    value: complex | None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @property
    def finite(self) -> complex:
        if self.value is None:
            raise ValueError("infinity has no finite value")
        return self.value


INFINITY = ExtendedComplex(None)


def finite(value: complex) -> ExtendedComplex:
    value = complex(value)
    if not (cmath.isfinite(value)):
        raise ValueError(f"{value!r} is not a finite complex number")
    return ExtendedComplex(value)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point [z, w] of P^1 held by a canonical unit-norm representative.

    The canonical form makes the last numerically nonzero coordinate
    (w if |w| > EPS_NORM, else z) real and positive, so serialized points
    reproduce across runs.
    """

    rep: ComplexPair


def project(v: ComplexPair) -> ProjectivePoint:
    """Canonical projection C^2 \\ {0} -> P^1."""
    if abs(v.z) <= EPS_NORM and abs(v.w) <= EPS_NORM:
        raise ZeroVector("cannot project the zero vector")
    return ProjectivePoint(canonical(v))


def canonical(v: ComplexPair) -> ComplexPair:
    """The canonical representative of the class of v != 0 (a pair of
    numbers or of complex columns)."""
    n = v.norm()
    z, w = v.z / n, v.w / n
    pivot = where(abs(w) > EPS_NORM, w, z)
    phase = pivot / abs(pivot)
    return ComplexPair(z / phase, w / phase)


def proj_eq(p: ProjectivePoint, q: ProjectivePoint) -> bool:
    """Equality of projective classes via the scale-free cross test."""
    a, b = p.rep, q.rep
    cross = abs(a.z * b.w - a.w * b.z)
    scale = max(1.0, a.norm() * b.norm())
    return cross <= EPS_PROJ * scale


def ratio(z: complex, w: complex) -> ExtendedComplex:
    """z/w in C+: infinity when w == 0 or the quotient overflows."""
    if w == 0:
        return INFINITY
    u = z / w
    if not cmath.isfinite(u):
        return INFINITY
    return ExtendedComplex(u)


def chart(p: ProjectivePoint) -> ExtendedComplex:
    """The coordinate chart [z0, z1] -> z0/z1, with [1, 0] -> infinity."""
    return ratio(p.rep.z, p.rep.w)


def require_sphere(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if abs(float(np.dot(p, p)) - 1.0) > 2 * EPS_NORM:
        raise NotUnit(f"point {p.tolist()} is not on the unit sphere")
    return p


def stereo1(p) -> ExtendedComplex:
    """Project S^2 from the pole (1,0,0): (x,y,z) -> (y + iz)/(1 - x)."""
    x, y, z = require_sphere(p)
    d = 1.0 - x
    if d < _POLE_FLOOR:
        return INFINITY
    return ExtendedComplex(complex(y / d, z / d))


def stereo3(p) -> ExtendedComplex:
    """Project S^2 from the pole (0,0,1): (x,y,z) -> (x + iy)/(1 - z)."""
    x, y, z = require_sphere(p)
    d = 1.0 - z
    if d < _POLE_FLOOR:
        return INFINITY
    return ExtendedComplex(complex(x / d, y / d))


def stereo3_inv(u: ExtendedComplex) -> np.ndarray:
    if u.is_infinity:
        return np.array([0.0, 0.0, 1.0])
    a, b = u.finite.real, u.finite.imag
    if math.isinf(a * a + b * b):
        return np.array([0.0, 0.0, 1.0])
    return np.array(stereo3_inv_parts(a, b))


def stereo3_inv_parts(a, b):
    """The inverse of stereo3 at a + ib, on real parts (numbers or
    columns); NaN where a^2 + b^2 overflows (the point is the pole)."""
    r2 = a * a + b * b
    d = r2 + 1.0
    return 2.0 * a / d, 2.0 * b / d, (r2 - 1.0) / d


def stereo1_inv(u: ExtendedComplex) -> np.ndarray:
    return stereo3_inv(u)[[2, 0, 1]]


def ext_conjugate(u: ExtendedComplex) -> ExtendedComplex:
    if u.is_infinity:
        return INFINITY
    return ExtendedComplex(u.finite.conjugate())


def ext_mul_i(u: ExtendedComplex) -> ExtendedComplex:
    if u.is_infinity:
        return INFINITY
    return ExtendedComplex(1j * u.finite)
