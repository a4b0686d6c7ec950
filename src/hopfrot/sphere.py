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

from .errors import DomainError, NotUnit, ZeroVector
from .quat import EPS_NORM, ComplexPair, magnitude, vector_norm, where

EPS_PROJ = 1e-9


@dataclass(frozen=True, slots=True)
class ExtendedComplex:
    """An element of C+ : a finite complex value or the point at infinity."""

    value: complex | None

    def __init__(self, value):
        _value(self, value)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @property
    def finite(self) -> complex:
        if self.value is None:
            raise ValueError("infinity has no finite value")
        return self.value


@dataclass(frozen=True, slots=True)
class ProjectivePoint:
    """A point [z, w] of P^1 held by a canonical unit-norm representative.

    The canonical form makes the last numerically nonzero coordinate
    (w if |w| > EPS_NORM, else z) real and positive, so serialized points
    reproduce across runs.
    """

    rep: ComplexPair

    def __init__(self, rep):
        _rep(self, rep)


_value, _rep = ExtendedComplex.value.__set__, ProjectivePoint.rep.__set__
INFINITY = ExtendedComplex(None)


def finite(value: complex) -> ExtendedComplex:
    value = complex(value)
    if not (cmath.isfinite(value)):
        raise ValueError(f"{value!r} is not a finite complex number")
    return ExtendedComplex(value)


def project(v: ComplexPair) -> ProjectivePoint:
    """Canonical projection C^2 \\ {0} -> P^1 of a vector of finite nonzero norm."""
    n = v.norm()
    if not n < math.inf:  # NaN or infinite parts, or finite ones beyond the float range
        raise DomainError(f"cannot project a vector of norm {n!r}")
    if n == 0.0:
        raise ZeroVector("cannot project the zero vector")
    return ProjectivePoint(canonical(v, n))


def canonical(v: ComplexPair, n) -> ComplexPair:
    """The canonical representative of the class of v != 0 (a pair of
    numbers or of complex columns), given its norm n = v.norm()."""
    z, w = v.z / n, v.w / n
    pivot = where(magnitude(w) > EPS_NORM, w, z)
    phase = pivot / magnitude(pivot)
    return ComplexPair(z / phase, w / phase)


def proj_eq(p: ProjectivePoint, q: ProjectivePoint) -> bool:
    """Equality of projective classes via the scale-free cross test."""
    a, b = p.rep, q.rep
    cross = magnitude(a.z * b.w - a.w * b.z)
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


def require_sphere(p) -> list[float]:
    """p as a list of floats, if its exactly rounded norm is within EPS_NORM of 1."""
    p = list(map(float, p)) if type(p) in (list, tuple) else np.asarray(p, dtype=np.float64).tolist()
    if not abs(vector_norm(p) - 1.0) <= EPS_NORM:
        raise NotUnit(f"point {p} is not on the unit sphere")
    return p


def stereo1(p) -> ExtendedComplex:
    """Project S^2 from the pole (1,0,0): (x,y,z) -> (y + iz)/(1 - x)."""
    x, y, z = require_sphere(p)
    return _stereo(y, z, x)


def stereo3(p) -> ExtendedComplex:
    """Project S^2 from the pole (0,0,1): (x,y,z) -> (x + iy)/(1 - z)."""
    x, y, z = require_sphere(p)
    return _stereo(x, y, z)


def _stereo(a: float, b: float, c: float) -> ExtendedComplex:
    # (a + ib)/(1 - c); on the sphere 1 - c is exact for c >= 0.5 (Sterbenz),
    # so it is <= 0 only where c >= 1, and otherwise at least 2^-53
    d = 1.0 - c
    return ExtendedComplex(complex(a / d, b / d)) if d > 0.0 else INFINITY


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


def stereo3_inv_ratio(z, w, move=None):
    """stereo3_inv(ratio(z, w)) on complex columns, as component columns,
    with `move` (conjugation or multiplication by i, which fix infinity)
    applied to the quotient first.  The pole (0, 0, 1) on the rows where
    the scalar functions branch to it: w = 0, or a quotient that overflows
    or whose squared modulus does.  The zero pair and rows with a NaN or
    infinite part, which the Hopf maps reject, are never a pole; the zero
    pair comes out NaN."""
    u = z / w
    top = np.maximum(np.maximum(abs(z.real), abs(z.imag)), np.maximum(abs(w.real), abs(w.imag)))
    # u is NaN where w = 0; top is in (0, inf) where z, w are finite, not both 0
    pole = ~np.isfinite(u.real * u.real + u.imag * u.imag) & (0.0 < top) & (top < np.inf)
    if move is not None:
        u = move(u)
    x, y, h = stereo3_inv_parts(u.real, u.imag)
    return np.where(pole, 0.0, x), np.where(pole, 0.0, y), np.where(pole, 1.0, h)


def stereo1_inv(u: ExtendedComplex) -> np.ndarray:
    return stereo3_inv(u)[[2, 0, 1]]


def ext_conjugate(u: ExtendedComplex) -> ExtendedComplex:
    return INFINITY if u.is_infinity else ExtendedComplex(u.finite.conjugate())


def ext_mul_i(u: ExtendedComplex) -> ExtendedComplex:
    return INFINITY if u.is_infinity else ExtendedComplex(1j * u.finite)
