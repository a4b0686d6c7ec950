"""Quaternion arithmetic and its identifications with R^4, C^2 and SU(2).

Quaternions are stored scalar-first as (x0, x1, x2, x3), i.e.
x0 + x1*i + x2*j + x3*k.  The complex-pair identification used throughout
is (x0 + i*x1, x2 + i*x3), so a quaternion q corresponds to z + w*j with
z, w complex.  No operation renormalizes its result; callers that need a
unit value must normalize explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotPure, NotUnit

EPS_NORM = 1e-9


@dataclass(frozen=True)
class Quaternion:
    x0: float
    x1: float
    x2: float
    x3: float

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return multiply(self, other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def scale(self, s: float) -> "Quaternion":
        return Quaternion(s * self.x0, s * self.x1, s * self.x2, s * self.x3)


@dataclass(frozen=True)
class ComplexPair:
    """A vector (z, w) in C^2."""

    z: complex
    w: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.z) ** 2 + abs(self.w) ** 2)

    def scale(self, s: complex) -> "ComplexPair":
        return ComplexPair(s * self.z, s * self.w)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product, with i*j = k, j*k = i, k*i = j."""
    return Quaternion(
        a.x0 * b.x0 - a.x1 * b.x1 - a.x2 * b.x2 - a.x3 * b.x3,
        a.x0 * b.x1 + a.x1 * b.x0 + a.x2 * b.x3 - a.x3 * b.x2,
        a.x0 * b.x2 - a.x1 * b.x3 + a.x2 * b.x0 + a.x3 * b.x1,
        a.x0 * b.x3 + a.x1 * b.x2 - a.x2 * b.x1 + a.x3 * b.x0,
    )


def conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.x0, -q.x1, -q.x2, -q.x3)


def norm(q: Quaternion) -> float:
    return math.sqrt(q.x0**2 + q.x1**2 + q.x2**2 + q.x3**2)


def vector_norm(v) -> float:
    """Euclidean norm of a real vector from an exactly rounded sum of squares.

    math.fsum rounds the sum once (Shewchuk's algorithm), so the result
    depends neither on summation order nor on the BLAS kernel that
    np.linalg.norm would dispatch to, which differs between CPUs.  Pass a
    list (ndarray.tolist()) rather than an array: iterating numpy scalars
    is slower than np.linalg.norm itself.
    """
    return math.sqrt(math.fsum([x * x for x in v]))


def require_unit(q: Quaternion) -> Quaternion:
    if abs(norm(q) - 1.0) > EPS_NORM:
        raise NotUnit(f"quaternion norm {norm(q)!r} is not 1")
    return q


def to_complex_pair(q: Quaternion) -> ComplexPair:
    return ComplexPair(complex(q.x0, q.x1), complex(q.x2, q.x3))


def from_complex_pair(v: ComplexPair) -> Quaternion:
    return Quaternion(v.z.real, v.z.imag, v.w.real, v.w.imag)


def transpose(q: Quaternion) -> Quaternion:
    """Matrix transpose seen through the SU(2) identification: negate x2.

    An involution and an antihomomorphism: transpose(a*b) equals
    transpose(b)*transpose(a).
    """
    return Quaternion(q.x0, q.x1, -q.x2, q.x3)


def transpose_map(v: ComplexPair) -> ComplexPair:
    """The transpose on C^2 coordinates: (z, w) -> (z, -conj(w))."""
    return ComplexPair(v.z, -v.w.conjugate())


def embed_pure(p) -> Quaternion:
    """Embed a point (x, y, z) of R^3 as the pure quaternion xi + yj + zk."""
    x, y, z = p
    return Quaternion(0.0, float(x), float(y), float(z))


def pure_part(q: Quaternion) -> tuple[float, float, float]:
    """Extract (x1, x2, x3); rejects quaternions with a real part."""
    if abs(q.x0) > EPS_NORM:
        raise NotPure(f"scalar part {q.x0!r} exceeds tolerance {EPS_NORM}")
    return (q.x1, q.x2, q.x3)
