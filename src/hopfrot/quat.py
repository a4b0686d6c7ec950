"""Quaternion arithmetic and its identifications with R^4, C^2 and SU(2).

Quaternions are stored scalar-first as (x0, x1, x2, x3), i.e.
x0 + x1*i + x2*j + x3*k.  The complex-pair identification used throughout
is (x0 + i*x1, x2 + i*x3), so a quaternion q corresponds to z + w*j with
z, w complex.  No operation renormalizes its result; callers that need a
unit value must normalize explicitly.

The formulas run unchanged on Python numbers and on float64 columns (one
row per input), so that a batch of inputs gives the bits the scalar calls
give.  On columns they use only operations that numpy rounds as CPython
does (real + - * / and sqrt): complex values are ComplexColumn, whose
arithmetic is CPython's on real columns, and libm's functions go through
`each`, one element at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPure, NotUnit

EPS_NORM = 1e-9

_COLUMN = np.ndarray

# vector_norm's scale factors: powers of two, so that scaling is exact
_HUGE = 2.0**600
_TINY = 2.0**-600


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


@dataclass(frozen=True)
class ComplexPair:
    """A vector (z, w) in C^2."""

    z: complex
    w: complex

    def norm(self) -> float:
        return each(_pair_norm, self.z, self.w)

    def scale(self, s: complex) -> "ComplexPair":
        return ComplexPair(s * self.z, s * self.w)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def each(f, *args):
    """f(*args) on numbers; on columns (float64 or ComplexColumn), f
    element by element, on Python floats or complex numbers.

    libm's functions and the fsum norm go through here: numpy's own
    versions round differently from libm's on some CPUs.
    """
    kind = type(args[0])
    if kind is _COLUMN or kind is ComplexColumn:
        return np.array(list(map(f, *(a.tolist() for a in args))), dtype=np.float64)
    return f(*args)


def where(cond, a, b):
    """a if cond else b; a bool column picks complex columns row by row."""
    if type(cond) is not _COLUMN:
        return a if cond else b
    return ComplexColumn(np.where(cond, a.real, b.real), np.where(cond, a.imag, b.imag))


def cmul(a, b):
    """Product of complex numbers given as (re, im), rounded as CPython's
    complex multiplication (a real operand is (x, 0.0))."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(a, b):
    """Quotient of complex columns given as (re, im), rounded as CPython's
    complex division: Smith's method, scaling by the larger part of b.
    Rows where b = 0 give NaN."""
    (ar, ai), (br, bi) = a, b
    swap = abs(bi) > abs(br)
    p, s = np.where(swap, bi, br), np.where(swap, br, bi)
    x, y = np.where(swap, ai, ar), np.where(swap, ar, ai)
    ratio = s / p
    denom = p + s * ratio
    t = x * ratio
    return (x + y * ratio) / denom, np.where(swap, t - y, y - t) / denom


class ComplexColumn:
    """A column of complex numbers, held as float64 columns of real and
    imaginary parts.

    It has the operators `+`, `-` (binary and unary), `*` and `/` with the
    column on the left, `*` with a number on the left too, abs() and
    conjugate().  They round as CPython's complex type does, row by row (a
    real operand is promoted to (x, 0.0), as CPython 3.11 promotes it), and
    abs() is libm's hypot, element by element.  So a formula written for
    Python complex numbers with these operators runs on it with the same
    bits; `2.0 + col`, `2.0 - col` and `2.0 / col` raise TypeError.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # numpy defers to these operators

    def __init__(self, real, imag):
        self.real, self.imag = np.broadcast_arrays(real, imag)

    @staticmethod
    def _parts(x):
        if isinstance(x, (ComplexColumn, complex)):
            return x.real, x.imag
        return x, 0.0

    def __add__(self, other):
        re, im = self._parts(other)
        return ComplexColumn(self.real + re, self.imag + im)

    def __sub__(self, other):
        re, im = self._parts(other)
        return ComplexColumn(self.real - re, self.imag - im)

    def __neg__(self):
        return ComplexColumn(-self.real, -self.imag)

    def __mul__(self, other):
        return ComplexColumn(*cmul((self.real, self.imag), self._parts(other)))

    __rmul__ = __mul__  # IEEE multiplication and addition commute, so cmul does

    def __truediv__(self, other):
        return ComplexColumn(*_cdiv((self.real, self.imag), self._parts(other)))

    def __abs__(self):
        return each(abs, self)

    def tolist(self) -> list[complex]:
        return list(map(complex, self.real.tolist(), self.imag.tolist()))

    def conjugate(self):
        return ComplexColumn(self.real, -self.imag)


def pair_of_columns(zr, zi, wr, wi) -> ComplexPair:
    return ComplexPair(ComplexColumn(zr, zi), ComplexColumn(wr, wi))


def _pair_norm(z: complex, w: complex) -> float:
    try:
        return math.sqrt(abs(z) ** 2 + abs(w) ** 2)
    except OverflowError:  # |z|, |w| or a square beyond the float range
        return math.inf


def multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product, with i*j = k, j*k = i, k*i = j; the components
    may be floats or columns."""
    return Quaternion(
        a.x0 * b.x0 - a.x1 * b.x1 - a.x2 * b.x2 - a.x3 * b.x3,
        a.x0 * b.x1 + a.x1 * b.x0 + a.x2 * b.x3 - a.x3 * b.x2,
        a.x0 * b.x2 - a.x1 * b.x3 + a.x2 * b.x0 + a.x3 * b.x1,
        a.x0 * b.x3 + a.x1 * b.x2 - a.x2 * b.x1 + a.x3 * b.x0,
    )


def conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.x0, -q.x1, -q.x2, -q.x3)


def norm(q: Quaternion) -> float:
    return vector_norm((q.x0, q.x1, q.x2, q.x3))


def vector_norm(v) -> float:
    """Euclidean norm of a real vector from an exactly rounded sum of squares.

    math.fsum rounds the sum once (Shewchuk's algorithm), so the result
    depends neither on summation order nor on the BLAS kernel that
    np.linalg.norm would dispatch to, which differs between CPUs.  Where
    the squares overflow, or all underflow, the vector is first scaled by
    a power of two, which is exact.  Pass a list or tuple (ndarray.tolist())
    rather than an array: iterating numpy scalars is slower than
    np.linalg.norm itself.
    """
    try:
        s = math.fsum([x * x for x in v])
    except OverflowError:  # finite squares whose sum overflows
        s = math.inf
    if s == math.inf and all(map(math.isfinite, v)):
        scale = _TINY
    elif s == 0.0 and any(v):
        scale = _HUGE
    else:
        return math.sqrt(s)
    return math.sqrt(math.fsum([y * y for y in [x * scale for x in v]])) / scale


def require_unit(q: Quaternion) -> Quaternion:
    n = norm(q)
    if not abs(n - 1.0) <= EPS_NORM:
        raise NotUnit(f"quaternion norm {n!r} is not 1")
    return q


def to_complex_pair(q: Quaternion) -> ComplexPair:
    """(x0 + i x1, x2 + i x3); on columns, a pair of complex columns."""
    if type(q.x0) is _COLUMN:
        return pair_of_columns(q.x0, q.x1, q.x2, q.x3)
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
    if not abs(q.x0) <= EPS_NORM:
        raise NotPure(f"scalar part {q.x0!r} exceeds tolerance {EPS_NORM}")
    return (q.x1, q.x2, q.x3)
