"""Quaternion arithmetic and its identifications with R^4, C^2 and SU(2).

Quaternions are stored scalar-first as (x0, x1, x2, x3), i.e.
x0 + x1*i + x2*j + x3*k.  The complex-pair identification used throughout
is (x0 + i*x1, x2 + i*x3), so a quaternion q corresponds to z + w*j with
z, w complex.  No operation renormalizes its result; callers that need a
unit value must normalize explicitly.

The formulas run unchanged on Python numbers and on float64 columns (one
row per input), so that a batch of inputs gives the bits the scalar calls
give.  On columns they use only operations that numpy rounds as CPython
does (real + - * /, sqrt and hypot): complex values are ComplexColumn,
whose arithmetic is CPython's on real columns, and libm's other functions
go through `each`, one element at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPure, NotUnit

EPS_NORM = 1e-9

_COLUMN = np.ndarray

# vector_norm's scale factors: powers of two, so that scaling is exact
_HUGE = 2.0**600
_TINY = 2.0**-600
# the column form's range of nonzero components, and the unit roundoff
_BIG = 2.0**500
_SMALL = 2.0**-450
_U = 2.0**-53


@dataclass(frozen=True, slots=True)
class Quaternion:
    x0: float
    x1: float
    x2: float
    x3: float

    def __init__(self, x0, x1, x2, x3):  # each field via its slot, past the frozen __setattr__
        _x0(self, x0)
        _x1(self, x1)
        _x2(self, x2)
        _x3(self, x3)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return multiply(self, other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)


@dataclass(frozen=True, slots=True)
class ComplexPair:
    """A vector (z, w) in C^2."""

    z: complex
    w: complex

    def __init__(self, z, w):
        _z(self, z)
        _w(self, w)

    def norm(self) -> float:
        """|(z, w)| = |z + w j|: vector_norm of the four real parts, on
        numbers and on complex columns alike."""
        return vector_norm((self.z.real, self.z.imag, self.w.real, self.w.imag))

    def scale(self, s: complex) -> "ComplexPair":
        return ComplexPair(s * self.z, s * self.w)


_x0, _x1, _x2, _x3 = (getattr(Quaternion, f).__set__ for f in Quaternion.__slots__)
_z, _w = ComplexPair.z.__set__, ComplexPair.w.__set__
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def each(f, *args):
    """f(*args) on numbers; on float64 columns, f element by element, on
    Python floats.

    libm's functions go through here: numpy's own versions round
    differently from libm's on some CPUs.  Not hypot: numpy's calls the C
    library's, as abs(complex) does (2M seeded rows under glibc: 0 differ,
    6,335 from math.hypot).
    """
    if type(args[0]) is _COLUMN:
        return np.fromiter(map(f, *(a.tolist() for a in args)), np.float64, len(args[0]))
    return f(*args)


def where(cond, a, b):
    """a if cond else b; a bool column picks real or complex columns row by row."""
    if type(cond) is not _COLUMN:
        return a if cond else b
    if type(a) is not ComplexColumn and type(b) is not ComplexColumn:
        return np.where(cond, a, b)
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
    abs() is np.hypot, the C library's hypot that abs(complex) calls (inf
    where that raises OverflowError).  So a formula written for Python
    complex numbers with these operators runs on it with the same bits;
    `2.0 + col`, `2.0 - col` and `2.0 / col` raise TypeError.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # numpy defers to these operators

    def __init__(self, real, imag):
        if type(real) is not _COLUMN or type(imag) is not _COLUMN or real.shape != imag.shape:
            real, imag = np.broadcast_arrays(real, imag)  # which returns such columns as they are
        self.real, self.imag = real, imag

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
        with np.errstate(over="ignore"):  # inf where abs(complex) raises OverflowError
            return np.hypot(self.real, self.imag)

    def conjugate(self):
        return ComplexColumn(self.real, -self.imag)


def complex_of(re, im):
    """complex(re, im) on numbers; a ComplexColumn where a part is a column."""
    if type(re) is _COLUMN or type(im) is _COLUMN:
        return ComplexColumn(re, im)
    return complex(re, im)


def magnitude(z):
    """abs(z), but NaN where CPython 3.11's abs(complex) raises on a stale errno."""
    try:
        return abs(z)
    except OverflowError:
        if z != z:  # a NaN part and no infinite one, after an earlier overflow
            return math.nan
        raise


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


def vector_norm(v):
    """Euclidean norm of a real vector from an exactly rounded sum of squares.

    math.fsum rounds the sum once (Shewchuk's algorithm), so the result
    depends neither on summation order nor on the BLAS kernel that
    np.linalg.norm would dispatch to, which differs between CPUs.  Where
    the squares overflow, or all underflow, the vector is first scaled by
    a power of two, which is exact.  Pass a list or tuple (ndarray.tolist())
    rather than an array: iterating numpy scalars is slower than
    np.linalg.norm itself.

    On a sequence of float64 columns, the column of the norms of its rows,
    each with the bits of that row's norm, computed on whole columns with
    real + - * /, comparisons and sqrt, which IEEE 754 rounds correctly on
    every platform, and a float's neighbours read off its bits.  Each row's
    squares x*x are rounded as above; two passes of the TwoSum cascade
    (VecSum, Ogita, Rump and Oishi, "Accurate sum and dot product", 2005)
    turn them into a leading term L and residuals r, with L + sum(r) the
    exact sum S of the squares.  The residuals are summed left to right
    into R; each of those k - 1 additions errs by at most half a unit in
    the last place of its result, at most u = 2^-53 times it, so
    |S - (L + R)| <= B = 2^(k-2) u max|partial sum| for k >= 2 residuals
    (k - 1 <= 2^(k-2), and a power of two keeps B exact).  One last
    TwoSum gives t = fl(L + R) and the exact e = L + R - t.  The row is
    accepted, and its sum of squares is t, in one of two ways:

    - exact: at most one residual is nonzero, so R is exact, S = L + R,
      and t is S rounded once, ties to even, as fsum rounds it;
    - bounded: -h_down < e - B and e + B < h_up, where h_up and h_down
      are half the spacing of the floats above and below t (h_down is
      h_up / 2 when t is a power of two).  Then S = t + e + (S - L - R)
      lies strictly between the midpoints around t and rounds to t.
      Rounding is monotone and h_up, h_down are floats, so the tests on
      the rounded e + B and e - B imply them on the exact ones.

    TwoSum is error-free, and the steps above are exact or err as
    stated, because a row reaches them only when each component is 0 or
    has magnitude in [2^-450, 2^500]: its squares are then at most 2^1000,
    so no sum overflows, and multiples of 2^-952, so every nonzero sum,
    residual and u * (partial sum) is at least 2^-1005, a normal float.
    Rows with a component outside that range or not finite, and rows
    that pass neither test, go to the per-row norm (math.fsum above).
    """
    if type(v[0]) is not _COLUMN:
        return _norm(v)
    with np.errstate(all="ignore"):  # rows with huge or non-finite components go to _norm
        p = [c * c for c in v]
        for _ in range(2):
            for i in range(1, len(p)):
                p[i], p[i - 1] = _two_sum(p[i], p[i - 1])
        lead, r = p[-1], p[:-1]
        R, big, nonzero = r[0], 0.0, (r[0] != 0.0).view(np.int8)
        for x in r[1:]:
            R = R + x
            big = np.maximum(big, abs(R))
            nonzero = nonzero + (x != 0.0)  # int8 + bool adds; bool + bool would be or
        t, e = _two_sum(lead, R)
        bound = 2.0 ** (len(r) - 2) * _U * big
        # t's neighbours by its bits: nextafter's wherever the test can pass
        bits = t.view(np.int64)
        h_up = ((bits + 1).view(np.float64) - t) * 0.5
        h_down = (t - (bits - 1).view(np.float64)) * 0.5
        proved = (nonzero <= 1) | ((e + bound < h_up) & (e - bound > -h_down))
        a = np.abs(v)
        proved &= ((a <= _BIG) & ((a >= _SMALL) | (a == 0.0))).all(axis=0)
        n = np.sqrt(t)
    rest = ~proved
    if rest.any():
        n[rest] = list(map(_norm, zip(*(c[rest].tolist() for c in v))))
    return n


def _two_sum(a, b):
    """fl(a + b) and its exact error a + b - fl(a + b) (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _norm(v) -> float:
    try:
        s = math.fsum(map(operator.mul, v, v))
    except OverflowError:  # finite squares whose sum overflows
        s = math.inf
    if s == math.inf and all(map(math.isfinite, v)):
        scale = _TINY
    elif s == 0.0 and any(v):
        scale = _HUGE
    else:
        return math.sqrt(s)
    return math.sqrt(math.fsum([y * y for y in [x * scale for x in v]])) / scale


def unit_norm(n, what: str):
    """n if it is within EPS_NORM of 1, else NotUnit naming `what`; on a column, NaN off 1."""
    if type(n) is _COLUMN:
        return np.where(abs(n - 1.0) <= EPS_NORM, n, np.nan)
    if not abs(n - 1.0) <= EPS_NORM:
        raise NotUnit(f"{what} norm {n!r} is not 1")
    return n


def require_finite(t, what: str):
    """t if it is finite, else DomainError naming `what`; on a column, NaN where not finite."""
    if type(t) is _COLUMN:
        return np.where(np.isfinite(t), t, np.nan)
    if not math.isfinite(t):
        raise DomainError(f"{what} {t!r} is not finite")
    return t


def require_index(x, rule: str) -> int:
    """x as a Python int, if operator.index takes it and it is no bool; else ValueError."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ValueError(f"{rule}, not {x!r}")
    return operator.index(x)


def require_unit(q: Quaternion) -> Quaternion:
    unit_norm(vector_norm((q.x0, q.x1, q.x2, q.x3)), "quaternion")
    return q


def to_complex_pair(q: Quaternion) -> ComplexPair:
    """(x0 + i x1, x2 + i x3); on columns, a pair of complex columns."""
    return ComplexPair(complex_of(q.x0, q.x1), complex_of(q.x2, q.x3))


def from_complex_pair(v: ComplexPair) -> Quaternion:
    return Quaternion(v.z.real, v.z.imag, v.w.real, v.w.imag)


def phase(t) -> Quaternion:
    """The unit quaternion cos t + i sin t, the fiber phase e^{it}."""
    return Quaternion(each(math.cos, t), each(math.sin, t), 0.0, 0.0)


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
