"""SU(2) in the special form [[z, w], [-conj(w), conj(z)]] and its actions.

Only (z, w) is stored; the full 2x2 layout is implicit.  Products are not
renormalized, so unitarity drift is visible to the caller.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .quat import ComplexPair, Quaternion, require_unit
from .sphere import ProjectivePoint, project


@dataclass(frozen=True, slots=True)
class SU2Matrix:
    z: complex
    w: complex

    def __init__(self, z, w):
        _z(self, z)
        _w(self, w)


_z, _w = SU2Matrix.z.__set__, SU2Matrix.w.__set__
IDENTITY = SU2Matrix(1 + 0j, 0j)


def su2_from_quat(q: Quaternion) -> SU2Matrix:
    """The isomorphism z + w*j -> [[z, w], [-conj(w), conj(z)]]."""
    require_unit(q)
    return SU2Matrix(complex(q.x0, q.x1), complex(q.x2, q.x3))


def quat_from_su2(m: SU2Matrix) -> Quaternion:
    return Quaternion(m.z.real, m.z.imag, m.w.real, m.w.imag)


def su2_multiply(a: SU2Matrix, b: SU2Matrix) -> SU2Matrix:
    return SU2Matrix(
        a.z * b.z - a.w * b.w.conjugate(),
        a.z * b.w + a.w * b.z.conjugate(),
    )


def act_on_vector(g: SU2Matrix, v: ComplexPair) -> ComplexPair:
    """Matrix-times-vector action of SU(2) on C^2 (norm preserving); v
    may be a pair of complex columns."""
    return ComplexPair(
        g.z * v.z + g.w * v.w,
        -g.w.conjugate() * v.z + g.z.conjugate() * v.w,
    )


def act_on_sphere_point(g: SU2Matrix) -> ComplexPair:
    """Identify g with the S^3 point g(1,0) = (z, -conj(w))."""
    return ComplexPair(g.z, -g.w.conjugate())


def act_on_proj(g: SU2Matrix, p: ProjectivePoint) -> ProjectivePoint:
    """Action on P^1, well defined on equivalence classes."""
    return project(act_on_vector(g, p.rep))


def torus(theta: float) -> SU2Matrix:
    """The diagonal subgroup element diag(e^{i theta}, e^{-i theta})."""
    return SU2Matrix(cmath.exp(1j * theta), 0j)
