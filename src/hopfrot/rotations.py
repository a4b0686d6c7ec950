"""Axis-angle rotations of R^3 through both unitary conventions.

The quaternion form g_Q(theta, n) = cos(theta/2) + sin(theta/2)(n1 i +
n2 j + n3 k) rotates by conjugation; the Bloch form g_B acts on C^2
states and projects through the Bloch map.  The two are tied together by
g_B(theta, n) = g_Q(-theta, reverse(n)) under the SU(2) identification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVector
from .hopf import bloch, conjugate_action, fiber_points, quat_hopf
from .quat import (
    EPS_NORM,
    ComplexPair,
    Quaternion,
    complex_of,
    each,
    from_complex_pair,
    multiply,
    require_finite,
    require_unit,
    to_complex_pair,
    transpose,
    unit_norm,
    vector_norm,
)
from .sphere import require_sphere
from .su2 import SU2Matrix, act_on_vector, quat_from_su2


@dataclass(frozen=True)
class AxisAngle:
    """A rotation by `theta` radians about the unit axis (n1, n2, n3)."""

    theta: float
    axis: tuple[float, float, float]

    def __post_init__(self):
        require_finite(self.theta, "angle")
        unit_norm(vector_norm(self.axis), "axis")


def axis_angle(theta: float, axis) -> AxisAngle:
    x, y, z = (float(c) for c in axis)
    return AxisAngle(float(theta), (x, y, z))


def gq(aa: AxisAngle) -> Quaternion:
    """The quaternion form of the rotation (mathematician's convention).
    Like gb, it also takes a column of angles with a (3, N) array of axes,
    and gives each row's bits."""
    c, s = each(math.cos, aa.theta / 2.0), each(math.sin, aa.theta / 2.0)
    n1, n2, n3 = aa.axis
    return Quaternion(c, s * n1, s * n2, s * n3)


def gb(aa: AxisAngle) -> SU2Matrix:
    """The Bloch-convention SU(2) matrix of the rotation."""
    c, s = each(math.cos, aa.theta / 2.0), each(math.sin, aa.theta / 2.0)
    n1, n2, n3 = aa.axis
    return SU2Matrix(complex_of(c, -n3 * s), s * complex_of(-n2, -n1))


def rotate(aa: AxisAngle, p) -> np.ndarray:
    """Rotate a point of R^3 by theta radians about the axis."""
    return conjugate_action(gq(aa), p)


def rotate_via_quat_hopf(aa: AxisAngle, hq: Quaternion) -> np.ndarray:
    """Rotate through the quaternion Hopf map: QuatHopf(g_Q h_Q).

    hq may be any unit preimage of the point being rotated; the fiber
    phase cancels.
    """
    require_unit(hq)
    return quat_hopf(multiply(gq(aa), hq))


def rotate_via_bloch(aa: AxisAngle, hb: ComplexPair) -> np.ndarray:
    """Rotate through the Bloch map: Bloch(g_B (.) h_B).

    hb may be any nonzero preimage; Bloch's scale invariance cancels it.
    """
    return bloch(act_on_vector(gb(aa), hb))


def matvec_as_quat(g: SU2Matrix, h: ComplexPair) -> ComplexPair:
    """The matrix-vector product g (.) h written as the quaternion product
    h~ * g^T; equal in exact arithmetic to act_on_vector(g, h), but rounded differently."""
    prod = multiply(from_complex_pair(h), transpose(quat_from_su2(g)))
    return to_complex_pair(prod)


def reconcile(aa: AxisAngle, p, fiber_q: float, fiber_b: complex) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the same rotation of p through both conventions.

    The quaternion side uses preimage lift_quat_hopf(p) * e^{i fiber_q};
    the Bloch side uses fiber_b * lift_bloch(p).  Both results equal
    rotate(aa, p) regardless of the fiber choices.
    """
    if fiber_b == 0:
        raise ZeroVector("Bloch fiber scalar must be nonzero")
    require_finite(fiber_q, "fiber angle")
    hq, hb = fiber_points(require_sphere(p), fiber_q, complex(fiber_b))
    return rotate_via_quat_hopf(aa, hq), rotate_via_bloch(aa, hb)


def to_axis_angle(q: Quaternion) -> AxisAngle:
    """Axis-angle of a unit quaternion; axis (0,0,1) for the identity."""
    require_unit(q)
    s = vector_norm((q.x1, q.x2, q.x3))
    if s <= EPS_NORM:
        return AxisAngle(0.0 if q.x0 > 0 else 2.0 * math.pi, (0.0, 0.0, 1.0))
    theta = 2.0 * math.atan2(s, q.x0)
    return AxisAngle(theta, (q.x1 / s, q.x2 / s, q.x3 / s))


def encode(x):
    """JSON form of the package's values; pass as json.dump(s)(default=encode)."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Quaternion):
        return [x.x0, x.x1, x.x2, x.x3]
    if isinstance(x, (ComplexPair, SU2Matrix)):
        return {"z": [x.z.real, x.z.imag], "w": [x.w.real, x.w.imag]}
    if isinstance(x, AxisAngle):
        return {"theta": x.theta, "axis": list(x.axis)}
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"{type(x).__name__} is not JSON serializable")
