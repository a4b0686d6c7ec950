"""Independent reference implementations used only by tests.

These deliberately avoid the library's code paths: rotation is the
Rodrigues vector formula or scipy's Rotation, and quaternion structure is
cross-checked via plain dot/cross products.
"""

import numpy as np
from scipy.spatial.transform import Rotation


def rodrigues(theta: float, axis, p) -> np.ndarray:
    """Rotate p by theta radians about the unit axis: the vector formula
    p cos(t) + (n x p) sin(t) + n (n . p) (1 - cos(t))."""
    n = np.asarray(axis, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    c, s = np.cos(theta), np.sin(theta)
    return p * c + np.cross(n, p) * s + n * np.dot(n, p) * (1.0 - c)


def scipy_rotvec(theta: float, axis, p) -> np.ndarray:
    """Rotate p by theta radians about the unit axis with scipy's
    rotation-vector form."""
    return Rotation.from_rotvec(theta * np.asarray(axis, dtype=np.float64)).apply(p)


def scipy_quat(q, p) -> np.ndarray:
    """Rotate p by the unit quaternion q, given scalar-first, with scipy."""
    return Rotation.from_quat(q, scalar_first=True).apply(p)


def pure_product(u, v) -> tuple[float, np.ndarray]:
    """Product of two pure quaternions as (scalar, vector) = (-u.v, u x v)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return -float(np.dot(u, v)), np.cross(u, v)
