"""Hopf fibrations, quaternion and Bloch rotation conventions, and a
seeded randomized harness checking every identity that ties them together.
"""

import importlib.util as _util
import sys as _sys

from .errors import DomainError, NotPure, NotUnit, UnknownCheck, ZeroVector
from .hopf import (
    HopfVariant,
    bloch,
    conjugate_action,
    fiber_sample,
    hopf_classic,
    lift_bloch,
    lift_classic,
    lift_quat_hopf,
    quat_hopf,
    reverse,
)
from .quat import (
    ComplexPair,
    Quaternion,
    conjugate,
    embed_pure,
    from_complex_pair,
    multiply,
    norm,
    pure_part,
    to_complex_pair,
    transpose,
    transpose_map,
)
from .rotations import (
    AxisAngle,
    axis_angle,
    gb,
    gq,
    matvec_as_quat,
    reconcile,
    rotate,
    rotate_via_bloch,
    rotate_via_quat_hopf,
    to_axis_angle,
)
from .sphere import (
    INFINITY,
    ExtendedComplex,
    ProjectivePoint,
    chart,
    ext_conjugate,
    ext_mul_i,
    finite,
    proj_eq,
    project,
    stereo1,
    stereo1_inv,
    stereo3,
    stereo3_inv,
)
from .su2 import (
    SU2Matrix,
    act_on_proj,
    act_on_sphere_point,
    act_on_vector,
    quat_from_su2,
    su2_from_quat,
    su2_multiply,
    torus,
)
_spec = _util.find_spec(".verify", __name__)
verify = _sys.modules[_spec.name] = _util.module_from_spec(_spec)  # compiled and run on first use
_util.LazyLoader(_spec.loader).exec_module(verify)
_VERIFY = ("CATALOG", "CheckReport", "DiagramCheck", "run_all", "run_check")


def __getattr__(name: str):
    if name in _VERIFY:
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_VERIFY])


__version__ = "0.1.0"
__all__ = [name for name in globals() if not name.startswith("_")] + list(_VERIFY)
