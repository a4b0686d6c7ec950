"""Hopf fibrations, quaternion and Bloch rotation conventions, and a
seeded randomized harness checking every identity that ties them together.
"""

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
from .verify import CATALOG, CheckReport, DiagramCheck, run_all, run_check

__version__ = "0.1.0"
