"""Seeded randomized verification of the package's commutation identities.

Every identity relating two evaluation routes (quaternion conjugation vs
matrix action, direct maps vs chart/stereographic pipelines, the two
rotation conventions) is a named check.  A check draws samples from a
fixed PCG64 stream, evaluates both routes, and records the worst
Euclidean deviation in the final space.  Reports are deterministic for a
given (name, samples, seed).

Samples landing within 1e-6 of a chart or stereographic pole are redrawn
(and counted): both routes are exact at the pole itself, but division
just next to it amplifies rounding into meaningless deviations.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UnknownCheck
from .hopf import bloch, hopf_classic, quat_hopf, reverse
from .quat import (
    ComplexPair,
    Quaternion,
    from_complex_pair,
    multiply,
    to_complex_pair,
    transpose,
    transpose_map,
    vector_norm,
)
from .rotations import AxisAngle, gb, matvec_as_quat, reconcile, rotate
from .sphere import (
    INFINITY,
    ExtendedComplex,
    chart,
    ext_conjugate,
    ext_mul_i,
    project,
    stereo1_inv,
    stereo3_inv,
)
from .su2 import (
    SU2Matrix,
    act_on_proj,
    act_on_vector,
    quat_from_su2,
    su2_from_quat,
    su2_multiply,
)

_POLE_GUARD = 1e-6


@dataclass(frozen=True)
class DiagramCheck:
    name: str
    samples: int
    seed: int
    tolerance: float

    def __post_init__(self):
        if self.name not in CHECK_FUNCS:
            raise UnknownCheck(self.name)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not math.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ValueError("tolerance must be finite and positive")


@dataclass(frozen=True)
class CheckReport:
    name: str
    samples: int
    max_deviation: float
    failures: int
    worst_input: str
    resampled: int

    def to_dict(self) -> dict:
        finite = math.isfinite(self.max_deviation)  # strict JSON has no NaN or Infinity
        return dict(asdict(self), max_deviation=self.max_deviation if finite else None)


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


# ---------------------------------------------------------------------------
# samplers (documented contract: normals normalized for spheres, uniform
# angles, log-uniform magnitude with uniform phase for fiber scalars)


def _unit_quat(rng) -> Quaternion:
    v = rng.standard_normal(4)
    v /= vector_norm(v.tolist())
    return Quaternion(*v.tolist())


def _unit_pair(rng) -> ComplexPair:
    q = _unit_quat(rng)
    return to_complex_pair(q)


def _s2_point(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / vector_norm(v.tolist())


def _angle(rng) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _fiber_scalar(rng) -> complex:
    mag = math.exp(float(rng.uniform(-2.0, 2.0)))
    phase = _angle(rng)
    return mag * complex(math.cos(phase), math.sin(phase))


def _nonzero_pair(rng) -> ComplexPair:
    return _unit_pair(rng).scale(_fiber_scalar(rng))


def _axis_angle(rng) -> AxisAngle:
    n = _s2_point(rng)
    return AxisAngle(_angle(rng), (float(n[0]), float(n[1]), float(n[2])))


# ---------------------------------------------------------------------------
# deviation helpers (exactly rounded, like the samplers, so that reports do
# not depend on the BLAS kernel)


def _dist3(a, b) -> float:
    return vector_norm((np.asarray(a) - np.asarray(b)).tolist())


def _dist_pair(a, b) -> float:
    """Distance in C^2 between two objects with z and w (pairs or SU(2))."""
    dz = a.z - b.z
    dw = a.w - b.w
    return vector_norm((dz.real, dz.imag, dw.real, dw.imag))


def _raw_chart(v: ComplexPair) -> ExtendedComplex:
    # template pipelines evaluate chart . project on the raw representative,
    # bypassing ProjectivePoint canonicalization, so they exercise a
    # genuinely different numeric route than the direct maps
    if v.w == 0:
        return INFINITY
    return ExtendedComplex(v.z / v.w)


# ---------------------------------------------------------------------------
# the catalog; each function draws one sample and returns (deviation,
# sample-dict), or None to request a redraw (near-pole sample); run_check
# serializes a sample only when it becomes the worst one


def _check_rephrase(rng):
    q = _unit_quat(rng)
    v = _nonzero_pair(rng)
    g = su2_from_quat(q)
    acted = act_on_vector(g, v)
    if abs(v.w) < _POLE_GUARD * v.norm() or abs(acted.w) < _POLE_GUARD * acted.norm():
        return None
    left = act_on_proj(g, project(v)).rep
    right = project(acted).rep
    return _dist_pair(left, right), dict(g=q, v=v)


def _check_quat_identification(rng):
    q = _unit_quat(rng)
    base = project(ComplexPair(1 + 0j, 0j))
    moved = act_on_proj(su2_from_quat(q), base)
    if abs(moved.rep.w) < _POLE_GUARD:
        return None
    left = stereo1_inv(ext_mul_i(chart(moved)))
    right = quat_hopf(q)
    return _dist3(left, right), dict(g=q)


def _check_template_classic(rng):
    v = _unit_pair(rng)
    if abs(v.w) < _POLE_GUARD:
        return None
    pipeline = stereo3_inv(_raw_chart(v))
    return _dist3(pipeline, hopf_classic(v)), dict(v=v)


def _check_template_quat(rng):
    q = _unit_quat(rng)
    t = transpose_map(to_complex_pair(q))
    if abs(t.w) < _POLE_GUARD:
        return None
    pipeline = stereo1_inv(ext_mul_i(_raw_chart(t)))
    return _dist3(pipeline, quat_hopf(q)), dict(g=q)


def _check_template_bloch(rng):
    v = _nonzero_pair(rng)
    if abs(v.w) < _POLE_GUARD * v.norm():
        return None
    # canonical projective route here; bloch itself divides directly,
    # so the two sides are independent computations
    pipeline = stereo3_inv(ext_conjugate(chart(project(v))))
    return _dist3(pipeline, bloch(v)), dict(v=v)


def _check_compare_bloch_quat(rng):
    s = _unit_pair(rng)
    if abs(s.w) < _POLE_GUARD:
        return None
    left = bloch(transpose_map(s))
    right = reverse(quat_hopf(from_complex_pair(s)))
    return _dist3(left, right), dict(s=s)


def _check_odot_lemma(rng):
    q = _unit_quat(rng)
    h = _nonzero_pair(rng)
    g = su2_from_quat(q)
    return _dist_pair(act_on_vector(g, h), matvec_as_quat(g, h)), dict(g=q, h=h)


def _check_reconcile(rng):
    aa = _axis_angle(rng)
    p = _s2_point(rng)
    fq = _angle(rng)
    fb = _fiber_scalar(rng)
    via_quat, via_bloch = reconcile(aa, p, fq, fb)
    direct = rotate(aa, p)
    dev = max(_dist3(via_quat, via_bloch), _dist3(via_quat, direct))
    return dev, dict(aa=aa, p=p, fiber_q=fq, fiber_b=fb)


def _check_derivation_16_18(rng):
    aa = _axis_angle(rng)
    h = _unit_pair(rng)
    g_mat = gb(aa)
    acted = act_on_vector(g_mat, h)
    if abs(h.w) < _POLE_GUARD or abs(acted.w) < _POLE_GUARD:
        return None
    g_tilde = quat_from_su2(g_mat)
    h_tilde = from_complex_pair(h)
    e1 = bloch(acted)
    e2 = bloch(to_complex_pair(multiply(h_tilde, transpose(g_tilde))))
    e3 = reverse(quat_hopf(multiply(g_tilde, transpose(h_tilde))))
    e4 = rotate(aa, bloch(h))
    dev = max(_dist3(e1, e2), _dist3(e2, e3), _dist3(e3, e4))
    return dev, dict(aa=aa, h=h)


def _check_final_diagram(rng):
    aa = _axis_angle(rng)
    p = _s2_point(rng)
    fq = _angle(rng)
    fb = _fiber_scalar(rng)
    top, bottom = reconcile(aa, p, fq, fb)
    middle = rotate(aa, p)
    dev = max(_dist3(top, middle), _dist3(bottom, middle), _dist3(top, bottom))
    return dev, dict(aa=aa, p=p, fiber_q=fq, fiber_b=fb)


def _check_iso_su2_quat(rng):
    q1 = _unit_quat(rng)
    q2 = _unit_quat(rng)
    left = su2_from_quat(multiply(q1, q2))
    right = su2_multiply(su2_from_quat(q1), su2_from_quat(q2))
    return _dist_pair(left, right), dict(q1=q1, q2=q2)


def _check_fiber_invariance(rng):
    q = _unit_quat(rng)
    t = _angle(rng)
    phase = Quaternion(math.cos(t), math.sin(t), 0.0, 0.0)
    dev_q = _dist3(quat_hopf(multiply(q, phase)), quat_hopf(q))
    v = _unit_pair(rng)
    lam = _fiber_scalar(rng)
    if abs(v.w) < _POLE_GUARD:
        return None
    dev_b = _dist3(bloch(v.scale(lam)), bloch(v))
    return max(dev_q, dev_b), dict(g=q, theta=t, v=v, scalar=lam)


CHECK_FUNCS = {
    "rephrase": _check_rephrase,
    "quat-identification": _check_quat_identification,
    "template-classic": _check_template_classic,
    "template-quat": _check_template_quat,
    "template-bloch": _check_template_bloch,
    "compare-bloch-quat": _check_compare_bloch_quat,
    "odot-lemma": _check_odot_lemma,
    "reconcile": _check_reconcile,
    "derivation-16-18": _check_derivation_16_18,
    "final-diagram": _check_final_diagram,
    "iso-su2-quat": _check_iso_su2_quat,
    "fiber-invariance": _check_fiber_invariance,
}

CATALOG = list(CHECK_FUNCS)

_MAX_REDRAWS = 1000


def run_check(check: DiagramCheck) -> CheckReport:
    """Run one named check and report the worst observed deviation."""
    fn = CHECK_FUNCS[check.name]
    rng = np.random.Generator(np.random.PCG64(check.seed))
    max_dev = 0.0
    failures = 0
    worst = ""
    resampled = 0
    for _ in range(check.samples):
        result = fn(rng)
        redraws = 0
        while result is None:
            resampled += 1
            redraws += 1
            if redraws > _MAX_REDRAWS:
                raise RuntimeError(f"check {check.name}: sampler stuck near a pole")
            result = fn(rng)
        dev, sample = result
        if not dev <= check.tolerance:  # NaN and infinity fail too
            failures += 1
        if dev >= max_dev or not math.isfinite(dev):  # and outrank every finite deviation
            max_dev = dev
            worst = json.dumps(sample, sort_keys=True, default=encode)
    return CheckReport(check.name, check.samples, max_dev, failures, worst, resampled)


def subseed(seed: int, name: str) -> int:
    """Stable per-check sub-seed: seed plus a CRC32 of the name, mod 2^64."""
    return (int(seed) + zlib.crc32(name.encode())) % (1 << 64)


def run_all(samples: int, seed: int, tolerance: float, names=CATALOG) -> list[CheckReport]:
    """Run the named checks (the full catalog by default) in order with
    per-check derived sub-seeds; every name is validated before any runs."""
    checks = [DiagramCheck(name, samples, subseed(seed, name), tolerance) for name in names]
    return [run_check(check) for check in checks]
