"""Seeded randomized verification of the package's commutation identities.

Every identity relating two evaluation routes (quaternion conjugation vs
matrix action, direct maps vs chart/stereographic pipelines, the two
rotation conventions) is a named check: its samplers, in draw order, and
a deviation that evaluates both routes on one sample and returns their
Euclidean distance in the final space.  run_check draws the samples from a
fixed PCG64 stream and records the worst deviation.  Reports are
deterministic for a given (name, samples, seed).

Samples landing within 1e-6 of a chart or stereographic pole are redrawn
(and counted): both routes are exact at the pole itself, but division
just next to it amplifies rounding into meaningless deviations.  Every
value of a sample is drawn before its deviation asks for a redraw, so a
redraw only filters the stream.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UnknownCheck
from .hopf import bloch, hopf_classic, lift_bloch, lift_quat_hopf, quat_hopf, reverse
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
from .rotations import AxisAngle, gb, gq, matvec_as_quat, reconcile, rotate, rotate_via_quat_hopf
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
        if self.name not in CHECKS:
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
# the catalog, name -> (deviation, samplers by sample name in draw order); a
# deviation takes one sample's values in that order and returns the distance
# between its routes, or None to request a redraw (near-pole sample)


def _rephrase(q, v):
    g = su2_from_quat(q)
    acted = act_on_vector(g, v)
    if abs(v.w) < _POLE_GUARD * v.norm() or abs(acted.w) < _POLE_GUARD * acted.norm():
        return None
    left = act_on_proj(g, project(v)).rep
    right = project(acted).rep
    return _dist_pair(left, right)


def _quat_identification(q):
    base = project(ComplexPair(1 + 0j, 0j))
    moved = act_on_proj(su2_from_quat(q), base)
    if abs(moved.rep.w) < _POLE_GUARD:
        return None
    left = stereo1_inv(ext_mul_i(chart(moved)))
    right = quat_hopf(q)
    return _dist3(left, right)


def _template_classic(v):
    if abs(v.w) < _POLE_GUARD:
        return None
    pipeline = stereo3_inv(_raw_chart(v))
    return _dist3(pipeline, hopf_classic(v))


def _template_quat(q):
    t = transpose_map(to_complex_pair(q))
    if abs(t.w) < _POLE_GUARD:
        return None
    pipeline = stereo1_inv(ext_mul_i(_raw_chart(t)))
    return _dist3(pipeline, quat_hopf(q))


def _template_bloch(v):
    if abs(v.w) < _POLE_GUARD * v.norm():
        return None
    # canonical projective route here; bloch itself divides directly,
    # so the two sides are independent computations
    pipeline = stereo3_inv(ext_conjugate(chart(project(v))))
    return _dist3(pipeline, bloch(v))


def _compare_bloch_quat(s):
    if abs(s.w) < _POLE_GUARD:
        return None
    left = bloch(transpose_map(s))
    right = reverse(quat_hopf(from_complex_pair(s)))
    return _dist3(left, right)


def _odot_lemma(q, h):
    g = su2_from_quat(q)
    return _dist_pair(act_on_vector(g, h), matvec_as_quat(g, h))


def _reconcile(aa, p, fq, fb):
    via_quat, via_bloch = reconcile(aa, p, fq, fb)
    direct = rotate(aa, p)
    return max(_dist3(via_quat, via_bloch), _dist3(via_quat, direct))


def _derivation_16_18(aa, h):
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
    return max(_dist3(e1, e2), _dist3(e2, e3), _dist3(e3, e4))


def _final_diagram(aa, p, fq, fb):
    # the Bloch route builds g_B from g_Q by the convention relation
    # g_B(theta, n) = g_Q(-theta, reverse n) and acts by matvec_as_quat,
    # where reconcile calls gb and act_on_vector; reversing the axis tuple
    # keeps its components Python floats
    phase = Quaternion(math.cos(fq), math.sin(fq), 0.0, 0.0)
    top = rotate_via_quat_hopf(aa, multiply(lift_quat_hopf(p), phase))
    g_b = su2_from_quat(gq(AxisAngle(-aa.theta, aa.axis[::-1])))
    bottom = bloch(matvec_as_quat(g_b, lift_bloch(p).scale(fb)))
    middle = rotate(aa, p)
    return max(_dist3(top, middle), _dist3(bottom, middle), _dist3(top, bottom))


def _iso_su2_quat(q1, q2):
    left = su2_from_quat(multiply(q1, q2))
    right = su2_multiply(su2_from_quat(q1), su2_from_quat(q2))
    return _dist_pair(left, right)


def _fiber_invariance(q, t, v, lam):
    if abs(v.w) < _POLE_GUARD:
        return None
    phase = Quaternion(math.cos(t), math.sin(t), 0.0, 0.0)
    dev_q = _dist3(quat_hopf(multiply(q, phase)), quat_hopf(q))
    dev_b = _dist3(bloch(v.scale(lam)), bloch(v))
    return max(dev_q, dev_b)


_ROTATION_DRAWS = dict(aa=_axis_angle, p=_s2_point, fiber_q=_angle, fiber_b=_fiber_scalar)

CHECKS = {
    "rephrase": (_rephrase, dict(g=_unit_quat, v=_nonzero_pair)),
    "quat-identification": (_quat_identification, dict(g=_unit_quat)),
    "template-classic": (_template_classic, dict(v=_unit_pair)),
    "template-quat": (_template_quat, dict(g=_unit_quat)),
    "template-bloch": (_template_bloch, dict(v=_nonzero_pair)),
    "compare-bloch-quat": (_compare_bloch_quat, dict(s=_unit_pair)),
    "odot-lemma": (_odot_lemma, dict(g=_unit_quat, h=_nonzero_pair)),
    "reconcile": (_reconcile, _ROTATION_DRAWS),
    "derivation-16-18": (_derivation_16_18, dict(aa=_axis_angle, h=_unit_pair)),
    "final-diagram": (_final_diagram, _ROTATION_DRAWS),
    "iso-su2-quat": (_iso_su2_quat, dict(q1=_unit_quat, q2=_unit_quat)),
    "fiber-invariance": (
        _fiber_invariance,
        dict(g=_unit_quat, theta=_angle, v=_unit_pair, scalar=_fiber_scalar),
    ),
}

CATALOG = list(CHECKS)

_MAX_REDRAWS = 1000


def run_check(check: DiagramCheck) -> CheckReport:
    """Run one named check and report the worst observed deviation."""
    deviation, draws = CHECKS[check.name]
    rng = np.random.Generator(np.random.PCG64(check.seed))
    max_dev = 0.0
    failures = 0
    worst = ""
    resampled = 0
    for _ in range(check.samples):
        for redraws in range(_MAX_REDRAWS + 1):
            sample = {name: draw(rng) for name, draw in draws.items()}
            dev = deviation(*sample.values())
            if dev is not None:
                break
        else:
            raise RuntimeError(f"check {check.name}: sampler stuck near a pole")
        resampled += redraws
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
