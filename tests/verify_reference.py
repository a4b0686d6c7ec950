"""The verify harness one sample at a time: the reference for run_check.

DEVIATIONS holds the definition of each catalog check: its deviation,
which evaluates both routes on one sample and returns their Euclidean
distance in the final space, or None to redraw a sample near a pole.  The
scalar samplers draw each value of a sample from the PCG64 stream with
its own numpy calls, and run_check evaluates the deviation on every
sample, in stream order.  This is the v1 stream by definition;
hopfrot.verify draws and evaluates whole blocks of it with each check's
column form and must give the same reports, byte for byte.

The deviations read hopfrot.verify's pole guard when they run, so a test
that widens the guard widens it for both runners.
"""

from __future__ import annotations

import json
import math

import numpy as np

from hopfrot import verify
from hopfrot.hopf import bloch, hopf_classic, lift_bloch, lift_quat_hopf, quat_hopf, reverse
from hopfrot.quat import (
    ComplexPair,
    Quaternion,
    from_complex_pair,
    multiply,
    to_complex_pair,
    transpose,
    transpose_map,
    vector_norm,
)
from hopfrot.rotations import AxisAngle, gb, gq, matvec_as_quat, reconcile, rotate, rotate_via_quat_hopf
from hopfrot.sphere import (
    INFINITY,
    ExtendedComplex,
    chart,
    ext_conjugate,
    ext_mul_i,
    project,
    stereo1_inv,
    stereo3_inv,
)
from hopfrot.su2 import act_on_proj, act_on_vector, quat_from_su2, su2_from_quat, su2_multiply
from hopfrot.verify import CheckReport, DiagramCheck, encode


def unit_quat(rng) -> Quaternion:
    v = rng.standard_normal(4)
    v /= vector_norm(v.tolist())
    return Quaternion(*v.tolist())


def unit_pair(rng):
    return to_complex_pair(unit_quat(rng))


def s2_point(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / vector_norm(v.tolist())


def angle(rng) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def fiber_scalar(rng) -> complex:
    mag = math.exp(float(rng.uniform(-2.0, 2.0)))
    phase = angle(rng)
    return mag * complex(math.cos(phase), math.sin(phase))


def nonzero_pair(rng):
    return unit_pair(rng).scale(fiber_scalar(rng))


def axis_angle(rng) -> AxisAngle:
    n = s2_point(rng)
    return AxisAngle(angle(rng), (float(n[0]), float(n[1]), float(n[2])))


# the scalar sampler of each of hopfrot.verify's samplers
SAMPLERS = {
    verify._UNIT_QUAT: unit_quat,
    verify._UNIT_PAIR: unit_pair,
    verify._S2_POINT: s2_point,
    verify._ANGLE: angle,
    verify._FIBER_SCALAR: fiber_scalar,
    verify._NONZERO_PAIR: nonzero_pair,
    verify._AXIS_ANGLE: axis_angle,
}


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


def _rephrase(q, v):
    g = su2_from_quat(q)
    acted = act_on_vector(g, v)
    if abs(v.w) < verify._POLE_GUARD * v.norm() or abs(acted.w) < verify._POLE_GUARD * acted.norm():
        return None
    left = act_on_proj(g, project(v)).rep
    right = project(acted).rep
    return _dist_pair(left, right)


def _quat_identification(q):
    base = project(ComplexPair(1 + 0j, 0j))
    moved = act_on_proj(su2_from_quat(q), base)
    if abs(moved.rep.w) < verify._POLE_GUARD:
        return None
    left = stereo1_inv(ext_mul_i(chart(moved)))
    right = quat_hopf(q)
    return _dist3(left, right)


def _template_classic(v):
    if abs(v.w) < verify._POLE_GUARD:
        return None
    pipeline = stereo3_inv(_raw_chart(v))
    return _dist3(pipeline, hopf_classic(v))


def _template_quat(q):
    t = transpose_map(to_complex_pair(q))
    if abs(t.w) < verify._POLE_GUARD:
        return None
    pipeline = stereo1_inv(ext_mul_i(_raw_chart(t)))
    return _dist3(pipeline, quat_hopf(q))


def _template_bloch(v):
    if abs(v.w) < verify._POLE_GUARD * v.norm():
        return None
    # canonical projective route here; bloch itself divides directly,
    # so the two sides are independent computations
    pipeline = stereo3_inv(ext_conjugate(chart(project(v))))
    return _dist3(pipeline, bloch(v))


def _compare_bloch_quat(s):
    if abs(s.w) < verify._POLE_GUARD:
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
    if abs(h.w) < verify._POLE_GUARD or abs(acted.w) < verify._POLE_GUARD:
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
    if abs(v.w) < verify._POLE_GUARD:
        return None
    phase = Quaternion(math.cos(t), math.sin(t), 0.0, 0.0)
    dev_q = _dist3(quat_hopf(multiply(q, phase)), quat_hopf(q))
    dev_b = _dist3(bloch(v.scale(lam)), bloch(v))
    return max(dev_q, dev_b)


# name -> deviation; a deviation takes one sample's values in the draw order
# of hopfrot.verify.CHECKS and returns the distance between the check's
# routes, or None to request a redraw (near-pole sample)
DEVIATIONS = {
    "rephrase": _rephrase,
    "quat-identification": _quat_identification,
    "template-classic": _template_classic,
    "template-quat": _template_quat,
    "template-bloch": _template_bloch,
    "compare-bloch-quat": _compare_bloch_quat,
    "odot-lemma": _odot_lemma,
    "reconcile": _reconcile,
    "derivation-16-18": _derivation_16_18,
    "final-diagram": _final_diagram,
    "iso-su2-quat": _iso_su2_quat,
    "fiber-invariance": _fiber_invariance,
}


def run_check(check: DiagramCheck) -> CheckReport:
    """run_check's report, drawing and evaluating one sample at a time."""
    _, draws = verify.CHECKS[check.name]
    deviation = DEVIATIONS[check.name]
    draws = {name: SAMPLERS[s] for name, s in draws.items()}
    rng = np.random.Generator(np.random.PCG64(check.seed))
    max_dev = 0.0
    failures = 0
    worst = ""
    resampled = 0
    for _ in range(check.samples):
        for redraws in range(verify._MAX_REDRAWS + 1):
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
