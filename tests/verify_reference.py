"""The verify harness one sample at a time: the reference for run_check.

The scalar samplers draw each value of a sample from the PCG64 stream with
its own numpy calls, and run_check evaluates the scalar form of each
deviation on every sample, in stream order.  This is the v1 stream by
definition; hopfrot.verify draws and evaluates whole blocks of it and must
give the same reports, byte for byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from hopfrot import verify
from hopfrot.quat import Quaternion, to_complex_pair, vector_norm
from hopfrot.rotations import AxisAngle
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


def run_check(check: DiagramCheck) -> CheckReport:
    """run_check's report, drawing and evaluating one sample at a time."""
    forms, draws = verify.CHECKS[check.name]
    deviation = forms.scalar
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
