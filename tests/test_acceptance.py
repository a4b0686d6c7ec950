"""Acceptance suite.

Each test is one acceptance criterion run at its stated tolerance and
sample count, printing a single PASS line when it holds.  Run with
`pytest tests/test_acceptance.py -s` to see the lines.
"""

import cmath
import math

import numpy as np

from hopfrot import (
    ComplexPair,
    Quaternion,
    act_on_vector,
    axis_angle,
    bloch,
    from_complex_pair,
    gb,
    gq,
    matvec_as_quat,
    multiply,
    quat_hopf,
    reconcile,
    reverse,
    rotate,
    run_all,
    stereo1,
    stereo1_inv,
    stereo3,
    stereo3_inv,
    su2_from_quat,
    su2_multiply,
    to_complex_pair,
    transpose_map,
)
from hopfrot.hopf import MAPS, HopfVariant, fiber_sample
from hopfrot.sphere import INFINITY, finite

from goldens import CASES, check_golden, run_cli
from oracles import rodrigues

N = 10_000


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def unit_quat(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def sphere_point(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def rand_axis_angle(rng):
    return axis_angle(rng.uniform(0, 2 * math.pi), sphere_point(rng))


def fiber_scalar(rng):
    return cmath.exp(complex(rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi)))


def test_criterion_1_full_harness():
    reports = run_all(samples=N, seed=0, tolerance=1e-9)
    assert len(reports) == 12
    worst = max(r.max_deviation for r in reports)
    for r in reports:
        assert r.failures == 0, f"{r.name}: {r.failures} failures, max {r.max_deviation}"
    report("criterion 1", f"12 checks x {N} samples, worst deviation {worst:.3e}")


def test_criterion_2_reconciliation():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(N):
        aa = rand_axis_angle(rng)
        p = sphere_point(rng)
        a, b = reconcile(aa, p, rng.uniform(0, 2 * math.pi), fiber_scalar(rng))
        oracle = rodrigues(aa.theta, aa.axis, p)
        worst = max(
            worst,
            float(np.linalg.norm(a - b)),
            float(np.linalg.norm(a - oracle)),
            float(np.linalg.norm(b - oracle)),
        )
    assert worst <= 1e-9
    report("criterion 2", f"{N} samples, max deviation {worst:.3e}")


def test_criterion_3_compare_diagram():
    rng = np.random.default_rng(3)
    worst = 0.0
    n = 0
    while n < N:
        s = to_complex_pair(unit_quat(rng))
        if abs(s.w) < 1e-6:
            continue
        n += 1
        left = bloch(transpose_map(s))
        right = reverse(quat_hopf(from_complex_pair(s)))
        worst = max(worst, float(np.linalg.norm(left - right)))
    assert worst <= 1e-9
    report("criterion 3", f"{N} samples, max deviation {worst:.3e}")


def test_criterion_4_odot_lemma():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(N):
        g = su2_from_quat(unit_quat(rng))
        h = ComplexPair(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        a = act_on_vector(g, h)
        b = matvec_as_quat(g, h)
        worst = max(worst, math.hypot(abs(a.z - b.z), abs(a.w - b.w)))
    assert worst <= 1e-12
    report("criterion 4", f"{N} samples, max deviation {worst:.3e}")


def test_criterion_5_su2_isomorphism():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(N):
        q1, q2 = unit_quat(rng), unit_quat(rng)
        left = su2_from_quat(multiply(q1, q2))
        right = su2_multiply(su2_from_quat(q1), su2_from_quat(q2))
        worst = max(worst, math.hypot(abs(left.z - right.z), abs(left.w - right.w)))
    assert worst <= 1e-12
    report("criterion 5", f"{N} samples, max deviation {worst:.3e}")


def test_criterion_6_stereo_round_trips():
    rng = np.random.default_rng(6)
    worst = 0.0
    for fwd, inv in ((stereo1, stereo1_inv), (stereo3, stereo3_inv)):
        for _ in range(N):
            p = sphere_point(rng)
            worst = max(worst, float(np.linalg.norm(inv(fwd(p)) - p)))
            u = finite(complex(*(5.0 * rng.standard_normal(2))))
            back = fwd(inv(u))
            worst = max(worst, abs(back.finite - u.finite) / max(1.0, abs(u.finite)))
    assert worst <= 1e-12
    # poles are exact
    assert stereo1((1, 0, 0)).is_infinity and stereo3((0, 0, 1)).is_infinity
    assert np.array_equal(stereo1_inv(INFINITY), [1.0, 0.0, 0.0])
    assert np.array_equal(stereo3_inv(INFINITY), [0.0, 0.0, 1.0])
    report("criterion 6", f"4 x {N} round trips, max deviation {worst:.3e}")


def test_criterion_7_rotation_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(N):
        aa = rand_axis_angle(rng)
        p = 2.0 * rng.standard_normal(3)
        worst = max(
            worst, float(np.linalg.norm(rotate(aa, p) - rodrigues(aa.theta, aa.axis, p)))
        )
    assert worst <= 1e-9
    comp_worst = 0.0
    for _ in range(1000):
        n = sphere_point(rng)
        t1, t2 = rng.uniform(0, 2 * math.pi, 2)
        p = sphere_point(rng)
        composed = rotate(axis_angle(t2, n), rotate(axis_angle(t1, n), p))
        direct = rotate(axis_angle(t1 + t2, n), p)
        comp_worst = max(comp_worst, float(np.linalg.norm(composed - direct)))
        wrapped = rotate(axis_angle(t1 + 2 * math.pi, n), p)
        comp_worst = max(comp_worst, float(np.linalg.norm(wrapped - rotate(axis_angle(t1, n), p))))
    assert comp_worst <= 1e-9
    report(
        "criterion 7",
        f"{N} oracle samples (max {worst:.3e}), composition/periodicity max {comp_worst:.3e}",
    )


def test_criterion_8_convention_relation():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(N):
        aa = rand_axis_angle(rng)
        n1, n2, n3 = aa.axis
        left = gb(aa)
        right = su2_from_quat(gq(axis_angle(-aa.theta, (n3, n2, n1))))
        worst = max(worst, abs(left.z - right.z), abs(left.w - right.w))
    assert worst <= 1e-12
    report("criterion 8", f"{N} samples, max entrywise deviation {worst:.3e}")


def test_criterion_9_fiber_invariance():
    rng = np.random.default_rng(9)
    worst = 0.0
    for variant in HopfVariant:
        for _ in range(1000):
            base = sphere_point(rng)
            for v in fiber_sample(variant, base, 8):
                worst = max(worst, float(np.linalg.norm(MAPS[variant].scalar(v) - base)))
    assert worst <= 1e-9
    report("criterion 9", f"3 variants x 1000 bases x 8 phases, max deviation {worst:.3e}")


def test_criterion_10_cli_contract():
    for name in CASES:
        check_golden(name)
    # exit-code contract
    assert run_cli(["convert"], "not json").returncode == 2
    assert run_cli(["convert"], '{"axis_angle": {"theta": 1, "axis": [0, 0, 2]}}').returncode == 3
    assert run_cli(["verify", "--check", "bogus", "--samples", "1"]).returncode == 2
    assert (
        run_cli(["verify", "--check", "rephrase", "--samples", "5", "--tolerance", "1e-30"]).returncode
        == 1
    )
    report("criterion 10", "6 golden subcommands byte-identical, exit codes 0/1/2/3 honored")
