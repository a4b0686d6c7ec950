import json
import math

import numpy as np
import pytest

from hopfrot import CATALOG, CheckReport, DiagramCheck, UnknownCheck, run_all, run_check, verify
from hopfrot.verify import subseed
from snapshot import run_main

EXPECTED_CATALOG = [
    "rephrase",
    "quat-identification",
    "template-classic",
    "template-quat",
    "template-bloch",
    "compare-bloch-quat",
    "odot-lemma",
    "reconcile",
    "derivation-16-18",
    "final-diagram",
    "iso-su2-quat",
    "fiber-invariance",
]


def test_catalog_contents_and_order():
    assert CATALOG == EXPECTED_CATALOG


def test_unknown_check_rejected():
    with pytest.raises(UnknownCheck):
        DiagramCheck("unknown-name", 10, 0, 1e-9)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        DiagramCheck("rephrase", 0, 0, 1e-9)
    for tolerance in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DiagramCheck("rephrase", 10, 0, tolerance)


def test_run_check_deterministic():
    check = DiagramCheck("compare-bloch-quat", 200, 42, 1e-9)
    a = run_check(check)
    b = run_check(check)
    assert a == b
    assert a.failures == 0
    assert a.worst_input  # a serialized sample is recorded


def test_run_all_deterministic_and_green():
    reports = run_all(300, 7, 1e-9)
    assert [r.name for r in reports] == EXPECTED_CATALOG
    assert all(r.failures == 0 for r in reports)
    assert reports == run_all(300, 7, 1e-9)


def test_seed_changes_reports():
    a = run_check(DiagramCheck("odot-lemma", 100, 1, 1e-9))
    b = run_check(DiagramCheck("odot-lemma", 100, 2, 1e-9))
    assert a.worst_input != b.worst_input


def test_subseed_stable():
    assert subseed(0, "rephrase") == subseed(0, "rephrase")
    assert subseed(0, "rephrase") != subseed(0, "odot-lemma")
    assert 0 <= subseed(2**64 - 1, "reconcile") < 2**64


def test_failures_counted_against_absurd_tolerance():
    # with an impossible tolerance every sample fails, proving the
    # comparison is live rather than vacuous
    report = run_check(DiagramCheck("rephrase", 50, 3, 1e-30))
    assert report.failures > 0
    assert report.max_deviation > 1e-30


def test_report_consistency():
    report = run_check(DiagramCheck("iso-su2-quat", 100, 5, 1e-12))
    assert isinstance(report, CheckReport)
    assert (report.failures == 0) == (report.max_deviation <= 1e-12)


def test_unit_quat_sampler_is_exactly_rounded():
    # Sample 18 of odot-lemma at seed 1 is the worst input in
    # tests/golden/verify.json.  Its normalization is one where a BLAS dot
    # (np.linalg.norm under OpenBLAS's SkylakeX kernel) rounds the norm
    # differently from the correctly rounded 2.328118035873988, giving
    # ...103 in the last digits of g[0] instead of ...102.
    _, draws = verify.CHECKS["odot-lemma"]
    rng = np.random.Generator(np.random.PCG64(subseed(1, "odot-lemma")))
    for _ in range(18):
        for draw in draws.values():
            draw(rng)
    assert draws["g"](rng).x0 == 0.5846807198571102


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_deviation_fails_and_is_worst(monkeypatch, bad):
    # a non-finite deviation outranks every finite one, the last of them wins;
    # the stub draws sample i as {"i": i}
    devs = [1e-16, bad, 2e-16, bad, 3e-16]
    counter = iter(range(len(devs)))
    monkeypatch.setitem(verify.CHECKS, "odot-lemma", (lambda i: devs[i], {"i": lambda rng: next(counter)}))
    report = run_check(DiagramCheck("odot-lemma", 5, 0, 1e-9))
    assert report.failures == 2
    assert report.worst_input == '{"i": 3}'
    assert not math.isfinite(report.max_deviation)
    assert report.to_dict()["max_deviation"] is None


def test_nan_deviation_fails_the_cli(monkeypatch):
    monkeypatch.setitem(verify.CHECKS, "odot-lemma", (lambda g: float("nan"), {"g": lambda rng: 1}))
    code, stdout, stderr = run_main(["verify", "--check", "odot-lemma", "--samples", "5"], "")
    assert code == 1, stderr
    (report,) = json.loads(stdout)["reports"]
    assert report["max_deviation"] is None
    assert report["failures"] == 5
    assert report["worst_input"] == '{"g": 1}'


# With a pole guard this wide every check that has one redraws often;
# (resampled, max_deviation) at seed 3 and 300 samples.
FORCED_GUARD = {
    "rephrase": (216, 5.20740757162067e-16),
    "quat-identification": (111, 4.765679189829399e-16),
    "template-classic": (111, 5.578801654593729e-16),
    "template-quat": (111, 5.23691153334427e-16),
    "template-bloch": (98, 4.509747244882934e-16),
    "compare-bloch-quat": (111, 5.23691153334427e-16),
    "odot-lemma": (0, 9.930136612989092e-16),
    "reconcile": (0, 1.5174458281959784e-15),
    "derivation-16-18": (202, 6.377745716588144e-16),
    "final-diagram": (0, 1.5174458281959784e-15),
    "iso-su2-quat": (0, 1.594436429147036e-16),
    "fiber-invariance": (101, 5.212519315743275e-16),
}


@pytest.mark.parametrize("name", EXPECTED_CATALOG)
def test_redraws_filter_the_stream(monkeypatch, name):
    monkeypatch.setattr(verify, "_POLE_GUARD", 0.5)
    resampled, max_deviation = FORCED_GUARD[name]
    report = run_check(DiagramCheck(name, 300, 3, 1e-9))
    assert report.resampled == resampled
    assert report.failures == 0
    assert report.max_deviation == max_deviation


def test_stuck_sampler_raises(monkeypatch):
    monkeypatch.setattr(verify, "_POLE_GUARD", 10.0)
    with pytest.raises(RuntimeError, match="^check template-classic: sampler stuck near a pole$"):
        run_check(DiagramCheck("template-classic", 300, 3, 1e-9))
