import json
import math

import numpy as np
import pytest

from hopfrot import CATALOG, CheckReport, DiagramCheck, UnknownCheck, run_all, run_check, verify
from hopfrot.quat import ComplexPair, Quaternion, to_complex_pair
from hopfrot.verify import subseed
import verify_reference
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
    g, _ = verify._draw(draws, rng, 19)
    assert verify._row(g, 18).x0 == 0.5846807198571102


ROW_NUMBER = verify.Sampler(1, (), lambda v: np.arange(len(v)))  # draws a normal, gives i


def stub(monkeypatch, devs, poles):
    """Replace odot-lemma by a check whose sample i is {"i": i}, with
    deviation devs[i] and pole row poles[i]; the rows past them are pole
    rows with NaN deviations, which run_check must never reach."""
    def columns(i):
        pad = [math.nan] * (len(i) - len(devs))
        return np.array(devs + pad), np.array(poles + [True] * len(pad))

    monkeypatch.setitem(verify.CHECKS, "odot-lemma", (columns, {"i": ROW_NUMBER}))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_deviation_fails_and_is_worst(monkeypatch, bad):
    # a non-finite deviation outranks every finite one, the last of them wins
    stub(monkeypatch, [1e-16, bad, 2e-16, bad, 3e-16], [False] * 5)
    report = run_check(DiagramCheck("odot-lemma", 5, 0, 1e-9))
    assert report.failures == 2
    assert report.resampled == 0
    assert report.worst_input == '{"i": 3}'
    assert not math.isfinite(report.max_deviation)
    assert report.to_dict()["max_deviation"] is None


def test_nan_deviation_on_a_pole_row_is_a_redraw(monkeypatch):
    # the pole rows decide a redraw, never the deviation: NaN on a pole row
    # is a redraw, and NaN on an accepted row fails
    stub(monkeypatch, [1e-16, math.nan, 2e-16], [False, True, False])
    report = run_check(DiagramCheck("odot-lemma", 2, 0, 1e-9))
    assert (report.resampled, report.failures, report.max_deviation) == (1, 0, 2e-16)
    assert report.worst_input == '{"i": 2}'
    stub(monkeypatch, [1e-16, math.nan, 2e-16], [False, False, False])
    report = run_check(DiagramCheck("odot-lemma", 2, 0, 1e-9))
    assert (report.resampled, report.failures) == (0, 1)
    assert report.worst_input == '{"i": 1}'


def test_nan_deviation_fails_the_cli(monkeypatch):
    def check(g):
        return np.full(len(g), math.nan), False

    one = verify.Sampler(1, (), lambda v: np.ones(len(v), dtype=int))
    monkeypatch.setitem(verify.CHECKS, "odot-lemma", (check, {"g": one}))
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


@pytest.mark.parametrize("guard", [verify._POLE_GUARD, 0.5])
@pytest.mark.parametrize("name", EXPECTED_CATALOG)
def test_columns_match_the_reference_runner(monkeypatch, name, guard):
    # at guard 0.5 the checks that have a pole guard redraw often
    monkeypatch.setattr(verify, "_POLE_GUARD", guard)
    for seed in (0, 1, 7, 123):
        for samples in (1, 37, 2000):
            check = DiagramCheck(name, samples, subseed(seed, name), 1e-9)
            report, reference = run_check(check), verify_reference.run_check(check)
            assert report == reference
            assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())


@pytest.mark.parametrize("name", EXPECTED_CATALOG)
def test_columns_match_the_reference_runner_when_stuck(monkeypatch, name):
    # at guard 10 every check with a pole guard rejects every sample
    monkeypatch.setattr(verify, "_POLE_GUARD", 10.0)
    check = DiagramCheck(name, 37, subseed(0, name), 1e-9)
    if FORCED_GUARD[name][0] == 0:  # no pole guard
        assert run_check(check) == verify_reference.run_check(check)
        return
    message = f"^check {name}: sampler stuck near a pole$"
    for run in (run_check, verify_reference.run_check):
        with pytest.raises(RuntimeError, match=message):
            run(check)


# Rows that take the reference deviations down their branches: pairs with
# w = 0 (as quaternions, preimages of (1, 0, 0)), pairs whose ratio z/w
# overflows when squared, a pair with z = 0, and the S^2 points where
# lift_quat_hopf pins its value and the stereographic poles.
BRANCH_PAIRS = [
    (1.0, 0.0, 0.0, 0.0), (0.0, -1.0, -0.0, 0.0), (1.0, 0.0, 1e-200, 0.0),
    (-0.0, 1.0, 0.0, -1e-200), (0.0, 0.0, 1.0, -0.0),
]
BRANCH_POINTS = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, -0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]


def forced(x):
    """A sampler's column form with branch rows in place of its first rows."""
    if isinstance(x, Quaternion):
        return Quaternion(*forced(np.array([x.x0, x.x1, x.x2, x.x3])))
    if isinstance(x, ComplexPair):
        return to_complex_pair(Quaternion(*forced(np.array([x.z.real, x.z.imag, x.w.real, x.w.imag]))))
    if isinstance(x, np.ndarray) and x.ndim == 2:
        rows = BRANCH_PAIRS if len(x) == 4 else BRANCH_POINTS
        x = x.copy()
        x[:, : len(rows)] = np.array(rows).T
    return x


@pytest.mark.parametrize("guard", [verify._POLE_GUARD, 0.0])
@pytest.mark.parametrize("name", EXPECTED_CATALOG)
def test_branch_rows_match_the_reference_deviations(monkeypatch, name, guard):
    # the pole rows are exactly the samples the reference redraws, and every
    # other row has its deviation's bits; at guard 0 nothing is redrawn, and
    # the branch rows go through the poles of the column forms
    monkeypatch.setattr(verify, "_POLE_GUARD", guard)
    columns, draws = verify.CHECKS[name]
    rng = np.random.Generator(np.random.PCG64(subseed(0, name)))
    sample = [forced(x) for x in verify._draw(draws, rng, 40)]
    with np.errstate(all="ignore"):
        dev, pole = columns(*sample)
    pole = np.broadcast_to(pole, dev.shape)
    for i in range(len(dev)):
        want = verify_reference.DEVIATIONS[name](*(verify._row(x, i) for x in sample))
        assert pole[i] == (want is None), i
        if want is not None:
            assert repr(dev.item(i)) == repr(want), i


def _bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("k", [1, 3, 4, 8])
def test_normal_block_is_the_stream_of_its_calls(k):
    # run_check draws normals-only checks as one block, and merges a
    # sample's adjacent normals into one call
    a, b = (np.random.Generator(np.random.PCG64(11)) for _ in range(2))
    block = a.standard_normal(k * 5000)
    calls = np.concatenate([b.standard_normal(k) for _ in range(5000)])
    assert np.array_equal(_bits(block), _bits(calls))


@pytest.mark.parametrize("low, high", [(0.0, 2.0 * math.pi), (-2.0, 2.0)])
def test_uniform_is_an_affine_map_of_random(low, high):
    # run_check draws uniforms as rng.random, k at a time, and maps them onto
    # the sampler's range itself
    a, b = (np.random.Generator(np.random.PCG64(12)) for _ in range(2))
    uniform = np.array([a.uniform(low, high) for _ in range(30000)])
    random = np.concatenate([b.random(k) for k in (1, 2, 3) * 5000])
    assert np.array_equal(_bits(uniform), _bits(low + (high - low) * random))


@pytest.mark.parametrize("guard", [verify._POLE_GUARD, 0.5])
def test_blocks_split_the_stream(monkeypatch, guard):
    # with blocks of at most 50 candidates, 300 samples span several blocks
    monkeypatch.setattr(verify, "_POLE_GUARD", guard)
    monkeypatch.setattr(verify, "_MAX_BLOCK", 50)
    for name in EXPECTED_CATALOG:
        check = DiagramCheck(name, 300, subseed(5, name), 1e-9)
        assert run_check(check) == verify_reference.run_check(check)
