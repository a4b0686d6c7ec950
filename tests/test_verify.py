import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from hopfrot import (
    CATALOG, CheckReport, DiagramCheck, UnknownCheck, axis_angle, reconcile, run_all, run_check, verify,
)
from hopfrot.hopf import MAPS, HopfVariant, hopf_classic
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


def test_invalid_parameters_rejected(monkeypatch):
    with pytest.raises(ValueError):
        DiagramCheck("rephrase", 0, 0, 1e-9)
    for tolerance in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DiagramCheck("rephrase", 10, 0, tolerance)
    # samples and seed are integers, as operator.index takes them, but not bools;
    # run_all rejects them before any check runs
    monkeypatch.setattr(verify, "run_check", None)
    for samples, seed in [(2.0, 0), (True, 0), (5, 1.5), (5, False), (np.float64(5), 0), ("5", 0)]:
        with pytest.raises(ValueError):
            DiagramCheck("rephrase", samples, seed, 1e-9)
        with pytest.raises(ValueError):
            run_all(samples, seed, 1e-9)
    assert DiagramCheck("rephrase", np.int64(5), np.uint8(1), 1e-9).samples == 5


def test_numpy_integers_give_a_json_report():
    # samples and seed are kept as Python ints, which json serializes
    check = DiagramCheck("odot-lemma", np.int64(5), np.uint8(1), 1e-9)
    assert (type(check.samples), type(check.seed)) == (int, int)
    (report,) = run_all(np.int64(5), 0, 1e-9, ["odot-lemma"])
    assert json.loads(json.dumps(report.to_dict()))["samples"] == 5


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


def test_each_vector_norm_is_taken_once(monkeypatch):
    # counts vector_norm calls through every hopfrot module that binds it
    checks = {name: verify.CHECKS[name] for name in ("rephrase", "template-bloch")}
    draws = {name: verify._draw(d, np.random.default_rng(3), 16) for name, (_, d) in checks.items()}
    calls = []

    def counted(v, norm=verify.vector_norm):
        calls.append(1)
        return norm(v)

    for module in (m for name, m in sys.modules.items() if name.startswith("hopfrot.")):
        if hasattr(module, "vector_norm"):
            monkeypatch.setattr(module, "vector_norm", counted)

    def count(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    unit = (0.6, 0.0, 0.0, 0.8)
    assert count(hopf_classic, ComplexPair(complex(*unit[:2]), complex(*unit[2:]))) == 1
    assert count(MAPS[HopfVariant.CLASSIC].columns, *np.array([unit, unit]).T) == 1
    assert count(checks["rephrase"][0], *draws["rephrase"]) == 4
    assert count(checks["template-bloch"][0], *draws["template-bloch"]) == 2
    # p once, |(y, z)| in the quaternion lift, |(x, y)| in the Bloch lift,
    # and the unit checks of hq and g hq
    for p in [(0.48, 0.6, 0.64), (1.0, 0.0, 0.0)]:
        assert count(reconcile, axis_angle(1.0, (0.6, 0.8, 0.0)), p, 0.3, 1 + 2j) == 5


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


def stub(monkeypatch, devs, poles):
    """Replace odot-lemma by a check whose sample i of the stream, counted
    across blocks, is {"i": i}, with deviation devs[i] and pole row
    poles[i]; the rows past them are pole rows with NaN deviations, which
    run_check must never reach."""
    drawn = [0]  # the candidates of the blocks drawn so far

    def number(v):  # draws a normal per sample, gives its i
        drawn[0] += len(v)
        return np.arange(drawn[0] - len(v), drawn[0])

    def columns(i):
        pad = [math.nan] * (int(i[-1]) + 1)
        return np.array(devs + pad)[i], np.array(poles + [True] * len(pad))[i]

    monkeypatch.setitem(verify.CHECKS, "odot-lemma", (columns, {"i": verify.Sampler(1, (), number)}))


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


NAN, INF = float("nan"), float("inf")
# deviations of 5 samples, and the sample whose row is the worst: the last
# non-finite one, else the last maximum, across the blocks as within one
ACROSS_BLOCKS = [
    ([1e-16, NAN, 5e-16, 2e-16, 3e-16], 1),  # a non-finite row outranks a later maximum
    ([1e-16, INF, 5e-16, NAN, 3e-16], 3),  # the last non-finite row, of any kind
    ([1e-16, 3e-16, 2e-16, 3e-16, 1e-16], 3),  # tied maxima: the later one
    ([1e-16, 4e-16, 2e-16, 3e-16, 1e-16], 1),  # a smaller later maximum leaves it
]


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("devs, worst", ACROSS_BLOCKS)
def test_worst_row_is_reduced_across_blocks(monkeypatch, devs, worst, block):
    # blocks of `block` candidates give the report of one block of them
    stub(monkeypatch, devs, [False] * 5)
    whole = run_check(DiagramCheck("odot-lemma", 5, 0, 2.5e-16))
    monkeypatch.setattr(verify, "_MIN_BLOCK", 1)
    monkeypatch.setattr(verify, "_MAX_BLOCK", block)
    stub(monkeypatch, devs, [False] * 5)
    report = run_check(DiagramCheck("odot-lemma", 5, 0, 2.5e-16))
    assert report.failures == sum(not d <= 2.5e-16 for d in devs)
    assert repr(report.max_deviation) == repr(devs[worst])
    assert report.worst_input == f'{{"i": {worst}}}'
    assert repr(report) == repr(whole)


def test_a_block_of_pole_rows_leaves_the_worst_row(monkeypatch):
    # with blocks of 2 candidates the second block is all pole rows, whose
    # NaN deviations are redraws
    monkeypatch.setattr(verify, "_MIN_BLOCK", 1)
    monkeypatch.setattr(verify, "_MAX_BLOCK", 2)
    poles = [False, False, True, True, False, False, False]
    stub(monkeypatch, [1e-16, 3e-16, NAN, NAN, 2e-16, 3e-16, 1e-16], poles)
    report = run_check(DiagramCheck("odot-lemma", 5, 0, 2.5e-16))
    assert (report.resampled, report.failures, report.max_deviation) == (2, 2, 3e-16)
    assert report.worst_input == '{"i": 5}'


def test_check_memory_does_not_grow_with_samples(monkeypatch):
    # a check reduces each block as it is drawn and holds one at a time
    monkeypatch.setattr(verify, "_MAX_BLOCK", 256)
    run_check(DiagramCheck("reconcile", 1, 0, 1e-9))  # the table cache and other one-time allocations

    def peak(samples):
        tracemalloc.start()
        try:
            run_check(DiagramCheck("reconcile", samples, 0, 1e-9))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8192) <= 1.25 * peak(512)


def test_check_frees_each_block_before_drawing_the_next(monkeypatch):
    # a block's columns are dropped before the next is drawn, so eight
    # blocks peak barely above one; kept until rebound, they cost ~1.19x
    monkeypatch.setattr(verify, "_MAX_BLOCK", 256)
    run_check(DiagramCheck("reconcile", 1, 0, 1e-9))  # the table cache and other one-time allocations

    def peak(samples):
        tracemalloc.start()
        try:
            run_check(DiagramCheck("reconcile", samples, 0, 1e-9))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2048) <= 1.1 * peak(256)


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
    "rephrase": (216, 5.666851120607273e-16),
    "quat-identification": (111, 4.765679189829399e-16),
    "template-classic": (111, 5.578801654593729e-16),
    "template-quat": (111, 5.23691153334427e-16),
    "template-bloch": (98, 4.518688278780567e-16),
    "compare-bloch-quat": (111, 5.23691153334427e-16),
    "odot-lemma": (0, 9.930136612989092e-16),
    "reconcile": (0, 8.196123257993793e-16),
    "derivation-16-18": (202, 6.377745716588144e-16),
    "final-diagram": (0, 8.196123257993793e-16),
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
    # _draw decodes a block's normals from one read of raw words, as one
    # standard_normal call over the block would draw them; that call draws
    # the normals of many one-sample calls
    a, b = (np.random.Generator(np.random.PCG64(11)) for _ in range(2))
    block = a.standard_normal(k * 5000)
    calls = np.concatenate([b.standard_normal(k) for _ in range(5000)])
    assert np.array_equal(_bits(block), _bits(calls))


@pytest.mark.parametrize("low, high", [(0.0, 2.0 * math.pi), (-2.0, 2.0)])
def test_uniform_is_an_affine_map_of_random(low, high):
    # _draw decodes a uniform from one raw word as rng.random does, and maps
    # it onto the sampler's range itself
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


@pytest.mark.parametrize("n", [1, 2, 64, 500])
@pytest.mark.parametrize("name", EXPECTED_CATALOG)
def test_draw_gives_the_reference_samplers_values(name, n):
    # _draw decodes a block from raw words; each row has the values the
    # scalar samplers draw one sample at a time, and the stream ends where
    # theirs does
    _, draws = verify.CHECKS[name]
    a, b = (np.random.Generator(np.random.PCG64(subseed(n, name))) for _ in range(2))
    columns = verify._draw(draws, a, n)
    for i in range(n):
        want = {key: verify_reference.SAMPLERS[s](b) for key, s in draws.items()}
        got = {key: verify._row(x, i) for key, x in zip(draws, columns)}
        assert json.dumps(got, default=verify.encode) == json.dumps(want, default=verify.encode), i
    assert a.bit_generator.state == b.bit_generator.state


def test_integers_over_every_uint64_are_the_raw_words():
    # _draw reads raw words through this Generator call, which the bench's
    # draw timer sees, in place of bit_generator.random_raw, which it does not
    a, b = (np.random.Generator(np.random.PCG64(13)) for _ in range(2))
    words = a.integers(0, 2**64 - 1, size=5000, dtype=np.uint64, endpoint=True)
    assert np.array_equal(words, b.bit_generator.random_raw(5000))
    assert a.bit_generator.state == b.bit_generator.state


def test_normals_are_standard_normal_bit_for_bit(monkeypatch):
    # 10^6 normals reach the ziggurat's wedge and tail, which _draw walks
    # one normal at a time, about 15,000 and 250 times
    slow, normal = [], verify._normal  # the first word's layer of each slow normal

    def counted(words, u, i):
        slow.append(int(words[i]) & 0xFF)
        return normal(words, u, i)

    monkeypatch.setattr(verify, "_normal", counted)
    for seed in (0, 7):
        a, b = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        (got,) = verify._draw({"x": verify.Sampler(1, (), lambda x: x)}, a, 500_000)
        assert np.array_equal(_bits(got), _bits(b.standard_normal(500_000)))
        assert a.bit_generator.state == b.bit_generator.state
    tails = slow.count(0)
    assert tails >= 100 and len(slow) - tails >= 10_000


class _CountingGenerator:
    """A Generator's bit generator and integers, with integers' calls counted."""

    def __init__(self, rng):
        self._rng, self.bit_generator, self.calls = rng, rng.bit_generator, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)


@pytest.mark.parametrize("name", ["reconcile", "fiber-invariance", "template-quat"])
def test_draw_reads_more_words_when_the_spare_runs_short(monkeypatch, name):
    # with no spare words every slow normal leaves the block short of words
    monkeypatch.setattr(verify, "_SPARE_WORDS", 0.0)
    _, draws = verify.CHECKS[name]
    a, b = (np.random.Generator(np.random.PCG64(subseed(3, name))) for _ in range(2))
    counted = _CountingGenerator(a)
    columns = verify._draw(draws, counted, 300)
    assert counted.calls > 1
    for i in range(300):
        want = {key: verify_reference.SAMPLERS[s](b) for key, s in draws.items()}
        got = {key: verify._row(x, i) for key, x in zip(draws, columns)}
        assert json.dumps(got, default=verify.encode) == json.dumps(want, default=verify.encode), i
    assert a.bit_generator.state == b.bit_generator.state


def test_draw_reads_more_words_when_a_slow_normal_runs_past_them(monkeypatch):
    # with no spare words one normal reads one word; a first word off the
    # ziggurat's fast path needs the words after it, so _draw reads again
    monkeypatch.setattr(verify, "_SPARE_WORDS", 0.0)
    ki = verify._ziggurat()[0][0]

    def slow(seed):
        r = int(np.random.PCG64(seed).random_raw())
        return ((r >> 9) & verify._RABS) >= ki[r & 0xFF]

    seed = next(s for s in range(10_000) if slow(s))
    a, b = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    counted = _CountingGenerator(a)
    (x,) = verify._draw({"x": verify.Sampler(1, (), lambda x: x)}, counted, 1)
    assert counted.calls == 2
    assert np.array_equal(_bits(x), _bits([b.standard_normal()]))
    assert a.bit_generator.state == b.bit_generator.state


def test_draw_keeps_a_buffered_half_word():
    # a uint32 draw leaves half a word buffered; normals and uniforms leave
    # it there, and so must _draw, whose advance alone would drop it
    _, draws = verify.CHECKS["reconcile"]
    a, b = (np.random.Generator(np.random.PCG64(14)) for _ in range(2))
    for rng in (a, b):
        rng.integers(0, 2**32, dtype=np.uint32)
    verify._draw(draws, a, 64)
    for _ in range(64):
        for s in draws.values():
            verify_reference.SAMPLERS[s](b)
    assert a.bit_generator.state == b.bit_generator.state
    assert a.bit_generator.state["has_uint32"] == 1
