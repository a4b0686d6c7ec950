"""The benchmark's three workloads and the loop that measures them.

Each workload is closed-loop with one client: the next pass starts only
when the previous one has returned.  A pass is the unit of repeated work:

- verify-catalog: one ``run_all(samples, seed, 1e-9)`` over all 12 checks
  (the body of ``hopfrot verify``), repeated at one seed so that every
  report can be compared byte for byte with the first;
- cli-batch: the 8 commands of COMMANDS over one generated document set,
  each a fresh ``python -m hopfrot`` process (in process through
  ``hopfrot.cli.main`` when traced);
- scalar-calls: SCALAR_ROUNDS rounds of the 9 calls in SCALAR_CALLS on
  fresh inputs, each round timed as a whole.

The program only ever sees the generated inputs; the seed never reaches it
except as verify's own seed argument, which is the input of that workload.
"""

from __future__ import annotations

import atexit
import io
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hopfrot
import hopfrot.cli
import oracle
from spawner import own_peak_kb
from tracing import MODULES, DrawTimer, ModuleTracer, wrapper_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)
CHILD_TIMEOUT_S = 60

VERIFY_SAMPLES = 500
CLI_POINTS = 20000
SCALAR_ROUNDS = 1000
SETUP_RUNS = 9
IMPORTTIME_RUNS = 3

COMMANDS = (
    ("rotate", "--convention", "quat"),
    ("rotate", "--convention", "bloch"),
    ("hopf", "--variant", "classic"),
    ("hopf", "--variant", "quat"),
    ("hopf", "--variant", "bloch"),
    ("lift", "--variant", "classic"),
    ("lift", "--variant", "quat"),
    ("lift", "--variant", "bloch"),
)
SCALAR_CALLS = (
    "rotate",
    "gq",
    "gb",
    "quat_hopf",
    "bloch",
    "hopf_classic",
    "lift_bloch",
    "lift_quat_hopf",
    "rotate_via_bloch",
)
# the tail percentile needs at least 10 rounds beyond it
P99_MIN_SAMPLES = 1000

clock = time.perf_counter


@dataclass
class PassResult:
    items: int
    latencies: list  # seconds, one per request
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def _unit_rows(rng, n: int, k: int) -> np.ndarray:
    v = rng.standard_normal((n, k))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


_spawner: subprocess.Popen | None = None


def run_child(args, stdin: bytes = b"", capture: bool = True):
    """Run ``python args`` to completion through spawner.py: (exit code,
    stdout, stderr, seconds, child max RSS KiB, spawner peak KiB).

    The spawner, not subprocess's timeout polling (whose sleeps of up to
    50 ms would round the timing), waits for the child; a watchdog there
    kills a child that outlives CHILD_TIMEOUT_S."""
    global _spawner
    if _spawner is None:
        _spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=CHILD_ENV, cwd=ROOT,
        )
        atexit.register(_stop_spawner)
    pickle.dump(([sys.executable, *args], stdin, capture, CHILD_TIMEOUT_S), _spawner.stdin)
    _spawner.stdin.flush()
    return pickle.load(_spawner.stdout)


def _stop_spawner() -> None:
    _spawner.stdin.close()
    _spawner.wait()
    _spawner.stdout.close()


def _setup_seconds(command) -> float:
    code, _, _, elapsed, _, _ = run_child(*command, capture=False)
    if code != 0:
        raise RuntimeError(f"set-up command {command[0]} exited {code}")
    return elapsed


def import_seconds(runs: int = IMPORTTIME_RUNS) -> tuple[float, float]:
    """Median (numpy, hopfrot without numpy) cumulative import times from
    ``python -X importtime -c 'import hopfrot'``."""
    numpy_s, own_s = [], []
    for _ in range(runs):
        code, _, err, _, _, _ = run_child(["-X", "importtime", "-c", "import hopfrot"])
        if code != 0:
            raise RuntimeError(f"python -X importtime exited {code}")
        cumulative = {}
        for line in err.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        numpy_s.append(cumulative.get("numpy", 0.0))
        own_s.append(cumulative["hopfrot"] - numpy_s[-1])
    return statistics.median(numpy_s), statistics.median(own_s)


class VerifyCatalog:
    name = "verify-catalog"
    setup_command = (["-c", "import hopfrot"], b"")

    def __init__(self, seed: int, samples: int = VERIFY_SAMPLES):
        self.seed = seed
        self.samples = samples
        self.reference: list[str] | None = None

    def run_pass(self, index: int, in_process: bool) -> PassResult:
        verify = sys.modules["hopfrot.verify"]
        start = clock()
        reports = verify.run_all(self.samples, self.seed, oracle.TOLERANCE)
        elapsed = clock() - start
        dicts = [r.to_dict() for r in reports]
        encoded = [json.dumps(d, sort_keys=True) for d in dicts]
        if self.reference is None:
            self.reference = encoded
        failed = sum(
            not oracle.report_ok(d, e, ref) for d, e, ref in zip(dicts, encoded, self.reference)
        )
        failed += abs(len(encoded) - len(self.reference))
        return PassResult(
            items=sum(d["samples"] for d in dicts), latencies=[elapsed],
            attempted=max(len(dicts), len(self.reference)), failed=failed,
            detail={"resampled": sum(d["resampled"] for d in dicts)},
        )

    def layer_values(self, traced: list[PassResult], untraced: list[PassResult]) -> dict:
        samples = sum(r.items for r in traced)
        resampled = sum(r.detail["resampled"] for r in traced)
        return {
            "verify.resampled": resampled / len(traced),
            "verify.useful_ratio": samples / (samples + resampled),
        }


class CliBatch:
    name = "cli-batch"
    setup_command = (
        ["-m", "hopfrot", "rotate"],
        b'{"axis_angle": {"theta": 1.0, "axis": [0, 0, 1]}, "points": []}',
    )

    def __init__(self, seed: int, points: int = CLI_POINTS):
        rng = np.random.default_rng(seed)
        self.points = points
        pts = _unit_rows(rng, points, 3)
        quats = _unit_rows(rng, points, 4)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        axis = _unit_rows(rng, 1, 3)
        pairs = [{"z": [a, b], "w": [c, d]} for a, b, c, d in quats.tolist()]
        rotate_doc = {"axis_angle": {"theta": theta, "axis": axis[0].tolist()}, "points": pts.tolist()}
        lift_doc = {"points": pts.tolist()}
        rotated = oracle.rodrigues(np.full(points, theta), np.repeat(axis, points, axis=0), pts)
        docs = {
            "rotate": rotate_doc,
            "hopf quat": {"inputs": quats.tolist()},
            "hopf pair": {"inputs": pairs},
            "lift": lift_doc,
        }
        encoded = {k: json.dumps(v).encode() for k, v in docs.items()}

        def points_check(expected):
            return lambda out: oracle.close(out.get("points"), expected)

        def lifts_check(forward, key):
            return lambda out: oracle.lift_ok(_lift_rows(out.get("lifts"), key), pts, forward)

        self.jobs = [
            (COMMANDS[0], encoded["rotate"], points_check(rotated)),
            (COMMANDS[1], encoded["rotate"], points_check(rotated)),
            (COMMANDS[2], encoded["hopf pair"], points_check(oracle.hopf_classic(quats))),
            (COMMANDS[3], encoded["hopf quat"], points_check(oracle.quat_hopf(quats))),
            (COMMANDS[4], encoded["hopf pair"], points_check(oracle.bloch(quats))),
            (COMMANDS[5], encoded["lift"], lifts_check(oracle.hopf_classic, "pair")),
            (COMMANDS[6], encoded["lift"], lifts_check(oracle.quat_hopf, "quat")),
            (COMMANDS[7], encoded["lift"], lifts_check(oracle.bloch, "pair")),
        ]
        self.reference: list[bytes | None] = [None] * len(self.jobs)

    def run_pass(self, index: int, in_process: bool) -> PassResult:
        run = _main_in_process if in_process else _main_subprocess
        latencies, failed = [], 0
        bytes_in = bytes_out = stderr_lines = peak_rss_kb = 0
        for j, (argv, stdin, check) in enumerate(self.jobs):
            code, out, err, elapsed, rss_kb = run(argv, stdin)
            latencies.append(elapsed)
            peak_rss_kb = max(peak_rss_kb, rss_kb)
            bytes_in += len(stdin)
            bytes_out += len(out)
            stderr_lines += err.count(b"\n")
            failed += not self._output_ok(j, code, out, check)
        return PassResult(
            items=self.points * len(self.jobs), latencies=latencies,
            attempted=len(self.jobs), failed=failed,
            detail={"bytes_in": bytes_in, "bytes_out": bytes_out, "stderr_lines": stderr_lines,
                    "peak_rss_kb": peak_rss_kb},
        )

    def _output_ok(self, j: int, code: int, out: bytes, check) -> bool:
        if code != 0:
            return False
        if out == self.reference[j]:
            return True
        try:
            ok = bool(np.all(check(oracle.strict_json(out.decode()))))
        except (ValueError, TypeError, AttributeError):
            ok = False
        if ok and self.reference[j] is None:
            self.reference[j] = out
        return ok

    def layer_values(self, traced: list[PassResult], untraced: list[PassResult]) -> dict:
        values = {}
        for j, argv in enumerate(COMMANDS):
            busy = sum(r.latencies[j] for r in traced)
            values[f"cli.{argv[0]}.{argv[2]}.points_per_s"] = self.points * len(traced) / busy
        last = traced[-1].detail
        values["cli.bytes_in"] = last["bytes_in"]
        values["cli.bytes_out"] = last["bytes_out"]
        values["cli.stderr_lines"] = last["stderr_lines"]
        return values


def _lift_rows(lifts, key: str):
    if key == "quat":
        return lifts
    return [[*p["z"], *p["w"]] for p in lifts]


def _main_subprocess(argv, stdin: bytes):
    code, out, err, elapsed, rss_kb, spawner_kb = run_child(["-m", "hopfrot", *argv], stdin)
    if rss_kb <= spawner_kb:
        # the child's own peak may lie below the floor it inherited
        raise RuntimeError(f"child max RSS {rss_kb} KiB does not exceed the spawner's {spawner_kb} KiB")
    return code, out, err, elapsed, rss_kb


def _main_in_process(argv, stdin: bytes):
    cli = sys.modules["hopfrot.cli"]
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin.decode()), io.StringIO(), io.StringIO()
    try:
        start = clock()
        try:
            code = cli.main(list(argv))
        except Exception:
            traceback.print_exc(file=saved[2])
            code = 1
        elapsed = clock() - start
        out, err = sys.stdout.getvalue().encode(), sys.stderr.getvalue().encode()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out, err, elapsed, own_peak_kb()


class ScalarCalls:
    name = "scalar-calls"
    setup_command = (["-c", "import hopfrot"], b"")

    def __init__(self, seed: int, rounds: int = SCALAR_ROUNDS):
        self.seed = seed
        self.rounds = rounds

    def run_pass(self, index: int, in_process: bool) -> PassResult:
        n = self.rounds
        rng = np.random.default_rng([self.seed, index])
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        axis = _unit_rows(rng, n, 3)
        pts = _unit_rows(rng, n, 3)
        quats = _unit_rows(rng, n, 4)
        unit_pairs = _unit_rows(rng, n, 4)
        state = _unit_rows(rng, n, 4) * np.exp(rng.uniform(-2.0, 2.0, n))[:, None]
        ket = _unit_rows(rng, n, 4) * np.exp(rng.uniform(-2.0, 2.0, n))[:, None]
        sphere = _unit_rows(rng, n, 3)

        aas = [hopfrot.AxisAngle(t, tuple(a)) for t, a in zip(theta.tolist(), axis.tolist())]
        qs = [hopfrot.Quaternion(*q) for q in quats.tolist()]
        us, vs, hs = ([_pair(r) for r in rows.tolist()] for rows in (unit_pairs, state, ket))
        ps, ss = pts.tolist(), sphere.tolist()

        (rotate, gq, gb, quat_hopf, bloch, hopf_classic, lift_bloch, lift_quat_hopf,
         rotate_via_bloch) = (getattr(hopfrot, name) for name in SCALAR_CALLS)
        latencies = np.empty(n, dtype=np.float32)  # compact: a run keeps every round
        outs = [None] * n
        for i in range(n):
            aa = aas[i]
            start = clock()
            out = (
                rotate(aa, ps[i]), gq(aa), gb(aa), quat_hopf(qs[i]), bloch(vs[i]),
                hopf_classic(us[i]), lift_bloch(ss[i]), lift_quat_hopf(ss[i]),
                rotate_via_bloch(aa, hs[i]),
            )
            latencies[i] = clock() - start
            outs[i] = out

        cols = list(zip(*outs))
        ok = [
            oracle.close(np.array(cols[0]), oracle.rodrigues(theta, axis, pts)),
            oracle.close(np.array([_quat_row(q) for q in cols[1]]), oracle.gq(theta, axis)),
            oracle.close(np.array([_pair_row(m) for m in cols[2]]), oracle.gb(theta, axis)),
            oracle.close(np.array(cols[3]), oracle.quat_hopf(quats)),
            oracle.close(np.array(cols[4]), oracle.bloch(state)),
            oracle.close(np.array(cols[5]), oracle.hopf_classic(unit_pairs)),
            oracle.lift_ok([_pair_row(v) for v in cols[6]], sphere, oracle.bloch),
            oracle.lift_ok([_quat_row(q) for q in cols[7]], sphere, oracle.quat_hopf),
            oracle.close(np.array(cols[8]), oracle.rodrigues(theta, axis, oracle.bloch(ket))),
        ]
        attempted = n * len(SCALAR_CALLS)
        return PassResult(
            items=attempted, latencies=latencies, attempted=attempted,
            failed=attempted - int(sum(m.sum() for m in ok)),
        )

    def layer_values(self, traced: list[PassResult], untraced: list[PassResult]) -> dict:
        latencies = np.concatenate([r.latencies for r in untraced])
        if len(latencies) < P99_MIN_SAMPLES:
            return {}
        p50, p99 = np.percentile(latencies, [50, 99])
        return {"scalar.round_p50_us": float(p50) * 1e6, "scalar.round_p99_us": float(p99) * 1e6}


def _pair(row):
    return hopfrot.ComplexPair(complex(row[0], row[1]), complex(row[2], row[3]))


def _pair_row(v):
    return [v.z.real, v.z.imag, v.w.real, v.w.imag]


def _quat_row(q):
    return [q.x0, q.x1, q.x2, q.x3]


WORKLOADS = {w.name: w for w in (VerifyCatalog, CliBatch, ScalarCalls)}

# Per-layer metrics that only one workload produces; the others report 0,
# since they do no work in that layer.
_OWNED_LAYER_METRICS = (
    "verify.resampled",
    "verify.useful_ratio",
    *(f"cli.{argv[0]}.{argv[2]}.points_per_s" for argv in COMMANDS),
    "cli.bytes_in",
    "cli.bytes_out",
    "cli.stderr_lines",
    "scalar.round_p50_us",
    "scalar.round_p99_us",
)


def _counts(results) -> dict:
    return {
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "passes": len(results),
        "requests": sum(len(r.latencies) for r in results),
    }


def end_to_end(workload, seconds: float, setup_runs: int = SETUP_RUNS):
    """Untraced run: (counts, metric values).

    Set-up is timed `setup_runs` times, spread evenly over the run so that
    its median sees the same machine as the passes do."""
    _setup_seconds(workload.setup_command)  # the first start after a checkout writes bytecode
    setup = []

    def time_setup(elapsed: float) -> None:
        while len(setup) < setup_runs and elapsed >= len(setup) * seconds / setup_runs:
            setup.append(_setup_seconds(workload.setup_command))

    results = []
    start = clock()
    while not results or clock() - start < seconds:
        time_setup(clock() - start)
        results.append(workload.run_pass(len(results), in_process=False))
    time_setup(float("inf"))
    busy = sum(float(np.sum(r.latencies, dtype=np.float64)) for r in results)
    # cli-batch passes record their children's peak; the other workloads run
    # the library in this process, whose rusage would start from the peak of
    # the process that started the benchmark
    peak_kb = max(r.detail.get("peak_rss_kb", 0) for r in results)
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(r.items for r in results) / busy,
        "peak_rss_mb": (peak_kb or own_peak_kb()) / 1024.0,
    }
    return _counts(results), values


def per_layer(workload, seconds: float, importtime_runs: int = IMPORTTIME_RUNS):
    """Traced run: for `seconds`, each pass runs in process twice, first
    untraced and then under the tracer, so that both see the same machine
    state.  Returns (counts, metric values); every time and count is per
    traced pass.

    The traced wall time splits into module self times, wrapper cost,
    benchmark-side time (outside the passes' timed program regions,
    measured on its own) and what is left: program time that no span and
    no wrapper accounts for, ``trace.unattributed_s``."""
    numpy_s, hopfrot_s = import_seconds(importtime_runs)

    def run_check_key(check):
        return check.name, check.samples

    cost = wrapper_cost()
    tracer = ModuleTracer(labels={"verify.run_check": run_check_key}, cost=cost)
    draws = DrawTimer()
    untraced, traced = [], []
    wall_untraced = wall = 0.0
    started = clock()
    while not traced or clock() - started < seconds:
        start = clock()
        untraced.append(workload.run_pass(len(traced), in_process=True))
        wall_untraced += clock() - start
        drawing = draws.install(sys.modules["hopfrot.verify"])
        tracer.install()
        try:
            start = clock()
            traced.append(workload.run_pass(len(traced), in_process=True))
            wall += clock() - start
        finally:
            tracer.uninstall()
            if drawing:
                draws.uninstall()

    passes = len(traced)
    values = dict.fromkeys(_OWNED_LAYER_METRICS, 0.0)
    for m in MODULES:
        calls, self_s = tracer.calls[m], tracer.self_s[m]
        values[f"{m}.calls"] = calls / passes
        values[f"{m}.self_s"] = self_s / passes
        values[f"{m}.self_share"] = self_s / wall
        values[f"{m}.per_call_us"] = self_s / calls * 1e6 if calls else 0.0
    program = sum(float(np.sum(r.latencies, dtype=np.float64)) for r in traced)
    wrappers = sum(tracer.calls.values()) * sum(cost)
    values["bench.self_s"] = (wall - program) / passes
    values["trace.wrapper_s"] = wrappers / passes
    values["trace.wrapper_per_call_us"] = sum(cost) * 1e6
    values["trace.unattributed_s"] = (program - sum(tracer.self_s.values()) - wrappers) / passes
    values["trace.wall_s"] = wall / passes
    values["trace.overhead_ratio"] = wall / wall_untraced
    for name in sys.modules["hopfrot.verify"].CATALOG:
        spans = [(k[1] * c, s) for k, (c, s) in tracer.labelled.items() if k[0] == name]
        seconds_in = sum(s for _, s in spans)
        values[f"verify.check.{name}.samples_per_s"] = (
            sum(n for n, _ in spans) / seconds_in if seconds_in else 0.0
        )
    if drawing:
        values["verify.draw_s"] = draws.seconds / passes
    values["setup.import_numpy_s"] = numpy_s
    values["setup.import_hopfrot_s"] = hopfrot_s
    values.update(workload.layer_values(traced, untraced))
    return _counts(untraced + traced), values
