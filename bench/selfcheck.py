"""Fast self-check of the benchmark itself (a few seconds).

    python3 bench/selfcheck.py

Runs every workload at a tiny size, traced and untraced, and checks that
each metric BENCHMARK.json declares is emitted with its unit, that no
operation fails and that module self times, wrapper cost and the
separately measured benchmark-side time account for the traced wall time.  Then feeds one deliberately perturbed output to each oracle and
checks that it is counted as a failure.  Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

import oracle
import run

sys.path.insert(0, str(run.SRC))

import hopfrot  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "verify-catalog": {"samples": 5},
    "cli-batch": {"points": 20},
    # one pass still leaves 10 rounds beyond p99
    "scalar-calls": {"rounds": workloads.P99_MIN_SAMPLES},
}
# metrics that only their own workload makes nonzero
OWNED = {
    "verify-catalog": ("verify.check.", "verify.useful_ratio", "verify.draw_s"),
    "cli-batch": ("cli.",),
    "scalar-calls": ("scalar.",),
}
# the layers each workload loads; it must bypass the others
LOADS = {
    "verify-catalog": ("verify", "rotations", "hopf", "su2", "sphere", "quat"),
    "cli-batch": ("cli", "rotations", "hopf", "su2", "sphere", "quat"),
    "scalar-calls": ("rotations", "hopf", "su2", "sphere", "quat"),
}
PERTURB = 1e-6
# largest share of the traced wall time that no span, wrapper or
# benchmark-side region may leave unaccounted for
UNATTRIBUTED_MAX = 0.02

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def metrics_emitted(name: str) -> None:
    for trace in (False, True):
        workload = workloads.WORKLOADS[name](1, **TINY[name])
        if trace:
            counts, values = workloads.per_layer(workload, 0.0, importtime_runs=1)
        else:
            counts, values = workloads.end_to_end(workload, 0.0, setup_runs=1)
        attempted, failed = counts["attempted"], counts["failed"]
        declared = run.declared_metrics(trace)
        out = run.result(attempted, failed, values, declared)
        json.dumps(out, allow_nan=False)
        label = f"{name} trace={int(trace)}"
        check(failed == 0 and attempted > 0, f"{label}: {failed} of {attempted} operations failed")
        check(set(values) == set(declared), f"{label}: metrics {sorted(set(values) ^ set(declared))}")
        check(all(out["metrics"][n]["unit"] == u for n, u in declared.items() if n in values),
              f"{label}: units differ from BENCHMARK.json")
        if not trace:
            check(all(v > 0 for v in values.values()), f"{label}: an end-to-end metric is 0")
            continue
        owned = [n for n in values if n.startswith(OWNED[name])]
        check(owned and all(values[n] > 0 for n in owned), f"{label}: owned metric is 0")
        loaded = {m for m in workloads.MODULES if values[f"{m}.calls"] > 0}
        check(loaded == set(LOADS[name]), f"{label}: loads {sorted(loaded)}")
        unattributed = values["trace.unattributed_s"] / values["trace.wall_s"]
        check(values["bench.self_s"] >= 0 and abs(unattributed) <= UNATTRIBUTED_MAX,
              f"{label}: {unattributed:.1%} of the traced wall time is unaccounted for")


def _perturbed(out):
    if isinstance(out, np.ndarray):
        out = out.copy()
        out[0] += PERTURB
        return out
    first = dataclasses.fields(out)[0].name
    return dataclasses.replace(out, **{first: getattr(out, first) + PERTURB})


def scalar_oracles() -> None:
    rounds = 4
    for name in workloads.SCALAR_CALLS:
        original = getattr(hopfrot, name)
        setattr(hopfrot, name, lambda *a, _f=original: _perturbed(_f(*a)))
        try:
            result = workloads.ScalarCalls(1, rounds=rounds).run_pass(0, in_process=True)
        finally:
            setattr(hopfrot, name, original)
        check(result.failed == rounds, f"scalar oracle for {name}: {result.failed} of {rounds} caught")


def cli_oracles() -> None:
    batch = workloads.CliBatch(1, points=4)
    for j, (argv, stdin, job_check) in enumerate(batch.jobs):
        code, out, _, _, _ = workloads._main_in_process(argv, stdin)
        label = f"cli oracle for {' '.join(argv)}"
        check(batch._output_ok(j, code, out, job_check), f"{label}: correct output rejected")
        batch.reference[j] = None
        doc = json.loads(out)
        key = "points" if "points" in doc else "lifts"
        row = doc[key][0]
        if isinstance(row, dict):
            row["z"][0] += PERTURB
        else:
            row[0] += PERTURB
        bad = json.dumps(doc).encode()
        check(not batch._output_ok(j, 0, bad, job_check), f"{label}: perturbed output accepted")
        nan = out.replace(b"[", b"[NaN, ", 1)
        check(not batch._output_ok(j, 0, nan, job_check), f"{label}: non-strict JSON accepted")
        check(not batch._output_ok(j, 3, out, job_check), f"{label}: nonzero exit accepted")


def report_oracles() -> None:
    report = hopfrot.run_check(hopfrot.DiagramCheck("odot-lemma", 5, 1, oracle.TOLERANCE)).to_dict()
    encoded = json.dumps(report, sort_keys=True)
    check(oracle.report_ok(report, encoded, encoded), "report oracle: correct report rejected")
    cases = {
        "failures": dict(report, failures=1),
        "non-finite deviation": dict(report, max_deviation=float("nan")),
    }
    for what, bad in cases.items():
        check(not oracle.report_ok(bad, encoded, encoded), f"report oracle: {what} accepted")
    differs = json.dumps(dict(report, worst_input=report["worst_input"] + " "), sort_keys=True)
    check(not oracle.report_ok(report, differs, encoded), "report oracle: changed bytes accepted")


def main() -> int:
    for name in workloads.WORKLOADS:
        metrics_emitted(name)
    scalar_oracles()
    cli_oracles()
    report_oracles()
    print("selfcheck: " + (f"{len(failures)} failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
