"""Run bench/run.py over several seeds and summarise each metric.

    python3 bench/spread.py [--workload cli-batch ...] [--runs 10] [--trace 1]
                            [--out FILE] [--against FILE]

Without ``--workload`` it runs every workload in BENCHMARK.json, so
``--runs 1`` prints every metric of every workload once, with its unit.
For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median; a steady benchmark keeps
each end-to-end spread below a third of the metric's bound.  ``--out``
writes every run's result and environment line plus the summary as JSON.
``--against`` takes such a file from an earlier set of runs and, for each
end-to-end metric, prints by what share the new median is worse than the
old one, against the metric's bound.  Seeds are 1 to ``--runs``; each run
lasts BENCHMARK.json's ``run_seconds``.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def worse_share(new: float, old: float, better: str) -> float:
    """By what share of `old` the median `new` is worse (negative: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    report = {}
    exceeded = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in range(1, args.runs + 1)]
        summary = summarise(runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed operations")
        for name, s in summary.items():
            bound = bounds.get(name)
            note = f"  (bound {bound}, steady below {bound / 3:.3f})" if bound is not None else ""
            print(f"  {name:46s} median {s['median']:<14.6g} {s['unit']:6s} spread {s['spread']:.4f}{note}")
            if bound is not None and workload in earlier:
                old = earlier[workload]["summary"][name]["median"]
                worse = worse_share(s["median"], old, better[name])
                exceeded += worse > bound
                print(f"  {'':46s} earlier median {old:<14.6g} worse by {worse:+.4f} of it"
                      f"{'  EXCEEDS BOUND' if worse > bound else ''}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
