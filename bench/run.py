"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-catalog --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it reports the
per-layer ones.  Output: one line per metric, one ``env`` line with the
environment fingerprint, and last a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(args, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result(attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hopfrot" / "__init__.py").is_file():
        print(f"error: no hopfrot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads

    if Path(workloads.hopfrot.__file__).resolve().parent != SRC / "hopfrot":
        print(f"error: hopfrot imported from {workloads.hopfrot.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    measure = workloads.per_layer if args.trace else workloads.end_to_end
    counts, values = measure(workload, args.seconds)
    attempted, failed = counts["attempted"], counts["failed"]
    out = result(attempted, failed, values, declared_metrics(bool(args.trace)))

    for name, m in out["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':48s} {failed / attempted:>16.6g} ({failed} of {attempted} operations failed)")
    print(f"{counts['passes']} passes, {counts['requests']} timed requests")
    print("env " + json.dumps(fingerprint(args, numpy.__version__), sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
