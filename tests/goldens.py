"""The golden CLI transcripts under tests/golden, shared by test_cli and
test_acceptance.

Each golden command runs twice per test session, the second run checking
byte determinism, however many tests replay it.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import hopfrot

GOLDEN = Path(__file__).parent / "golden"
# the child runs the package this session imports, installed or not
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(Path(hopfrot.__file__).parents[1]), os.environ.get("PYTHONPATH")])),
)

CONVERT_IN = '{"axis_angle": {"theta": 1.5707963267948966, "axis": [0, 0, 1]}}\n'
ROTATE_IN = (
    '{"axis_angle": {"theta": 1.5707963267948966, "axis": [0, 0, 1]},'
    ' "points": [[1, 0, 0], [0, 0, 1]]}\n'
)
HOPF_IN = '{"inputs": [[1, 0, 0, 0], [0.7071067811865476, 0, 0.7071067811865476, 0]]}\n'
LIFT_IN = '{"points": [[0, 0, 1], [1, 0, 0]]}\n'
FIBER_IN = '{"base": [0, 0, 1]}\n'

# golden file -> (arguments, stdin)
CASES = {
    "convert.json": (["convert"], CONVERT_IN),
    "rotate.json": (["rotate"], ROTATE_IN),
    "hopf.json": (["hopf", "--variant", "quat"], HOPF_IN),
    "lift.json": (["lift", "--variant", "bloch"], LIFT_IN),
    "fiber.json": (["fiber", "--variant", "bloch", "--count", "4"], FIBER_IN),
    "verify.json": (["verify", "--check", "odot-lemma", "--samples", "50", "--seed", "1"], ""),
}


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "hopfrot", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


@functools.cache
def _golden_runs(name):
    args, stdin = CASES[name]
    return run_cli(args, stdin), run_cli(args, stdin)


def check_golden(name):
    """Assert that the golden command for `name` succeeds, is byte
    deterministic and matches its transcript; return the first run."""
    first, second = _golden_runs(name)
    assert first.returncode == 0, f"{CASES[name][0]}: {first.stderr}"
    assert first.stdout == second.stdout  # byte determinism
    assert first.stdout == (GOLDEN / name).read_text()
    return first
