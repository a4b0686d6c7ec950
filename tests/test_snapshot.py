"""tests/snapshot.py, the CLI byte snapshot that compares two versions of
the sources, kept runnable: a small corpus run twice gives the same lines."""

from snapshot import CHECKS, report

SMALL = dict(edge=80, seed=5, points=30, samples=5, batch_seeds=(1,), bench_seeds=(1,))


def test_snapshot_is_deterministic():
    first = report(**SMALL)
    assert first == report(**SMALL)
    outcomes = {line for line in first if line.startswith(("exit ", "raised "))}
    assert {"exit 0", "exit 2", "exit 3"} <= outcomes
    assert not any(line.startswith("raised ") for line in outcomes)
    # a verify output is one line per check, so that a diff names the check
    assert {line.split(":")[0] for line in first if line.startswith("report ")} == {
        f"report {name}" for name in CHECKS
    }
