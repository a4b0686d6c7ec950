"""tests/snapshot.py, the CLI and library byte snapshot that compares two
versions of the sources, kept runnable: a small corpus run twice gives the
same lines, and its sections and the run_all hashes are those of the
committed manifest (tests/manifest.json; the full corpora are checked by
`python tests/snapshot.py src --check-manifest tests/manifest.json`)."""

import json

from snapshot import CHECKS, LIBRARY, MANIFEST, SMALL, manifest, moved, report

# the calls that the scalar-calls benchmark times (bench/workloads.py SCALAR_CALLS)
SCALAR_CALLS = [
    "rotate", "gq", "gb", "quat_hopf", "bloch", "hopf_classic", "lift_bloch", "lift_quat_hopf",
    "rotate_via_bloch",
]
TOLERANCE_ARGV = ["verify", "--samples", "5", "--seed", "3", "--tolerance", "1e-30"]


def test_snapshot_is_deterministic():
    first = report(**SMALL)
    assert first == report(**SMALL)
    outcomes = {line for line in first if line.startswith(("exit ", "raised "))}
    assert {"exit 0", "exit 1", "exit 2", "exit 3"} <= outcomes
    # the one traceback is the stuck sampler's, at pole guard 10
    assert {line for line in outcomes if line.startswith("raised ")} == {
        "raised RuntimeError: check rephrase: sampler stuck near a pole"
    }
    # a verify output is one line per check, so that a diff names the check
    assert {line.split(":")[0] for line in first if line.startswith("report ")} == {
        f"report {name}" for name in CHECKS
    }
    # at tolerance 1e-30 every sample whose deviation is not exactly 0 fails
    case = first.index(f"## verify seed 3 tolerance 1e-30 {' '.join(TOLERANCE_ARGV)}")
    assert first[case + 2] == "exit 1"
    reports = [json.loads(line.split(": ", 1)[1]) for line in first[case + 3 : case + 3 + len(CHECKS)]]
    assert all(r["failures"] > 0 for r in reports)


def test_library_section_calls_every_scalar_call():
    lines = report(**SMALL)
    section = lines[lines.index("## library") + 1 :]
    called = {line.split(" ", 1)[0] for line in section if not line.startswith("warned ")}
    assert set(SCALAR_CALLS) <= called
    assert called == set(LIBRARY)
    # a result and a raised error both show
    assert any(": Quaternion(x0=" in line for line in section)
    assert any(": raised NotUnit: " in line for line in section)


def test_small_corpus_and_run_all_match_the_manifest():
    with open(MANIFEST, encoding="utf-8") as f:
        committed = json.load(f)
    assert moved(committed, manifest({"small": SMALL})) == []
