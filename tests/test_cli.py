import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from goldens import CASES, CHILD_ENV, CONVERT_IN, FIBER_IN, GOLDEN, LIFT_IN, ROTATE_IN, check_golden, run_cli
from hopfrot import cli
from snapshot import FILE, PIPE, run_main, unit_rows


def test_convert_golden():
    res = check_golden("convert.json")
    doc = json.loads(res.stdout)
    assert doc["gq"] == pytest.approx([math.sqrt(0.5), 0, 0, math.sqrt(0.5)])


def test_rotate_golden():
    res = check_golden("rotate.json")
    doc = json.loads(res.stdout)
    np.testing.assert_allclose(doc["points"][0], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(doc["points"][1], [0, 0, 1], atol=1e-12)


def test_hopf_golden():
    res = check_golden("hopf.json")
    doc = json.loads(res.stdout)
    np.testing.assert_allclose(doc["points"][0], [1, 0, 0])
    np.testing.assert_allclose(doc["points"][1], [0, 0, -1], atol=1e-12)


def test_lift_golden():
    check_golden("lift.json")


def test_fiber_golden():
    res = check_golden("fiber.json")
    doc = json.loads(res.stdout)
    assert len(doc["lifts"]) == 4
    assert doc["roundtrip_max_error"] <= 1e-9


def test_verify_golden():
    check_golden("verify.json")


VERIFY_NAMES = {"CATALOG", "CheckReport", "DiagramCheck", "run_all", "run_check"}
# cli.main on each golden case in turn, in one process; after each, whether
# hopfrot.verify has been run, read without loading it
LAZY_CHILD = """
import io, json, sys
from hopfrot import cli
verify = sys.modules["hopfrot.verify"]
for args, stdin in json.loads(sys.argv[1]):
    sys.stdin, sys.stdout = io.StringIO(stdin), io.StringIO()
    code = cli.main(args)
    print(json.dumps([code, sys.stdout.getvalue(), "run_all" in object.__getattribute__(verify, "__dict__")]),
          file=sys.__stdout__)
"""


def test_only_verify_runs_the_harness():
    names = ["rotate.json", "hopf.json", "lift.json", "fiber.json", "convert.json", "verify.json"]
    res = subprocess.run([sys.executable, "-c", LAZY_CHILD, json.dumps([CASES[n] for n in names])],
                         capture_output=True, text=True, env=CHILD_ENV)
    assert res.returncode == 0, res.stderr
    runs = [json.loads(line) for line in res.stdout.splitlines()]
    assert runs == [[0, (GOLDEN / n).read_text(), n == "verify.json"] for n in names]


def test_package_lists_the_verify_names():
    import hopfrot

    star = {}
    exec("from hopfrot import *", star)
    assert VERIFY_NAMES <= set(dir(hopfrot)) & set(star)
    assert all(star[name] is getattr(hopfrot.verify, name) for name in VERIFY_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'encode'"):
        hopfrot.encode


def test_rotate_conventions_agree():
    quat = run_cli(["rotate", "--convention", "quat"], ROTATE_IN)
    blo = run_cli(["rotate", "--convention", "bloch"], ROTATE_IN)
    a = json.loads(quat.stdout)["points"]
    b = json.loads(blo.stdout)["points"]
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_convert_round_trip():
    out = json.loads(run_cli(["convert"], CONVERT_IN).stdout)
    again = run_cli(["convert"], json.dumps({"axis_angle": out["axis_angle"]}))
    doc = json.loads(again.stdout)
    np.testing.assert_allclose(doc["gq"], out["gq"], atol=1e-15)


def test_convert_from_quaternion():
    res = run_cli(["convert"], '{"quaternion": [0, 1, 0, 0]}')
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["axis_angle"]["theta"] == pytest.approx(math.pi)
    assert doc["axis_angle"]["axis"] == pytest.approx([1, 0, 0])


def test_convert_from_su2():
    res = run_cli(["convert"], '{"su2": {"z": [0, -1], "w": [0, 0]}}')
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    # z = -i is gb of a half turn about the z axis; as gq it is -i = gq(-pi, x)
    assert doc["gq"] == pytest.approx([0, -1, 0, 0], abs=1e-12)


def test_degrees_flag():
    res = run_cli(
        ["convert", "--degrees"], '{"axis_angle": {"theta": 90, "axis": [0, 0, 1]}}'
    )
    doc = json.loads(res.stdout)
    assert doc["axis_angle"]["theta"] == pytest.approx(90)
    assert doc["gq"] == pytest.approx([math.sqrt(0.5), 0, 0, math.sqrt(0.5)])


def test_in_file(tmp_path):
    f = tmp_path / "doc.json"
    f.write_text(CONVERT_IN)
    res = run_cli(["convert", "--in", str(f)])
    assert res.returncode == 0


def test_axis_renormalization_warns():
    for doc in (
        '{"axis_angle": {"theta": 1, "axis": [0, 0, 1.0000001]}}',
        '{"quaternion": [0, 0, 1.0000001, 0]}',
        '{"su2": {"z": [0, 0], "w": [0, 1.0000001]}}',
    ):
        res = run_cli(["convert"], doc)
        assert res.returncode == 0
        assert "renormalizing" in res.stderr


def test_empty_points_ok():
    res = run_cli(
        ["rotate"], '{"axis_angle": {"theta": 1, "axis": [0, 0, 1]}, "points": []}'
    )
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"points": []}


def test_lift_near_a_pole_is_a_section():
    # 1e-8 from the north pole: the lift is not the pole's (w = 0), and it
    # maps back to the base exactly
    code, stdout, _ = run_main(["lift", "--variant", "bloch"], '{"points": [[1e-8, 0, 1]]}')
    assert (code, stdout) == (0, '{"lifts": [{"w": [5e-09, 0.0], "z": [1.0, 0.0]}]}\n')
    code, stdout, _ = run_main(["fiber", "--variant", "bloch"], '{"base": [1e-8, 0, 1]}')
    assert code == 0 and json.loads(stdout)["roundtrip_max_error"] == 0.0


class TestExitCodes:
    def test_parse_error_is_2(self):
        assert run_cli(["convert"], "not json").returncode == 2

    def test_unknown_field_is_2(self):
        assert run_cli(["convert"], '{"bogus": 1}').returncode == 2

    def test_domain_error_is_3(self):
        res = run_cli(["convert"], '{"axis_angle": {"theta": 1, "axis": [0, 0, 2]}}')
        assert res.returncode == 3

    def test_off_sphere_fiber_base_is_3(self):
        res = run_cli(["fiber", "--variant", "quat", "--count", "2"], '{"base": [1, 1, 0]}')
        assert res.returncode == 3

    def test_closed_output_pipe_is_2(self, tmp_path):
        # the reader stops after 20 bytes of a 50000-row output: one line on
        # stderr, exit 2, and no traceback when the process exits
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"inputs": unit_rows(np.random.default_rng(0), 50000, 4)}))
        proc = subprocess.Popen([sys.executable, "-m", "hopfrot", "hopf", "--variant", "quat", "--in", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert stderr == b"error: cannot write output: [Errno 32] Broken pipe\n"

    def test_bad_count_is_2(self):
        res = run_cli(["fiber", "--variant", "quat", "--count", "0"], FIBER_IN)
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "args,stdin",
        [
            (["rotate"], '{"axis_angle": {"theta": 1, "axis": [NaN, 0, 1]}, "points": [[1, 0, 0]]}'),
            (["rotate"], '{"axis_angle": {"theta": Infinity, "axis": [0, 0, 1]}, "points": [[1, 0, 0]]}'),
            (["lift", "--variant", "bloch"], '{"points": [[NaN, 0, 1]]}'),
            (["hopf", "--variant", "quat"], '{"inputs": [[NaN, 0, 0, 1]]}'),
            (["convert"], '{"quaternion": [1%s, 0, 0, 0]}' % ("0" * 400)),
        ],
        ids=["nan-axis", "infinite-theta", "nan-lift", "nan-hopf", "int-beyond-float"],
    )
    def test_non_finite_input_is_3(self, args, stdin):
        res = run_cli(args, stdin)
        assert res.returncode == 3
        assert res.stdout == ""
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--samples", "0"],
            ["verify", "--tolerance", "nan"],
            ["verify", "--tolerance", "inf"],
            ["verify", "--tolerance", "0"],
            ["verify", "--tolerance", "-1e-9"],
            ["fiber", "--variant", "quat", "--count", "-1"],
        ],
        ids=["samples-0", "tolerance-nan", "tolerance-inf", "tolerance-0", "tolerance-neg", "count-neg"],
    )
    def test_bad_flag_is_2(self, args):
        res = run_cli(args, FIBER_IN)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "args,stdin,message",
        [
            (["rotate"], '{"points": [[1, 0, 0]]}', "rotate needs axis_angle and points"),
            (["rotate"], '{"axis_angle": {"theta": 1, "axis": [0, 0, 1]}, "points": {}}', "points must be a list"),
            (["hopf", "--variant", "quat"], '{"inputs": {}}', "hopf needs an inputs list"),
            (["lift", "--variant", "bloch"], '{"points": 5}', "lift needs a points list"),
            (["fiber", "--variant", "quat", "--count", "2"], "{}", "fiber needs a base point"),
            (["rotate"], '{"axis_angle": [1, 0, 0, 1], "points": []}', "axis_angle must be an object"),
        ],
        ids=["rotate-parts", "points-list", "hopf-inputs", "lift-points", "fiber-base", "axis-angle-object"],
    )
    def test_document_shape_errors_are_2(self, args, stdin, message):
        assert run_main(args, stdin) == (2, "", f"error: {message}\n")

    def test_undecodable_input_is_2(self, tmp_path):
        f = tmp_path / "doc.json"
        f.write_bytes(b"\xff\xfe")
        for args, stdin in [
            (["convert", "--in", str(f)], ""),
            (["convert"], '{"quaternion": [1%s, 0, 0, 0]}' % ("0" * 5000)),
            (["lift", "--variant", "bloch"], '{"points": %s}' % ("[" * 100000 + "]" * 100000)),
            (["convert"], '{"quaternion": %s}' % ("[" * 100000 + "]" * 100000)),
        ]:
            res = run_cli(args, stdin)
            assert res.returncode == 2
            assert "Traceback" not in res.stderr

    def test_unknown_check_is_2(self):
        assert run_cli(["verify", "--check", "bogus", "--samples", "1"]).returncode == 2

    def test_verify_failure_is_1(self):
        res = run_cli(
            ["verify", "--check", "rephrase", "--samples", "5", "--tolerance", "1e-30"]
        )
        assert res.returncode == 1

    def test_verify_success_is_0(self):
        res = run_cli(["verify", "--check", "rephrase", "--samples", "5"])
        assert res.returncode == 0


# a descriptor closed when the process starts (the shell's "<&-", ">&-" and
# "2>&-") leaves Python's sys.stdin, sys.stdout or sys.stderr None
CLOSE = {"stdin": "<&-", "stdout": ">&-", "stderr": "2>&-"}


def main_closed(stream, args, stdin=""):
    """cli.main in process with sys.<stream> None: (exit code, stdout,
    stderr), "" for the closed one."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    out, err = sys.stdout, sys.stderr
    setattr(sys, stream, None)
    try:
        return cli.main(args), out.getvalue(), err.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def run_closed(stream, args, stdin=""):
    """hopfrot in a child whose `stream` the shell closed: (exit code,
    stdout, stderr)."""
    res = subprocess.run(["sh", "-c", f'exec "$@" {CLOSE[stream]}', "sh", sys.executable, "-m", "hopfrot", *args],
                         input=stdin, capture_output=True, text=True, env=CHILD_ENV)
    return res.returncode, res.stdout, res.stderr


class TestClosedStreams:
    @pytest.mark.parametrize("args", [["rotate"], ["hopf", "--variant", "quat"], ["convert"]], ids=" ".join)
    def test_closed_stdin_is_a_read_error(self, args):
        want = (2, "", "error: cannot read input document: stdin is closed\n")
        assert main_closed("stdin", args) == want
        assert run_closed("stdin", args) == want

    def test_closed_stdin_is_not_read_by_in_file_or_verify(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(ROTATE_IN)
        for args in (["rotate", "--in", str(path)], CASES["verify.json"][0]):
            want = run_main(args, "")
            assert want[0] == 0
            assert main_closed("stdin", args) == want
            assert run_closed("stdin", args) == want

    @pytest.mark.parametrize("name", ["rotate", "verify"])
    def test_closed_stdout_is_an_output_error(self, name, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(ROTATE_IN)
        args = ["rotate", "--in", str(path)] if name == "rotate" else CASES["verify.json"][0]
        want = (2, "", "error: cannot write output: stdout is closed\n")
        assert main_closed("stdout", args) == want
        assert run_closed("stdout", args) == want

    @pytest.mark.parametrize(
        "args,stdin,code",
        [
            (["rotate"], ROTATE_IN, 0),
            (["lift", "--variant", "bloch"], '{"points": [[0, 0, 1.0000001], [0.6, 0.8, 0]]}', 0),
            (["convert"], '{"quaternion": [1.0000001, 0, 0, 0]}', 0),
            (["fiber", "--variant", "quat", "--count", "2"], '{"base": [0, 0, 1.0000001]}', 0),
            (["lift", "--variant", "quat"], '{"points": [[0, 0, 1.0000001], [0, 0, 2]]}', 3),
            (["hopf", "--variant", "quat"], "not json", 2),
        ],
        ids=["rotate", "lift-warns", "convert-warns", "fiber-warns", "domain-error", "parse-error"],
    )
    def test_closed_stderr_changes_no_exit_code_or_output(self, args, stdin, code):
        want = run_main(args, stdin)
        assert want[0] == code
        assert main_closed("stderr", args, stdin) == (*want[:2], "")
        assert run_closed("stderr", args, stdin) == (*want[:2], "")


def run_child(args, stdin, env=CHILD_ENV, **streams):
    """hopfrot in a child fed `stdin` through a pipe, with stdout and stderr
    captured unless `streams` gives them: (exit code, stdout, stderr)."""
    res = subprocess.run([sys.executable, "-m", "hopfrot", *args], input=stdin, text=True, env=env,
                         **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams})
    return res.returncode, res.stdout, res.stderr


# a device on which every write fails with ENOSPC
FULL = "/dev/full"
needs_full = pytest.mark.skipif(not os.path.exists(FULL), reason="no /dev/full")


class TestStreamRules:
    @pytest.mark.parametrize("name", [n for n in CASES if n != "verify.json"], ids=lambda n: n.split(".")[0])
    def test_an_in_file_that_cannot_seek_is_read_as_stdin_is(self, name):
        # /dev/stdin fed by a pipe stands for a FIFO or a process
        # substitution: its bytes go through the temporary file
        args, stdin = CASES[name]
        want = run_main(args, stdin)
        assert want[0] == 0
        assert run_child([*args, "--in", "/dev/stdin"], stdin) == want

    @needs_full
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args,stdin", [(["verify", "--samples", "2"], ""), (["lift", "--variant", "quat"], LIFT_IN)],
                             ids=["verify", "lift"])
    def test_a_failed_write_to_stdout_is_an_output_error(self, args, stdin, unbuffered):
        with open(FULL, "w") as full:
            got = run_child(args, stdin, dict(CHILD_ENV, PYTHONUNBUFFERED=unbuffered), stdout=full)
        assert got == (2, None, "error: cannot write output: [Errno 28] No space left on device\n")

    @needs_full
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", [["--help"], ["rotate", "--help"]], ids=" ".join)
    def test_help_on_a_failing_stdout_is_an_output_error(self, args, unbuffered):
        with open(FULL, "w") as full:
            got = run_child(args, "", dict(CHILD_ENV, PYTHONUNBUFFERED=unbuffered), stdout=full)
        assert got == (2, None, "error: cannot write output: [Errno 28] No space left on device\n")

    def test_help_and_usage_errors_keep_their_exits(self):
        code, stdout, stderr = run_child(["rotate", "--help"], "")
        assert (code, stdout.split(" ", 2)[:2], stderr) == (0, ["usage:", "hopfrot"], "")
        code, stdout, stderr = run_main(["rotate", "--bogus"], "")
        assert (code, stdout) == (2, "")
        assert stderr.endswith("hopfrot: error: unrecognized arguments: --bogus\n")

    def test_every_source_keeps_carriage_returns(self):
        # json reports offsets in the text it is given: a FILE read with
        # universal newlines would lose the two \r and say char 25
        doc = '{"inputs":\r\n [[1,0,0,0]],\r\n}'
        want = "error: cannot read input document: Expecting property name enclosed in double quotes: "
        want += "line 3 column 1 (char 27)\n"
        for route in ([], ["--in", FILE], [PIPE]):
            assert run_main(["hopf", "--variant", "quat", *route], doc) == (2, "", want)

    @needs_full
    @pytest.mark.parametrize("path,mode", [(FULL, "w"), (os.devnull, "r")], ids=["full", "read-only"])
    @pytest.mark.parametrize("rows,code", [([[0, 0, 1.0000001]] * 3000, 0), ([[0, 0, 1.0000001], [0, 0, 2]], 3)],
                             ids=["warns", "domain-error"])
    def test_a_failing_stderr_loses_only_the_diagnostics(self, path, mode, rows, code):
        # a descriptor open only for reading is what a shell script, such as
        # a pyenv shim run with 2>&-, leaves on descriptor 2
        args, stdin = ["lift", "--variant", "bloch"], json.dumps({"points": rows})
        want = run_main(args, stdin)
        assert want[0] == code and want[2]
        with open(path, mode) as stderr:
            assert run_child(args, stdin, stderr=stderr) == (*want[:2], None)
