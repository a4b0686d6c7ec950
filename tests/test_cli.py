import json
import math

import numpy as np
import pytest

from goldens import CONVERT_IN, FIBER_IN, ROTATE_IN, check_golden, run_cli


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
