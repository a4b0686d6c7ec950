"""The batch commands against the scalar library calls, in process.

rotate, hopf and lift evaluate a whole document at once on float64
columns.  These tests check that every byte of their output, and every
warning, is what the scalar functions give one row at a time, on
documents full of poles, signed zeros and off-unit rows, and that no
document, however malformed, ends in a traceback or in non-strict JSON.
"""

import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopfrot import cli
from hopfrot.hopf import LIFTS, HopfVariant, apply_variant, lift_bloch
from hopfrot.quat import ComplexPair, vector_norm
from hopfrot.rotations import axis_angle, rotate, rotate_via_bloch

ROWS = 300


def run_main(argv, stdin):
    """cli.main in process: (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def unit_rows(rng, n, k):
    v = rng.standard_normal((n, k))
    return (v / np.sqrt((v * v).sum(axis=1, keepdims=True))).tolist()


def sphere_rows(rng, band):
    """Points of S^2: poles of both stereographic projections, signed
    zeros, the lift's pinned bases and rows near them, rows off unit norm
    within `band`, and random rows."""
    special = [
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0], [0.0, -0.0, -1.0],
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [-1.0, 0.0, -0.0],
        [0.0, 1.0, 0.0], [-0.0, -1.0, 0.0], [0.6, -0.0, 0.8], [-0.6, 0.0, -0.8],
        [1.0, 1e-12, 0.0], [-1.0, 0.0, 3e-10], [0.6, 0.8, 0.0],
    ]
    rows = special + unit_rows(rng, ROWS - len(special), 3)
    for i in rng.choice(len(rows), ROWS // 3, replace=False):
        rows[i] = [c * (1.0 + float(rng.uniform(-band, band))) for c in rows[i]]
    rng.shuffle(rows)
    return rows


def s3_rows(rng):
    """Points of S^3 (scalar first): w = 0 and z = 0 rows (the poles of the
    classic and Bloch maps), the preimages of (+-1, 0, 0) under the
    quaternion map, signed zeros, rows off unit norm within a third of the
    unit checks' tolerance, and random rows."""
    special = [
        [1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, -0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
        [0.6, 0.8, 0.0, -0.0], [0.0, -0.0, 0.6, 0.8], [-0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, -0.0], [1e-12, 0.0, 1.0, 0.0],
        [0.7071067811865476, 0.0, 0.7071067811865476, 0.0], [1.0, 1e-300, -0.0, 5e-324],
    ]
    rows = special + unit_rows(rng, ROWS - len(special), 4)
    for i in rng.choice(len(rows), ROWS // 3, replace=False):
        rows[i] = [c * (1.0 + float(rng.uniform(-3e-10, 3e-10))) for c in rows[i]]
    rng.shuffle(rows)
    return rows


def pair(row):
    return ComplexPair(complex(row[0], row[1]), complex(row[2], row[3]))


def rotate_bloch_point(aa, p):
    n = vector_norm(p)
    return n * rotate_via_bloch(aa, lift_bloch(np.array(p) / n))


def renormalized(p, warnings):
    n = vector_norm(p)
    if n != 1.0:
        warnings.append(f"warning: renormalizing point (norm {n!r})")
    return [c / n for c in p]


def expected_rotate(convention, rng):
    axis = [0.0, 0.0, 1.0] if rng.random() < 0.5 else unit_rows(rng, 1, 3)[0]
    theta = float(rng.uniform(-7.0, 7.0))
    points = sphere_rows(rng, 1e-6)
    doc = {"axis_angle": {"theta": theta, "axis": axis}, "points": points}
    aa = axis_angle(theta, axis)
    one = rotate if convention == "quat" else rotate_bloch_point
    return doc, {"points": [one(aa, p).tolist() for p in points]}, []


def expected_hopf(variant, rng):
    rows = s3_rows(rng)
    v = HopfVariant(variant)
    if v is HopfVariant.QUAT:
        doc = {"inputs": rows}
    else:
        doc = {"inputs": [{"z": r[:2], "w": r[2:]} for r in rows]}
    return doc, {"points": [apply_variant(v, pair(r)).tolist() for r in rows]}, []


def expected_lift(variant, rng):
    points = sphere_rows(rng, 1e-6)
    warnings = []
    lifted = [LIFTS[HopfVariant(variant)](renormalized(p, warnings)) for p in points]
    if variant == "quat":
        out = [[q.x0, q.x1, q.x2, q.x3] for q in lifted]
    else:
        out = [{"z": [v.z.real, v.z.imag], "w": [v.w.real, v.w.imag]} for v in lifted]
    return {"points": points}, {"lifts": out}, warnings


CASES = [
    (["rotate", "--convention", "quat"], expected_rotate),
    (["rotate", "--convention", "bloch"], expected_rotate),
    (["hopf", "--variant", "classic"], expected_hopf),
    (["hopf", "--variant", "quat"], expected_hopf),
    (["hopf", "--variant", "bloch"], expected_hopf),
    (["lift", "--variant", "classic"], expected_lift),
    (["lift", "--variant", "quat"], expected_lift),
    (["lift", "--variant", "bloch"], expected_lift),
]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("argv,expected", CASES, ids=[" ".join(a[:3:2]) for a, _ in CASES])
def test_batch_matches_scalar_calls(argv, expected, seed):
    doc, out, warnings = expected(argv[2], np.random.default_rng([seed, CASES.index((argv, expected))]))
    code, stdout, stderr = run_main(argv, json.dumps(doc))
    assert code == 0, stderr
    # float reprs are the JSON numbers, so equal text is equal bits
    assert stdout == json.dumps(out, sort_keys=True) + "\n"
    assert stderr.splitlines() == warnings


@pytest.mark.parametrize("convention", ["quat", "bloch"])
def test_overflow_is_a_domain_error(convention):
    doc = '{"axis_angle":{"theta":3.0,"axis":[0.6,0.8,0]},"points":[[1,0,0],[1.7e308,1.7e308,1.7e308]]}'
    code, stdout, stderr = run_main(["rotate", "--convention", convention], doc)
    assert code == 3
    assert stdout == ""
    assert stderr == "error: row 1 [1.7e+308, 1.7e+308, 1.7e+308]: the result overflows the float range\n"


def test_conventions_agree_on_huge_points():
    doc = '{"axis_angle":{"theta":1.0,"axis":[0.6,0.8,0]},"points":[[1e308,-1e308,1e308]]}'
    outs = []
    for convention in ("quat", "bloch"):
        code, stdout, stderr = run_main(["rotate", "--convention", convention], doc)
        assert code == 0, stderr
        outs.append(json.loads(stdout)["points"][0])
    a, b = outs
    assert vector_norm([x - y for x, y in zip(a, b)]) <= 1e-12 * vector_norm(a)


def test_vector_norm_rescales_only_beyond_the_float_range():
    assert vector_norm([1e308, -1e308, 1e308]) == pytest.approx(math.sqrt(3.0) * 1e308, rel=1e-15)
    assert vector_norm([1e154, 1e154, 1e154]) == pytest.approx(math.sqrt(3.0) * 1e154, rel=1e-15)
    assert vector_norm([3e-170, 4e-170]) == pytest.approx(5e-170, rel=1e-15)
    assert vector_norm([5e-324, 0.0, -0.0]) == 5e-324
    assert vector_norm([0.0, -0.0]) == 0.0
    assert vector_norm([0.6, 0.8, 1e-9]) == math.sqrt(math.fsum([0.36, 0.64, 1e-18]))


# -- fuzzing the decoders ----------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2, 2),
    st.sampled_from([1.7e308, -1e308, 1e200, 1e154, 5e-324, 1e-170, -0.0, 0.6, 0.8, 1.0]),
)
junk = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, True, False, None, "1", [], {}]),
    st.integers(),
)
numbers = st.one_of(finite, finite, finite, junk)


def rows(k):
    return st.one_of(
        st.lists(finite, min_size=k, max_size=k),
        st.lists(numbers, min_size=k, max_size=k),
        st.lists(numbers, max_size=k + 1),
        junk,
    )


axes = st.one_of(st.sampled_from([[0, 0, 1], [0.6, 0.8, 0], [1, 0, 0], [0, 0, 1.0000001]]), rows(3))
pairs = st.one_of(
    st.fixed_dictionaries({"z": rows(2), "w": rows(2)}),
    st.dictionaries(st.sampled_from(["z", "w", "x"]), rows(2), max_size=3),
    junk,
)
documents = st.one_of(
    st.tuples(
        st.sampled_from([["rotate", "--convention", "quat"], ["rotate", "--convention", "bloch"]]),
        st.fixed_dictionaries(
            {"axis_angle": st.fixed_dictionaries({"theta": numbers, "axis": axes}),
             "points": st.lists(rows(3), max_size=6)}
        ),
    ),
    st.tuples(
        st.just(["hopf", "--variant", "quat"]),
        st.fixed_dictionaries({"inputs": st.lists(rows(4), max_size=6)}),
    ),
    st.tuples(
        st.sampled_from([["hopf", "--variant", "classic"], ["hopf", "--variant", "bloch"]]),
        st.fixed_dictionaries({"inputs": st.lists(pairs, max_size=6)}),
    ),
    st.tuples(
        st.sampled_from([["lift", "--variant", v] for v in ("classic", "quat", "bloch")]),
        st.fixed_dictionaries({"points": st.lists(rows(3), max_size=6)}),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_fuzzed_documents_end_in_a_defined_way(case):
    argv, doc = case
    code, stdout, stderr = run_main(argv, json.dumps(doc))
    assert code in (0, 2, 3), stderr
    if code == 0:
        json.loads(stdout, parse_constant=_reject_constant)
    else:
        assert stdout == ""
        assert stderr.startswith("error: ") or "\nerror: " in stderr
