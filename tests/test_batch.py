"""The batch commands against the scalar library calls, in process.

rotate, hopf and lift evaluate a whole document at once on float64
columns, and fiber all its phases, a block at a time.  These tests check
that every byte of their output, and every warning, is what the scalar
functions give one row (or phase) at a time, on documents full of poles,
signed zeros and off-unit rows, and that no document, however malformed,
ends in a traceback or in non-strict JSON.
"""

import cmath
import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from goldens import CHILD_ENV
from hopfrot import cli
from hopfrot.hopf import LIFTS, MAPS, HopfVariant, lift_bloch
from hopfrot.quat import ComplexPair, Quaternion, to_complex_pair, vector_norm
from hopfrot.rotations import axis_angle, rotate, rotate_via_bloch
from snapshot import (
    AXIS,
    BATCH,
    FILE,
    PAIR,
    PIPE,
    ROTATE,
    SCAN_EDGES,
    VARIANTS,
    Pipe,
    batch_document,
    run_main,
    sliced_cases,
    unit_rows,
)


def pair(row):
    return ComplexPair(complex(row[0], row[1]), complex(row[2], row[3]))


def rotate_bloch_point(aa, p):
    n = vector_norm(p)
    return n * rotate_via_bloch(aa, lift_bloch(np.array(p) / n))


def renormalized(p, warnings, what="point"):
    n = vector_norm(p)
    if n != 1.0:
        warnings.append(f"warning: renormalizing {what} (norm {n!r})")
    return [c / n for c in p]


def pair_json(v):
    return {"z": [v.z.real, v.z.imag], "w": [v.w.real, v.w.imag]}


def expected_rotate(argv, doc):
    convention = argv[2]
    aa = axis_angle(doc["axis_angle"]["theta"], doc["axis_angle"]["axis"])
    one = rotate if convention == "quat" else rotate_bloch_point
    return {"points": [one(aa, p).tolist() for p in doc["points"]]}, []


def expected_hopf(argv, doc):
    variant = argv[2]
    rows = doc["inputs"] if variant == "quat" else [r["z"] + r["w"] for r in doc["inputs"]]
    v = HopfVariant(variant)
    return {"points": [MAPS[v].scalar(pair(r)).tolist() for r in rows]}, []


def expected_lift(argv, doc):
    variant = argv[2]
    warnings = []
    lift = LIFTS[HopfVariant(variant)].scalar
    lifted = [lift(renormalized(p, warnings)) for p in doc["points"]]
    if variant == "quat":
        out = [[q.x0, q.x1, q.x2, q.x3] for q in lifted]
    else:
        out = [pair_json(v) for v in lifted]
    return {"lifts": out}, warnings


def expected_fiber(argv, doc):
    """The fiber one phase at a time: the canonical lift times e^{it}, by
    cmath.exp or by the quaternion cos t + i sin t, and the round trip of
    each point through the scalar Hopf map."""
    variant, count = HopfVariant(argv[2]), int(argv[4])
    warnings = []
    base = renormalized(doc["base"], warnings, "base")
    lift = LIFTS[variant].scalar(base)
    lifts = []
    for m in range(count):
        t = 2.0 * math.pi * m / count
        if variant is HopfVariant.QUAT:
            lifts.append(to_complex_pair(lift * Quaternion(math.cos(t), math.sin(t), 0.0, 0.0)))
        else:
            lifts.append(lift.scale(cmath.exp(1j * t)))
    errors = np.array([MAPS[variant].scalar(v) for v in lifts]) - np.array(base)
    if variant is HopfVariant.QUAT:
        out = [[v.z.real, v.z.imag, v.w.real, v.w.imag] for v in lifts]
    else:
        out = [pair_json(v) for v in lifts]
    return {"lifts": out, "roundtrip_max_error": max(map(vector_norm, errors.tolist()))}, warnings


EXPECTED = {"rotate": expected_rotate, "hopf": expected_hopf, "lift": expected_lift, "fiber": expected_fiber}


def check_batch(argv, doc, text=None):
    """The output of `argv` on `doc`, or on `text` that decodes to it."""
    out, warnings = EXPECTED[argv[0]](argv, doc)
    code, stdout, stderr = run_main(argv, text or json.dumps(doc))
    assert code == 0, stderr
    # float reprs are the JSON numbers, so equal text is equal bits; split,
    # since pytest's report of two long unequal lines takes minutes
    assert stdout.split(", ") == (json.dumps(out, sort_keys=True) + "\n").split(", ")
    assert stderr.splitlines() == warnings


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("index", range(len(BATCH)), ids=[" ".join(a[:3:2]) for a, _ in BATCH])
def test_batch_matches_scalar_calls(index, seed):
    check_batch(*batch_document(index, seed))


# rotate in both conventions, hopf classic and lift bloch, as the reader's
# blocks and, with a repeated key, as the one array of the whole text
PAST_ONE_BLOCK = {
    **{" ".join(BATCH[i][0][:3:2]): (i, False) for i in (0, 1, 2, 7)},
    **{" ".join(BATCH[i][0][:3:2]) + " repeated-key": (i, True) for i in (0, 1, 2, 7)},
}


@pytest.mark.parametrize("index,repeated", PAST_ONE_BLOCK.values(), ids=PAST_ONE_BLOCK.keys())
def test_batch_past_one_block_matches_scalar_calls(index, repeated):
    if not repeated:
        check_batch(*batch_document(index, 1, cli._BLOCK + 1))
        return
    # _scan hands the document back, and _rows cuts json.loads's rows into
    # blocks of _BLOCK: the warnings of a lift cross both cuts
    argv, doc = batch_document(index, 1, 2 * cli._BLOCK + 5)
    key = "inputs" if argv[0] == "hopf" else "points"
    if argv[0] == "lift":
        off = [vector_norm(p) != 1.0 for p in doc[key]]
        assert any(off[: cli._BLOCK]) and any(off[cli._BLOCK :])
    text = '{"%s": [], %s' % (key, json.dumps(doc)[1:])
    assert cli._scan(io.StringIO(text).read, *SCAN_ROWS[argv[0] if argv[0] != "hopf" else argv[2]]) is None
    check_batch(argv, doc, text)


FIBER_BASES = {
    "i": [1, 0, 0],  # the quaternion lift's pinned bases
    "-i": [-1, 0, 0],
    "k": [0, 0, 1],
    "-k": [0, 0, -1],
    "random": unit_rows(np.random.default_rng(13), 1, 3)[0],
    "off-unit": [c * (1.0 + 1e-7) for c in unit_rows(np.random.default_rng(14), 1, 3)[0]],
}


@pytest.mark.parametrize("base", FIBER_BASES.values(), ids=FIBER_BASES.keys())
@pytest.mark.parametrize("variant", VARIANTS)
def test_fiber_matches_scalar_calls(variant, base):
    for count in (1, 2, 3, 7, cli._BLOCK, cli._BLOCK + 1, 2 * cli._BLOCK + 5):
        check_batch(["fiber", "--variant", variant, "--count", str(count)], {"base": base})


def traced_peak(argv, stdin):
    """The tracemalloc peak of cli.main(argv) in process, its stdout and
    stderr sent to os.devnull."""
    saved = sys.stdin, sys.stdout, sys.stderr
    with open(os.devnull, "w") as null:
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), null, null
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.stdin, sys.stdout, sys.stderr = saved


@pytest.mark.parametrize("variant", VARIANTS)
def test_fiber_memory_does_not_grow_with_count(variant):
    argv = ["fiber", "--variant", variant, "--count"]
    base = json.dumps({"base": FIBER_BASES["random"]})
    traced_peak(argv + ["1"], base)  # the first call's one-time allocations
    assert traced_peak(argv + ["20000"], base) <= 1.25 * traced_peak(argv + ["4096"], base)


@pytest.mark.parametrize("variant", ["classic", "bloch"])
def test_pair_memory_is_that_of_quaternion_rows(variant):
    # pair objects are decoded straight to rows, not kept as a dict and two
    # lists each: on 20000 rows, tracemalloc peaks measured 5.95 MB for the
    # quaternion lists and 11.72 MB for the pairs when they were kept, 5.79
    # MB when they are not
    rows = unit_rows(np.random.default_rng(0), 20000, 4)
    quat = json.dumps({"inputs": rows})
    pairs = json.dumps({"inputs": [{"z": r[:2], "w": r[2:]} for r in rows]})
    traced_peak(["hopf", "--variant", "quat"], quat)  # the first call's one-time allocations
    assert traced_peak(["hopf", "--variant", variant], pairs) <= 1.25 * traced_peak(["hopf", "--variant", "quat"], quat)


@pytest.mark.parametrize("argv", [["rotate"], ["hopf", "--variant", "quat"], ["hopf", "--variant", "classic"],
                                  ["lift", "--variant", "bloch"]], ids=" ".join)
def test_batch_memory_is_a_small_multiple_of_the_document(argv):
    # rows are read a slice at a time, and evaluated and written a block at
    # a time, so what a command holds beside the document text is its rows
    # and results as float64 arrays: on 20000 rows, tracemalloc peaks
    # measured 1.71-1.86 times the text's length, against 2.91-3.80 when
    # the whole parsed list of rows was held
    rng = np.random.default_rng(0)
    rows = unit_rows(rng, 20000, 4 if argv[0] == "hopf" else 3)
    if argv[0] == "rotate":
        doc = {"axis_angle": {"theta": 1.0, "axis": [0.0, 0.6, 0.8]}, "points": rows}
    elif argv[-1] == "classic":
        doc = {"inputs": [{"z": r[:2], "w": r[2:]} for r in rows]}
    else:
        doc = {"inputs" if argv[0] == "hopf" else "points": rows}
    text = json.dumps(doc)
    traced_peak(["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]]}')  # the first call's one-time allocations
    assert traced_peak(argv, text) <= 2.25 * len(text)


def memory_document(argv):
    """A document of 20000 seeded unit rows for `argv`, as json.dumps writes it."""
    rows = unit_rows(np.random.default_rng(0), 20000, 4 if argv[0] == "hopf" else 3)
    if argv[0] == "rotate":
        return json.dumps({"axis_angle": {"theta": 1.0, "axis": [0.0, 0.6, 0.8]}, "points": rows})
    if argv[-1] in ("classic", "bloch") and argv[0] == "hopf":
        return json.dumps({"inputs": [{"z": r[:2], "w": r[2:]} for r in rows]})
    return json.dumps({"inputs" if argv[0] == "hopf" else "points": rows})


@pytest.mark.parametrize("argv", [["rotate"], ["hopf", "--variant", "quat"], ["hopf", "--variant", "classic"],
                                  ["lift", "--variant", "bloch"]], ids=" ".join)
def test_batch_memory_does_not_grow_with_the_document_text(argv):
    # the text is read a chunk at a time and never held whole, so padding
    # each row with whitespace until the text is three times as long leaves
    # the peak where it was: a whole read of the text would add twice its
    # unpadded length, against a peak of under twice that length
    text = memory_document(argv)
    gap = "}, {" if argv[-1] == "classic" else "], ["
    padded = text.replace(gap, gap[:2] + " " * (2 * len(text) // 20000) + gap[2:])
    assert 2.9 * len(text) < len(padded) < 3.1 * len(text)
    traced_peak(["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]]}')  # the first call's one-time allocations
    assert traced_peak(argv, padded) <= 1.1 * traced_peak(argv, text)


WIDTHS = {"rotate": (3, 3), "hopf --variant quat": (4, 3), "lift --variant bloch": (3, 4), "lift --variant quat": (3, 4)}


@pytest.mark.parametrize("command", WIDTHS)
def test_batch_memory_is_the_rows_in_and_out(command):
    # each row is held once, in the float64 block its slice was read into,
    # and each block is let go once evaluated: on 20000 rows, tracemalloc
    # peaks measured 0.91-1.07 times the float64 bytes of the rows in and
    # out, against 1.24-1.56 when the blocks were joined into one array
    argv = command.split()
    text = memory_document(argv)
    traced_peak(["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]]}')  # the first call's one-time allocations
    assert traced_peak(argv, text) <= 1.2 * 8 * 20000 * sum(WIDTHS[command])


@pytest.mark.parametrize("convention", ["quat", "bloch"])
def test_overflow_is_a_domain_error(convention):
    doc = '{"axis_angle":{"theta":3.0,"axis":[0.6,0.8,0]},"points":[[1,0,0],[1.7e308,1.7e308,1.7e308]]}'
    code, stdout, stderr = run_main(["rotate", "--convention", convention], doc)
    assert code == 3
    assert stdout == ""
    assert stderr == "error: row 1 [1.7e+308, 1.7e+308, 1.7e+308]: the result overflows the float range\n"


def test_tiny_bloch_states_are_projected():
    one = run_main(["hopf", "--variant", "bloch"], '{"inputs":[{"z":[1,0],"w":[1,0]}]}')
    tiny = run_main(["hopf", "--variant", "bloch"], '{"inputs":[{"z":[1e-200,0],"w":[1e-200,0]}]}')
    assert tiny == one == (0, '{"points": [[1.0, -0.0, 0.0]]}\n', "")
    zero = run_main(["hopf", "--variant", "bloch"], '{"inputs":[{"z":[0,-0.0],"w":[-0.0,0]}]}')
    assert zero == (3, "", "error: Bloch projection of the zero vector\n")


BLOCH_ROWS = '{"axis_angle":{"theta":1,"axis":[0,0,1]},"points":[[1,0,0],%s,%s]}'
HUGE, ORIGIN = "[1.7e308,1.7e308,1.7e308]", "[0,0,0]"
PAIRS = '{"inputs":[{"z":[0.6,0],"w":[0,0.8]},%s]}'


@pytest.mark.parametrize(
    "argv,doc,code,stderr",
    [
        (["lift", "--variant", "quat"], '{"points":[[0,0,1.0000001],[1,0,0],[0.6,0.8,true],[0,0,2]]}', 2,
         "warning: renormalizing point (norm 1.0000001)\nerror: point must be a number\n"),
        (["hopf", "--variant", "bloch"],
         '{"inputs":[{"z":[1,0],"w":[0,0]},{"z":[1,0],"w":[0,NaN]},{"z":[1],"w":[0,0]}]}', 3,
         "error: input pair.w must be finite\n"),
        (["rotate"], '{"axis_angle":{"theta":1,"axis":[0,0,1]},"points":[[1,0,0],[1,0],[1,0,NaN]]}', 2,
         "error: point must be a list of 3 numbers\n"),
        # rows that decode but fail: the first one's error, whatever follows it
        (["rotate", "--convention", "bloch"], BLOCH_ROWS % (HUGE, ORIGIN), 3,
         "error: row 1 [1.7e+308, 1.7e+308, 1.7e+308]: the result overflows the float range\n"),
        (["rotate", "--convention", "bloch"], BLOCH_ROWS % (ORIGIN, HUGE), 3,
         "error: cannot rotate the origin via the Bloch route\n"),
        (["hopf", "--variant", "quat"], '{"inputs":[[1,0,0,0],[2,0,0,0],[0,0,3,0]]}', 3,
         "error: quaternion norm 2.0 is not 1\n"),
        # pair objects that are not plain {"z": [a, b], "w": [c, d]}: z is
        # checked before w, whatever the key order
        (["hopf", "--variant", "classic"], PAIRS % '{"w":[NaN,0],"z":[true,0]}', 2,
         "error: input pair.z must be a number\n"),
        # a repeated key keeps its last value
        (["hopf", "--variant", "bloch"], PAIRS % '{"z":[NaN,0],"z":[1,0],"w":[0,null]}', 2,
         "error: input pair.w must be a number\n"),
        (["hopf", "--variant", "classic"], PAIRS % '{"z":[1,0],"w":[0,0],"z":[NaN,0]}', 3,
         "error: input pair.z must be finite\n"),
        (["hopf", "--variant", "bloch"], PAIRS % '{"z":[1,0],"w":[0,0],"x":1}', 2,
         "error: unknown fields: ['x']\n"),
        (["hopf", "--variant", "classic"], '{"z":[1,0],"w":[0,0]}', 2, "error: unknown fields: ['w', 'z']\n"),
        (["hopf", "--variant", "bloch"], PAIRS % '{"z":{"z":[1,0],"w":[0,0]},"w":[0,0]}', 2,
         "error: input pair.z must be a list of 2 numbers\n"),
        (["hopf", "--variant", "classic"], PAIRS % '{"z":[1,0],"w":[true,0]}', 2,
         "error: input pair.w must be a number\n"),
        (["hopf", "--variant", "bloch"], PAIRS % '{"z":[null,0],"w":[0,0]}', 2,
         "error: input pair.z must be a number\n"),
        (["hopf", "--variant", "classic"], PAIRS % '{"z":[1,"0"],"w":[0,0]}', 2,
         "error: input pair.z must be a number\n"),
        (["hopf", "--variant", "bloch"], PAIRS % ('{"z":[1,0],"w":[0,1%s]}' % ("0" * 399)), 3,
         "error: input pair.w must be finite\n"),
        (["hopf", "--variant", "classic"], PAIRS % '{"z":[1,0],"w":[NaN,0]}', 3,
         "error: input pair.w must be finite\n"),
        # documents the slice scan of row lists hands to json.loads: a
        # repeated row key keeps its last list
        (["hopf", "--variant", "bloch"], '{"inputs": [%s], "inputs": [{"z": [NaN, 0], "w": [0, 0]}]}' % PAIR, 3,
         "error: input pair.z must be finite\n"),
        (["hopf", "--variant", "quat"], '{"inp\\u0075ts": [[1, 0, 0, 0]], "x": 1}', 2,
         "error: unknown fields: ['x']\n"),
        (["rotate"], ROTATE % '[1, 0, 0], "]", [0, 1, 0]', 2, "error: point must be a list of 3 numbers\n"),
        (["lift", "--variant", "bloch"], '{"points": [[1, "]", 0]]}', 2, "error: point must be a number\n"),
        (["hopf", "--variant", "classic"], '{"inputs": [%s, "}", %s]}' % (PAIR, PAIR), 2,
         "error: input pair must be an object with z and w\n"),
        (["hopf", "--variant", "bloch"], '{"inputs": [{"z": [1, 0], "w": [0, 0], "}": 1}]}', 2,
         "error: unknown fields: ['}']\n"),
        (["lift", "--variant", "quat"], '{"points": [[0.6, 0.8, 0], [1, [0], 0]]}', 2,
         "error: point must be a number\n"),
        (["rotate"], ROTATE % '[1, 0, 0], {"x": [1, 0, 0]}', 2, "error: point must be a list of 3 numbers\n"),
        (["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0], true]}', 2,
         "error: input quaternion must be a list of 4 numbers\n"),
        (["hopf", "--variant", "quat"], '{"inputs": [[1, true, 0, 0]]}', 2, "error: input quaternion must be a number\n"),
        (["lift", "--variant", "bloch"], '{"points": [[0.6, 0.8, 0], [NaN, 0, 1]]}', 3, "error: point must be finite\n"),
        (["rotate"], ROTATE % ("[1, 0, 1%s]" % ("0" * 399)), 3, "error: point must be finite\n"),
        (["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]]} x', 2,
         "error: cannot read input document: Extra data: line 1 column 28 (char 27)\n"),
        (["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]]}}', 2,
         "error: cannot read input document: Extra data: line 1 column 27 (char 26)\n"),
        (["lift", "--variant", "quat"], '{"points": [[1, 0, 0]],}', 2, "error: cannot read input document: "
         "Expecting property name enclosed in double quotes: line 1 column 24 (char 23)\n"),
        (["lift", "--variant", "quat"], '{"points": [[1, 0, 0],]}', 2,
         "error: cannot read input document: Expecting value: line 1 column 23 (char 22)\n"),
        (["lift", "--variant", "quat"], '{"points": [[1, 0, 0]] "x": 1}', 2,
         "error: cannot read input document: Expecting ',' delimiter: line 1 column 24 (char 23)\n"),
        (["lift", "--variant", "quat"], "[[1, 0, 0]]", 2, "error: input document must be a JSON object\n"),
    ],
    ids=["lift", "hopf", "rotate", "bloch-overflow-then-origin", "bloch-origin-then-overflow", "quat-norms",
         "pair-w-before-z", "pair-repeated-key", "pair-repeated-key-bad", "pair-third-key", "document-is-a-pair",
         "pair-as-z", "pair-true", "pair-null", "pair-string", "pair-400-digits", "pair-nan",
         "scan-repeated-key", "scan-escaped-key", "scan-string-bracket", "scan-string-in-row", "scan-string-brace",
         "scan-brace-key", "scan-nested-list", "scan-object", "scan-true", "scan-true-in-row", "scan-nan",
         "scan-400-digits", "scan-trailing-word", "scan-trailing-brace", "scan-trailing-comma",
         "scan-trailing-row-comma", "scan-missing-comma", "scan-not-an-object"],
)
def test_first_bad_row_reports_its_error(argv, doc, code, stderr):
    # the warnings of the rows before it come first, as one scalar call per row prints them
    assert run_main(argv, doc) == (code, "", stderr)


SCAN_DOCS = SCAN_EDGES + sliced_cases()
# the documents that the slice scan reads itself; it hands the rest, with
# a repeated key, a bad row or bad JSON, to json.loads and the row-by-row path
SCAN_READS = {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, *range(len(SCAN_EDGES), len(SCAN_EDGES) + 5)}
SCAN_ROWS = {"rotate": (3, False), "quat": (4, False), "classic": (4, True), "bloch": (4, True), "lift": (3, False)}


@pytest.mark.parametrize("index", range(len(SCAN_DOCS)))
def test_scanned_documents_give_what_json_loads_gives(index, monkeypatch):
    argv, text = SCAN_DOCS[index]
    rows = SCAN_ROWS[argv[0] if argv[0] != "hopf" else argv[2]]
    assert (cli._scan(io.StringIO(text).read, *rows) is not None) == (index in SCAN_READS)
    got = run_main(argv, text)
    assert run_main([*argv, "--in", FILE], text) == got
    monkeypatch.setattr(cli, "_scan", lambda *args: None)
    assert run_main(argv, text) == got


@pytest.mark.parametrize("index", range(len(SCAN_EDGES), len(SCAN_EDGES) + 5))
def test_sliced_documents_match_scalar_calls(index):
    argv, text = SCAN_DOCS[index]
    check_batch(argv, json.loads(text), text)


NO_DOC = "error: cannot read input document: "
# documents at the edges of the reader, and the exit code, stdout and
# stderr that reading the whole text at once gave for each, from stdin, a
# seekable one or one that cannot seek, and (where it differs) from a file
# of its text's UTF-8 bytes
HAND_MADE = {
    "bom": (["lift", "--variant", "quat"], '\ufeff{"points": [[1, 0, 0]]}',
            (2, "", NO_DOC + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n")),
    "deep": (["lift", "--variant", "bloch"], '{"points": %s}' % ("[" * 100000 + "]" * 100000),
             (2, "", NO_DOC + "maximum recursion depth exceeded while decoding a JSON array from a unicode string\n")),
    "repeated-not-list": (["lift", "--variant", "quat"], '{"points": [[1, 0, 0]], "points": {"x": 1}}',
                          (2, "", "error: lift needs a points list\n")),
    "list-axis-angle": (["rotate"], '{"axis_angle": [1, 0, 0], "points": [[1, 0, 0]]}',
                        (2, "", "error: axis_angle must be an object\n")),
    "unknown-list": (["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]], "extra": [[1, 0, 0, 0]]}',
                     (2, "", "error: unknown fields: ['extra']\n")),
    "nul-after": (["lift", "--variant", "bloch"], '{"points": [[0, 0, 1]]}\x00',
                  (2, "", NO_DOC + "Extra data: line 1 column 24 (char 23)\n")),
    "1e400": (["rotate", "--convention", "bloch"], ROTATE % "[1e400, 0, 0]", (3, "", "error: point must be finite\n")),
    "-Infinity": (["hopf", "--variant", "quat"], '{"inputs": [[-Infinity, 0, 0, 0]]}',
                  (3, "", "error: input quaternion must be finite\n")),
    "key-escape": (["lift", "--variant", "classic"], '{"poi\\qnts": [[1, 0, 0]]}',
                   (2, "", NO_DOC + "Invalid \\escape: line 1 column 6 (char 5)\n")),
    "unclosed": (["hopf", "--variant", "bloch"], '{"inputs": [%s]' % PAIR,
                 (2, "", NO_DOC + "Expecting ',' delimiter: line 1 column 44 (char 43)\n")),
    "control": (["rotate"], '{"axis_angle": %s, "points": [[1, 0, 0]], "note": "a\x01b"}' % AXIS,
                (2, "", NO_DOC + "Invalid control character at: line 1 column 82 (char 81)\n")),
    "pair-keys": (["hopf", "--variant", "classic"], '{"inputs": [{"z": [0.6, 0], "w": [0, 0.8], "z": [0, 0.6]}]}',
                  (0, '{"points": [[0.9599999999999999, 0.0, -0.2800000000000001]]}\n', "")),
    "empty": (["lift", "--variant", "quat"], "", (2, "", NO_DOC + "Expecting value: line 1 column 1 (char 0)\n")),
    "blank": (["hopf", "--variant", "quat"], " \n\t", (2, "", NO_DOC + "Expecting value: line 2 column 2 (char 3)\n")),
    "escaped-byte-key": (["lift", "--variant", "quat"], '{"points": [[1, 0, 0]], "\udcff": 1}',
                         (2, "", "error: unknown fields: ['\\udcff']\n"),
                         (2, "", NO_DOC + "'utf-8' codec can't decode byte 0xff in position 25: invalid start byte\n")),
}


@contextlib.contextmanager
def fed(fifo, data):
    """`data` written to the named pipe `fifo` by a thread while the block
    reads it; what the block leaves unread is dropped."""
    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield
    finally:  # a reader, so that a writer the block never met opens, and fails
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=30)
    assert not writer.is_alive()


@pytest.mark.parametrize("case", HAND_MADE.values(), ids=HAND_MADE.keys())
def test_hand_made_documents_give_what_the_whole_text_gave(case, tmp_path):
    argv, text, got, *from_file = case
    assert run_main(argv, text) == got
    assert run_main([*argv, PIPE], text) == got
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert run_main([*argv, "--in", str(path)], "") == (from_file or [got])[0]
    fifo = tmp_path / "doc.fifo"  # a FIFO, as --in reads one: through the temporary file
    os.mkfifo(fifo)
    with fed(fifo, path.read_bytes()):
        assert run_main([*argv, "--in", str(fifo)], "") == (from_file or [got])[0]


@pytest.mark.parametrize("name", ["pair-keys", "unclosed", "escaped-byte-key", "deep"])
def test_stdin_is_read_whole_without_a_temporary_file(name, monkeypatch, tmp_path):
    argv, text, got, *_ = HAND_MADE[name]
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert run_main([*argv, PIPE], text) == got


def test_a_failed_write_to_the_temporary_file_is_a_read_error(monkeypatch):
    class Full(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", Full)
    assert run_main(["hopf", "--variant", "quat", PIPE], '{"inputs": [[1, 0, 0, 0]]}') == (
        2, "", NO_DOC + "[Errno 28] No space left on device\n")


@pytest.mark.parametrize("name", ["pair-keys", "unclosed", "escaped-byte-key", "deep"])
def test_a_seekable_stdin_is_read_in_place(name, monkeypatch, capsys, tmp_path):
    # a StringIO, and a regular file on stdin, are read where they are,
    # never copied to a temporary file
    argv, text, got, *from_file = HAND_MADE[name]
    made = []
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: made.append(args) or io.BytesIO())
    assert run_main(argv, text) == got
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with open(path, encoding="utf-8") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        assert (cli.main(argv), *capsys.readouterr()) == (from_file or [got])[0]
    assert made == []


def test_undecodable_byte_past_the_first_chunk_reports_its_offset(tmp_path):
    # the codec's error names the byte's offset in the whole input, from a
    # file and from a strictly decoded stdin; stdin decoded with
    # surrogateescape reads the byte as a character
    raw = ('{"points": [%s], "\udcff": 1}' % ", ".join(["[0.6, 0.8, 0.0]"] * 5000)).encode("utf-8", "surrogateescape")
    assert raw.index(b"\xff") == 85014 > cli._SLICE
    error = NO_DOC + "'utf-8' codec can't decode byte 0xff in position 85014: invalid start byte\n"
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    assert run_main(["lift", "--variant", "quat", "--in", str(path)], "") == (2, "", error)
    for encoding, stderr in [("utf-8:strict", error), ("utf-8:surrogateescape", "error: unknown fields: ['\\udcff']\n")]:
        res = subprocess.run([sys.executable, "-m", "hopfrot", "lift", "--variant", "quat"], input=raw,
                             capture_output=True, env=dict(CHILD_ENV, PYTHONIOENCODING=encoding))
        assert (res.returncode, res.stdout, res.stderr.decode()) == (2, b"", stderr)


@pytest.mark.parametrize("encoding", ["utf-8:strict", "utf-8:surrogateescape"])
def test_undecodable_byte_past_the_first_chunk_of_an_in_file_pipe_reports_its_offset(encoding):
    # --in /dev/stdin fed by a pipe is copied to the temporary file and
    # decoded from there as --in decodes a file, strict UTF-8, however
    # stdin would decode it
    raw = ('{"points": [%s], "\udcff": 1}' % ", ".join(["[0.6, 0.8, 0.0]"] * 5000)).encode("utf-8", "surrogateescape")
    assert raw.index(b"\xff") == 85014 > cli._SLICE
    res = subprocess.run([sys.executable, "-m", "hopfrot", "lift", "--variant", "quat", "--in", "/dev/stdin"],
                         input=raw, capture_output=True, env=dict(CHILD_ENV, PYTHONIOENCODING=encoding))
    assert (res.returncode, res.stdout, res.stderr.decode()) == (
        2, b"", NO_DOC + "'utf-8' codec can't decode byte 0xff in position 85014: invalid start byte\n")


@pytest.mark.parametrize("variant", ["classic", "bloch"])
def test_pair_key_order_and_repeated_keys_decode_as_json_does(variant):
    plain = run_main(["hopf", "--variant", variant], PAIRS % '{"z":[0,0.8],"w":[0.6,0]}')
    assert plain[0] == 0
    for row in ('{"w":[0.6,0],"z":[0,0.8]}', '{"z":[NaN,0],"w":[0.6,0],"z":[0,0.8]}'):
        assert run_main(["hopf", "--variant", variant], PAIRS % row) == plain


def test_renormalization_warnings_precede_the_out_of_band_row(monkeypatch, capsys):
    # the warnings of the rows before it, in order, then its error; the rows
    # after it warn of nothing
    points = [[0, 0, 1.0000000000000002], [0.6, 0.8, 0], [1e-4, 0, 1], [0, 0, 0.9999999999999998],
              [0, 3, 4], [0, 0, 1.0000000000000004]]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"points": points})))
    assert cli.main(["lift", "--variant", "bloch"]) == 3
    assert capsys.readouterr() == (
        "",
        "warning: renormalizing point (norm 1.0000000000000002)\n"
        "warning: renormalizing point (norm 1.000000005)\n"
        "warning: renormalizing point (norm 0.9999999999999998)\n"
        "error: point norm 5.0 is outside the renormalization band\n",
    )


def late_row(argv, row, at=250):
    """A document for `argv` of 300 seeded rows, with `row` at index `at`."""
    argv, doc = batch_document([a for a, _ in BATCH].index(argv), 4)
    doc["points"][at] = row
    return argv, doc


HUGE_ROW = [1.7e308, 1.7e308, 1.7e308]
OVERFLOW = "error: row 250 [1.7e+308, 1.7e+308, 1.7e+308]: the result overflows the float range\n"
# each of test_batch's commands, and rows after the first block that fail,
# with the last line of stderr they must give
BOUNDARY_DOCS = {
    **{" ".join(a[:3:2]): (*batch_document(i, 3), None) for i, (a, _) in enumerate(BATCH)},
    "rotate quat overflow": (*late_row(["rotate", "--convention", "quat"], HUGE_ROW), OVERFLOW),
    "rotate bloch overflow": (*late_row(["rotate", "--convention", "bloch"], HUGE_ROW), OVERFLOW),
    "lift bloch out of band": (*late_row(["lift", "--variant", "bloch"], [0, 3, 4]),
                               "error: point norm 5.0 is outside the renormalization band\n"),
}


@pytest.mark.parametrize("argv,doc,error", BOUNDARY_DOCS.values(), ids=BOUNDARY_DOCS.keys())
def test_block_boundaries_change_nothing(argv, doc, error, monkeypatch):
    # slices of about 100 characters put a row or two in each block; exit
    # code, output, warnings and errors are those of 64 KB slices, and an
    # error names the row by its index in the whole list
    text = json.dumps(doc)
    got = run_main(argv, text)
    assert got[0] == (3 if error else 0) and got[2].endswith(error or "")
    monkeypatch.setattr(cli, "_SLICE", 100)
    rows = cli._scan(io.StringIO(text).read, *SCAN_ROWS[argv[0] if argv[0] != "hopf" else argv[2]])
    assert len(rows["inputs" if argv[0] == "hopf" else "points"]) > 100
    assert run_main(argv, text) == got


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


# -- the document reader against json.loads ------------------------------------


def row_array(rows, width, pairs):
    """rows as an (N, width) float64 array if each is a list of `width`
    finite numbers (with `pairs`, an object of just z and w, each a list of
    two, as the row z + w), else None."""
    if pairs:
        if not all(type(r) is dict and sorted(r) == ["w", "z"] for r in rows):
            return None
        if not all(type(r[k]) is list and len(r[k]) == 2 for r in rows for k in "zw"):
            return None
        rows = [r["z"] + r["w"] for r in rows]
    if not all(type(r) is list and len(r) == width and all(type(x) in (int, float) for x in r) for r in rows):
        return None
    try:
        arr = np.array([[float(x) for x in r] for r in rows], dtype=np.float64).reshape(-1, width)
    except OverflowError:
        return None
    return arr if np.isfinite(arr).all() else None


def whole_text_doc(text, width, pairs):
    """What the reader must give for a document whose whole text is `text`:
    json.loads's document, with each top-level list as row_array's array
    when every one of them is a list of rows and no top-level key repeats;
    else json.loads's own document, or the error that ends the command."""
    sizes = []  # of each object json.loads decodes; the top level is the last
    try:
        doc = json.loads(text, object_pairs_hook=lambda p: sizes.append(len(p)) or dict(p))
    except (ValueError, RecursionError) as e:
        return f"cannot read input document: {e}"
    if not isinstance(doc, dict):
        return "input document must be a JSON object"
    arrays = {k: row_array(v, width, pairs) for k, v in doc.items() if type(v) is list}
    if len(doc) == sizes[-1] and all(a is not None for a in arrays.values()):
        doc.update(arrays)
    return doc


def same_doc(got, want):
    """got and want are equal documents, arrays bit for bit, or the same
    error; where want has an array, got has a list of float64 blocks of its
    row width that join to it."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    got = dict(got)
    for k in set(got) & set(want):
        if type(want[k]) is np.ndarray and type(got[k]) is list:
            assert got[k] and all(type(b) is np.ndarray and b.dtype == np.float64
                                  and b.shape[1:] == want[k].shape[1:] for b in got[k])
            got[k] = np.concatenate(got[k])
    return list(got) == list(want) and all(
        type(got[k]) is type(want[k])
        and (got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes()
             if type(want[k]) is np.ndarray else repr(got[k]) == repr(want[k]))
        for k in want
    )


def read_doc(stdin, width, pairs, path=None):
    """cli._load_doc's document, or its error's message."""
    saved, sys.stdin = sys.stdin, stdin
    try:
        return cli._load_doc(path, width, pairs)
    except cli.ParseError as e:
        return str(e)
    finally:
        sys.stdin = saved


ws = st.text(alphabet=" \t\r\n", max_size=3)
good_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["1.7e308", "5e-324", "-0.0", "0.6", "1E2", "-1e-5", "2e+3"]),
)
bad_number = st.sampled_from(
    ["NaN", "-Infinity", "Infinity", "1e400", "1" + "0" * 400, "true", "null", '"]"', '"}"', "[0]", "{}", "-", "01"]
)
# string content: multi-byte UTF-8, a surrogate-escaped byte, JSON escapes
# and the row brackets; in a bad document also a control character or a
# bad escape
STRING_CHARS = ["a", "z", " ", "]", "}", ",", ":", "é", "€", "😀", "\udcff", '\\"', "\\u00e9", "\\ud83d\\ude00",
                "\\n"]
PAIR_KEYS = [["z", "w"], ["w", "z"], ["z", "w", "z"], ["\\u007a", "w"], ["z"], ["z", "w", "x"], ["w", "w"]]


def number(clean):
    return good_number if clean else st.one_of(good_number, good_number, good_number, good_number, bad_number)


def string(clean):
    chars = STRING_CHARS + ([] if clean else ["\x01", "\\x"])
    return st.lists(st.sampled_from(chars), max_size=6).map(lambda s: '"%s"' % "".join(s))


@st.composite
def json_list(draw, item, max_size):
    items = draw(st.lists(item, max_size=max_size))
    return "[" + draw(ws) + ",".join(draw(ws) + x + draw(ws) for x in items) + "]"


@st.composite
def number_row(draw, k, clean):
    n = k if clean else draw(st.sampled_from([k, k, k, k - 1, k + 1, 0]))
    return "[" + ",".join(draw(ws) + draw(number(clean)) + draw(ws) for _ in range(n)) + "]"


@st.composite
def pair_row(draw, clean):
    keys = draw(st.sampled_from(PAIR_KEYS[: 4 if clean else None]))
    return "{" + ",".join(draw(ws) + '"%s"' % k + draw(ws) + ":" + draw(ws) + draw(number_row(2, clean)) + draw(ws)
                          for k in keys) + "}"


def row_list(width, pairs, clean):
    row = pair_row(clean) if pairs else number_row(width, clean)
    return json_list(row if clean else st.one_of(row, row, row, row, number(clean)), 6)


@st.composite
def reader_documents(draw):
    """(width, pairs, text): a document of top-level keys, row lists among
    them, with random whitespace and keys that are escaped or hold
    multi-byte characters; half of them also with bad rows, bad strings,
    repeated keys, trailing data, a text that is not an object, or a
    character deleted or replaced at a random place."""
    width, pairs = draw(st.sampled_from([(3, False), (4, False), (4, True)]))
    clean = draw(st.booleans())
    rows = row_list(width, pairs, clean)
    value = st.one_of(rows, rows, rows, number(clean), string(clean), st.just('{"theta": 1, "axis": [0, 0, 1]}'),
                      *[] if clean else [json_list(string(clean), 3)])
    key = st.one_of(st.sampled_from(['"points"', '"inputs"', '"p\\u006fints"']), string(clean))
    fields = draw(st.lists(st.tuples(key, value), max_size=3, unique_by=(lambda f: f[0]) if clean else None))
    if clean:  # and a list of rows
        fields.insert(draw(st.integers(0, len(fields))), ('"points"' if fields else '"\\u0069nputs"', draw(rows)))
    text = draw(ws) + "{" + draw(ws) + ",".join(
        draw(ws) + k + draw(ws) + ":" + draw(ws) + v + draw(ws) for k, v in fields) + "}" + draw(ws)
    if clean:
        return width, pairs, text
    text += draw(st.sampled_from(["", "", "x", "}", "\x00", "[]", "\ufeff"]))
    text = draw(st.sampled_from([text, text, "[%s]" % text, "\ufeff" + text]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["", "[", "]", "}", ",", '"', "é"])) + text[at + 1:]
    return width, pairs, text


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much, HealthCheck.data_too_large])
@given(reader_documents(), st.integers(1, 40))
def test_reader_gives_json_loads_arrays_or_hands_back(case, cut):
    # documents read from stdin as text, from stdin's bytes, seekable or
    # not, decoded with surrogateescape and strictly, and from a file, with
    # slices (and reads) of 1-40 characters, so that cuts fall everywhere:
    # multi-byte UTF-8 characters, keys, numbers and rows straddle them
    width, pairs, text = case
    raw = text.encode("utf-8", "surrogateescape")
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "_SLICE", cut)
        want = whole_text_doc(text, width, pairs)
        assert same_doc(read_doc(io.StringIO(text), width, pairs), want)
        for errors in ("surrogateescape", "strict"):
            try:
                want = whole_text_doc(raw.decode("utf-8", errors), width, pairs)
            except UnicodeDecodeError as e:
                want = f"cannot read input document: {e}"
            for buffer in (io.BytesIO, Pipe):  # read in place, and through the temporary file
                stdin = io.TextIOWrapper(buffer(raw), encoding="utf-8", errors=errors, newline="\n")
                assert same_doc(read_doc(stdin, width, pairs), want)
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as f:
            f.write(raw)
        try:
            with open(path, encoding="utf-8", newline="") as f:
                want = whole_text_doc(f.read(), width, pairs)
        except UnicodeDecodeError as e:
            want = f"cannot read input document: {e}"
        assert same_doc(read_doc(io.StringIO(""), width, pairs, path), want)
