"""Byte snapshot of the CLI and the scalar library calls for a fixed corpus.

    python tests/snapshot.py SRC_DIR > snapshot.txt

imports hopfrot from SRC_DIR and runs `hopfrot.cli.main` in process on

- the batch documents of tests/test_batch.py (seeds 1 and 2);
- the cli-batch benchmark documents (seeds 1-3, --points rows each);
- a seeded corpus of malformed and edge documents for all six
  subcommands (--edge documents);
- fixed documents that the CLI's slice scan of row lists must hand to
  json.loads, and documents of three and four slices, each read from a
  seekable stdin, from a file (--in) and from a stdin that cannot seek,
  as a pipe's;
- `fiber --count 2049`, one point more than a block, for each variant
  over fixed bases;
- `verify` over the whole catalog at --samples samples: seeds 0, 1 and 7;
  seed 3 with the pole guard widened to 0.5, so that checks redraw; seed 3
  at tolerance 1e-30, so that every sample with a nonzero deviation fails
  and `failures` counts them; seed 3 with the pole guard at 10, so that
  the first guarded check raises its stuck-sampler error; and seed 5 with
  blocks of at most 50 candidates, at the default tolerance and at 1e-30,
  so that failures and worst rows are reduced over many blocks;

then, in a library section, calls the scalar functions of LIBRARY in
process on seeded unit inputs and edge inputs, one line per call.

    python tests/snapshot.py SRC_DIR --write-manifest tests/manifest.json
    python tests/snapshot.py SRC_DIR --check-manifest tests/manifest.json

write, or check against, the committed manifest: for each corpus of
CORPORA, each section kind's line count and SHA-256, and the SHA-256 of
repr(run_all(10**4, s, 1e-9)) for s = 0, 1 and 2.  The check prints each
entry that moved and exits 1 if any did.

The documents are built with numpy and the standard library alone, never
with hopfrot, so the script runs against any version of the sources, and
`diff` of two runs compares two versions byte for byte.  Long outputs
are printed as their length and SHA-256; a `verify` output is printed as
one line per check, so that a diff names the check whose report moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
import warnings

import numpy as np

ROWS = 300  # rows per batch document

# the corpora of the manifest: a small one, which tier-1 checks, and the
# full corpus at edge seeds 0 and 1
SMALL = dict(edge=80, seed=5, points=30, samples=5, batch_seeds=(1,), bench_seeds=(1,), library=2)
CORPORA = {"small": SMALL, "seed 0": dict(seed=0), "seed 1": dict(seed=1)}
RUN_ALL_SEEDS = (0, 1, 2)
MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "manifest.json")

CHECKS = [
    "rephrase", "quat-identification", "template-classic", "template-quat",
    "template-bloch", "compare-bloch-quat", "odot-lemma", "reconcile",
    "derivation-16-18", "final-diagram", "iso-su2-quat", "fiber-invariance",
]
VARIANTS = ["classic", "quat", "bloch"]


FILE = "FILE"  # in argv, a temporary file that holds the stdin text instead
PIPE = "PIPE"  # in argv, left out: stdin cannot seek, as a pipe cannot


class Pipe(io.BytesIO):
    """Bytes that cannot be sought, as a pipe's."""

    def seekable(self):
        return False


def run_main(argv, stdin, pole_guard=None, max_block=None):
    """cli.main in process: (exit code, stdout, stderr); `pole_guard` and
    `max_block`, if given, stand in for the harness's pole guard and its
    largest block during the call.  stdin is a StringIO of the text; with
    FILE in argv, a file of that name holds the text instead, and with PIPE
    in argv, stdin is its UTF-8 bytes (a surrogate-escaped character as its
    byte) in a Pipe, decoded back."""
    from hopfrot import cli, verify  # here, after main() has put SRC_DIR on sys.path

    if FILE in argv:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(stdin)
            return run_main([path if a == FILE else a for a in argv], "", pole_guard, max_block)
    saved = sys.stdin, sys.stdout, sys.stderr, verify._POLE_GUARD, verify._MAX_BLOCK
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    if PIPE in argv:
        argv = [a for a in argv if a != PIPE]
        sys.stdin = io.TextIOWrapper(Pipe(stdin.encode("utf-8", "surrogateescape")), "utf-8", "surrogateescape", "\n")
    if pole_guard is not None:
        verify._POLE_GUARD = pole_guard
    if max_block is not None:
        verify._MAX_BLOCK = max_block
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr, verify._POLE_GUARD, verify._MAX_BLOCK = saved


# -- the batch documents of tests/test_batch.py ---------------------------------


def unit_rows(rng, n, k):
    v = rng.standard_normal((n, k))
    return (v / np.sqrt((v * v).sum(axis=1, keepdims=True))).tolist()


def sphere_rows(rng, band, n=ROWS):
    """n points of S^2: poles of both stereographic projections, signed
    zeros, the lift's pinned bases and rows near them, rows off unit norm
    within `band`, and random rows."""
    special = [
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0], [0.0, -0.0, -1.0],
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [-1.0, 0.0, -0.0],
        [0.0, 1.0, 0.0], [-0.0, -1.0, 0.0], [0.6, -0.0, 0.8], [-0.6, 0.0, -0.8],
        [1.0, 1e-12, 0.0], [-1.0, 0.0, 3e-10], [0.6, 0.8, 0.0],
    ]
    rows = special + unit_rows(rng, n - len(special), 3)
    for i in rng.choice(len(rows), n // 3, replace=False):
        rows[i] = [c * (1.0 + float(rng.uniform(-band, band))) for c in rows[i]]
    rng.shuffle(rows)
    return rows


def s3_rows(rng, n=ROWS):
    """n points of S^3 (scalar first): w = 0 and z = 0 rows (the poles of the
    classic and Bloch maps), the preimages of (+-1, 0, 0) under the
    quaternion map, signed zeros, rows off unit norm within a third of the
    unit checks' tolerance, and random rows."""
    special = [
        [1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, -0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
        [0.6, 0.8, 0.0, -0.0], [0.0, -0.0, 0.6, 0.8], [-0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, -0.0], [1e-12, 0.0, 1.0, 0.0],
        [0.7071067811865476, 0.0, 0.7071067811865476, 0.0], [1.0, 1e-300, -0.0, 5e-324],
    ]
    rows = special + unit_rows(rng, n - len(special), 4)
    for i in rng.choice(len(rows), n // 3, replace=False):
        rows[i] = [c * (1.0 + float(rng.uniform(-3e-10, 3e-10))) for c in rows[i]]
    rng.shuffle(rows)
    return rows


def rotate_doc(convention, rng, n):
    axis = [0.0, 0.0, 1.0] if rng.random() < 0.5 else unit_rows(rng, 1, 3)[0]
    theta = float(rng.uniform(-7.0, 7.0))
    return {"axis_angle": {"theta": theta, "axis": axis}, "points": sphere_rows(rng, 1e-6, n)}


def hopf_doc(variant, rng, n):
    rows = s3_rows(rng, n)
    if variant == "quat":
        return {"inputs": rows}
    return {"inputs": [{"z": r[:2], "w": r[2:]} for r in rows]}


def lift_doc(variant, rng, n):
    return {"points": sphere_rows(rng, 1e-6, n)}


BATCH = [
    (["rotate", "--convention", "quat"], rotate_doc),
    (["rotate", "--convention", "bloch"], rotate_doc),
    *((["hopf", "--variant", v], hopf_doc) for v in VARIANTS),
    *((["lift", "--variant", v], lift_doc) for v in VARIANTS),
]


def batch_document(index, seed, n=ROWS):
    """(argv, document) of test_batch's case `index` at `seed`, of n rows."""
    argv, build = BATCH[index]
    return argv, build(argv[2], np.random.default_rng([seed, index]), n)


# -- the cli-batch benchmark documents (as bench/workloads.py builds them) -------


def cli_batch_cases(seed, points):
    rng = np.random.default_rng(seed)

    def unit(n, k):
        v = rng.standard_normal((n, k))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    pts = unit(points, 3).tolist()
    quats = unit(points, 4).tolist()
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    axis = unit(1, 3)[0].tolist()
    rotate = {"axis_angle": {"theta": theta, "axis": axis}, "points": pts}
    pairs = {"inputs": [{"z": q[:2], "w": q[2:]} for q in quats]}
    return [
        (["rotate", "--convention", "quat"], rotate),
        (["rotate", "--convention", "bloch"], rotate),
        (["hopf", "--variant", "classic"], pairs),
        (["hopf", "--variant", "quat"], {"inputs": quats}),
        (["hopf", "--variant", "bloch"], pairs),
        *((["lift", "--variant", v], {"points": pts}) for v in VARIANTS),
    ]


# -- fiber over more than one block ----------------------------------------------

FIBER_COUNT = 2049  # the CLI evaluates and writes 2048 points at a time
FIBER_BASES = [[0.48, 0.6, 0.64], [-1, 0, 0], [0, 0, -1], [0, 0.6, 0.8000001]]


# -- malformed and edge documents ------------------------------------------------

NUMBERS = [
    0.0, -0.0, 1.0, -1.0, 0.6, 0.8, 0.7071067811865476, 1e-10, 1e-200, 5e-324,
    1.0000001, 1.000002, 1.7e308, 1e200, 1e154, 3, 0, 1,
]
JUNK = [math.nan, math.inf, -math.inf, 10**400, True, False, None, "1", [], {}]
SPHERE = [
    [0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [-0.0, -0.0, 1.0], [1.0, -0.0, 0.0],
    [0.6, 0.8, 0], [0.6, -0.0, 0.8], [1.0, 1e-12, 0.0], [-1.0, 0.0, 3e-10],
]
S3 = [
    [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0.0, -0.0, -0.0, 0.0], [1e-10, 0, 1e-10, 0],
    [1e-200, 0, 1e-200, 0], [5e-324, 0, 0, 0], [0, 0, 5e-324, 0], [0.6, 0.8, 0, -0.0],
    [0.7071067811865476, 0, 0.7071067811865476, 0], [1.0, 1e-300, -0.0, 5e-324],
]


def _number(rng):
    u = rng.random()
    if u < 0.8:
        return rng.choice(NUMBERS) * rng.choice([1, -1])
    if u < 0.9:
        return rng.uniform(-2.0, 2.0)
    return rng.choice(JUNK)


def _row(rng, k):
    u = rng.random()
    if u < 0.5:
        base = rng.choice(SPHERE if k == 3 else S3 if k == 4 else [[1, 0], [0, 0], [0.6, 0.8]])
        if rng.random() < 0.3:  # off unit norm, inside or outside a band
            f = 1.0 + rng.choice([-1, 1]) * rng.choice([3e-10, 2e-9, 5e-7, 2e-6])
            base = [c * f for c in base]
        elif rng.random() < 0.2:  # tiny or huge
            f = rng.choice([1e-200, 1e-170, 5e-300, 1e154, 1e300])
            base = [c * f for c in base]
        return list(base)
    if u < 0.65:
        v = [rng.gauss(0.0, 1.0) for _ in range(k)]
        n = math.sqrt(sum(c * c for c in v))
        return [c / n for c in v]
    if u < 0.9:
        return [_number(rng) for _ in range(k)]
    if u < 0.95:
        return [_number(rng) for _ in range(rng.choice([0, k - 1, k + 1]))]
    return rng.choice(JUNK)


def _pair(rng):
    u = rng.random()
    if u < 0.5:
        r = _row(rng, 4)
        if type(r) is list and len(r) == 4:
            return {"z": r[:2], "w": r[2:]}
        return {"z": r, "w": _row(rng, 2)}
    if u < 0.85:
        return {"z": _row(rng, 2), "w": _row(rng, 2)}
    if u < 0.9:
        return {"z": _row(rng, 2)}
    if u < 0.95:
        return {"z": [1, 0], "w": [0, 0], "x": 1}
    return rng.choice(JUNK)


def _rows(rng, make):
    return [make() for _ in range(rng.choice([0, 1, 2, 3, 5, 8]))]


def _axis_angle(rng):
    aa = {"theta": _number(rng) if rng.random() < 0.3 else rng.uniform(-7.0, 7.0), "axis": _row(rng, 3)}
    u = rng.random()
    if u < 0.05:
        del aa["axis"]
    elif u < 0.1:
        aa["extra"] = 1
    return aa if rng.random() < 0.97 else rng.choice(JUNK)


def edge_case(rng):
    """One malformed or edge case: (argv, stdin text)."""
    command = rng.choice(["convert", "rotate", "hopf", "lift", "fiber", "verify"])
    degrees = ["--degrees"] if rng.random() < 0.2 else []
    if command == "verify":
        argv = ["verify", "--samples", str(rng.choice([0, 1, 3, 20])), "--seed", str(rng.randrange(9))]
        argv += ["--tolerance", rng.choice(["1e-9", "1e-15", "1e-30", "nan", "inf", "0", "-1"])]
        for name in rng.sample(CHECKS + ["bogus"], rng.choice([1, 2])):
            argv += ["--check", name]
        return argv, ""
    if command == "convert":
        argv = ["convert", *degrees]
        forms = {"axis_angle": _axis_angle, "quaternion": lambda r: _row(r, 4), "su2": _pair}
        keys = rng.sample(sorted(forms), rng.choice([1, 1, 1, 1, 0, 2]))
        doc = {k: forms[k](rng) for k in keys}
    elif command == "rotate":
        argv = ["rotate", "--convention", rng.choice(["quat", "bloch"]), *degrees]
        doc = {"axis_angle": _axis_angle(rng), "points": _rows(rng, lambda: _row(rng, 3))}
    elif command == "hopf":
        variant = rng.choice(VARIANTS)
        argv = ["hopf", "--variant", variant]
        make = (lambda: _row(rng, 4)) if (variant == "quat") == (rng.random() < 0.9) else (lambda: _pair(rng))
        doc = {"inputs": _rows(rng, make)}
    elif command == "lift":
        argv = ["lift", "--variant", rng.choice(VARIANTS)]
        doc = {"points": _rows(rng, lambda: _row(rng, 3))}
    else:
        argv = ["fiber", "--variant", rng.choice(VARIANTS), "--count", str(rng.choice([1, 2, 3, 5, 0]))]
        doc = {"base": _row(rng, 3)}
    u = rng.random()
    if u < 0.03:
        return argv, rng.choice(["", "not json", "[]", "{", '{"points": 5}', '{"inputs": {}}'])
    if u < 0.06:
        doc["bogus"] = 1
    return argv, json.dumps(doc)


def edge_cases(n, seed=0):
    rng = random.Random(seed)
    hand = [
        (["hopf", "--variant", "bloch"], '{"inputs": [{"z": [1e-200, 0], "w": [1e-200, 0]}]}'),
        (["hopf", "--variant", "bloch"], '{"inputs": [{"z": [0, -0.0], "w": [-0.0, 0]}]}'),
        (["lift", "--variant", "quat"], '{"points": [[0, 0, 1.0000001], [1, 0, 0], [0.6, 0.8, true], [0, 0, 2]]}'),
        (["hopf", "--variant", "bloch"],
         '{"inputs": [{"z": [1, 0], "w": [0, 0]}, {"z": [1, 0], "w": [0, NaN]}, {"z": [1], "w": [0, 0]}]}'),
        (["rotate"], '{"axis_angle": {"theta": 1, "axis": [0, 0, 1]}, "points": [[1, 0, 0], [1, 0], [1, 0, NaN]]}'),
        (["verify", "--bogus"], ""),
        (["hopf"], "{}"),
    ]
    # after the seeded documents, so that those keep their labels
    pairs = [(["hopf", "--variant", v], doc) for doc in PAIR_EDGES for v in ("classic", "bloch")]
    return hand + [edge_case(rng) for _ in range(n)] + pairs


# pair documents beyond what json.dumps writes: key order, repeated keys, a
# document that is itself a pair, nested pairs, and bad values in a pair of
# the plain shape; each row after a good one
PAIR_EDGES = ['{"inputs": [{"z": [0.6, 0], "w": [0, 0.8]}, %s]}' % row for row in [
    '{"w": [0, 0.8], "z": [0.6, 0]}', '{"w": [NaN, 0], "z": [true, 0]}',
    '{"z": [NaN, 0], "z": [0.6, 0], "w": [0, 0.8]}', '{"z": [NaN, 0], "z": [1, 0], "w": [0, null]}',
    '{"z": [1, 0], "w": [0, 0], "z": [NaN, 0]}', '{"z": [1, 0], "w": [0, 0], "x": 1}', '{"z": [1, 0]}',
    '{"z": {"z": [1, 0], "w": [0, 0]}, "w": [0, 0]}', '{"z": [{"z": [1, 0], "w": [0, 0]}, 0], "w": [0, 0]}',
    '{"z": [true, 0], "w": [0, 0]}', '{"z": [1, 0], "w": [null, 0]}', '{"z": [1, "0"], "w": [0, 0]}',
    '{"z": [1, 0], "w": [0, 1%s]}' % ("0" * 399), '{"z": [1, 0], "w": [NaN, 0]}', '{"z": [1, 0], "w": [0, 0]}',
]] + ['{"z": [1, 0], "w": [0, 0]}', '{"inputs": {"z": [1, 0], "w": [0, 0]}}', '{"inputs": []}']


# -- documents for the slice scan of row lists -------------------------------------

SLICE = 1 << 16  # the CLI's slice of row text, so that the cuts below fall where named
AXIS = '{"theta": 1, "axis": [0, 0, 1]}'
ROTATE = '{"axis_angle": %s, "points": [%%s]}' % AXIS
PAIR = '{"z": [0.6, 0], "w": [0, 0.8]}'

# valid and bad documents that the scan hands to json.loads, or reads
# itself in an unusual form: repeated, escaped and first or last row keys,
# JSON whitespace, empty lists, rows that are strings holding a row's
# closing bracket, nested lists, objects, true, NaN and 400-digit
# integers, and trailing data
SCAN_EDGES = [
    (["rotate"], '{"axis_angle": %s, "points": [[1, 0, 0]], "points": [[0, 1, 0]]}' % AXIS),
    (["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]], "inputs": [[0, 0, 1, 0]]}'),
    (["hopf", "--variant", "classic"], '{"inputs": [true], "inputs": [%s]}' % PAIR),
    (["hopf", "--variant", "bloch"], '{"inputs": [%s], "inputs": [{"z": [NaN, 0], "w": [0, 0]}]}' % PAIR),
    (["lift", "--variant", "bloch"], '{"\\u0070oints": [[0.6, 0.8, 0]]}'),
    (["rotate", "--convention", "bloch"], '{"axis_angle": %s, "p\\u006fints": [[1, 0, 0]]}' % AXIS),
    (["hopf", "--variant", "quat"], '{"inp\\u0075ts": [[1, 0, 0, 0]], "x": 1}'),
    (["lift", "--variant", "classic"], '\r\n\t{\r\n\t"points"\t:\r\n\t[\t[0.6,\r\n0.8,\t0]\r\n,\n\t[0,\t0,\r1]\t]\r\n}\r\n\t'),
    (["hopf", "--variant", "bloch"], '{\r\n"inputs":\t[\r\n%s\t,\r\n{"w": [1, 0],\n"z": [0, 0]}\n]\r}' % PAIR),
    (["rotate", "--convention", "bloch"], '{"points": [[1, 0, 0], [0, 0.6, 0.8]], "axis_angle": %s}' % AXIS),
    (["rotate", "--convention", "bloch"], ROTATE % "[1, 0, 0], [0, 0.6, 0.8]"),
    (["rotate"], ROTATE % ""),
    (["hopf", "--variant", "quat"], '{"inputs": []}'),
    (["hopf", "--variant", "classic"], '{"inputs": [\n]}'),
    (["lift", "--variant", "quat"], '{"points": [ ]}'),
    (["rotate"], ROTATE % '[1, 0, 0], "]", [0, 1, 0]'),
    (["lift", "--variant", "bloch"], '{"points": [[1, "]", 0]]}'),
    (["hopf", "--variant", "classic"], '{"inputs": [%s, "}", %s]}' % (PAIR, PAIR)),
    (["hopf", "--variant", "bloch"], '{"inputs": [{"z": [1, 0], "w": [0, 0], "}": 1}]}'),
    (["lift", "--variant", "quat"], '{"points": [[0.6, 0.8, 0], [1, [0], 0]]}'),
    (["rotate"], ROTATE % '[1, 0, 0], {"x": [1, 0, 0]}'),
    (["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0], true]}'),
    (["hopf", "--variant", "quat"], '{"inputs": [[1, true, 0, 0]]}'),
    (["lift", "--variant", "bloch"], '{"points": [[0.6, 0.8, 0], [NaN, 0, 1]]}'),
    (["rotate"], ROTATE % ("[1, 0, 1%s]" % ("0" * 399))),
    (["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]]} x'),
    (["hopf", "--variant", "quat"], '{"inputs": [[1, 0, 0, 0]]}}'),
    (["lift", "--variant", "quat"], '{"points": [[1, 0, 0]],}'),
    (["lift", "--variant", "quat"], '{"points": [[1, 0, 0],]}'),
    (["lift", "--variant", "quat"], '{"points": [[1, 0, 0]] "x": 1}'),
    (["lift", "--variant", "quat"], '[[1, 0, 0]]'),
]


def sliced_rows(rows, marks):
    """The text inside a row list's brackets, and its closing bracket:
    `rows` (row texts) joined by ", ", with spaces at the start of each
    slice so that SLICE characters after that start falls, by marks[i],
    "in" a row, on the "gap" between two rows or, the last mark, on the
    list's "end" bracket (after spaces that follow the last row used)."""
    text, start, i = "", 0, 0
    for mark in marks[:-1]:
        for pad in range(SLICE):
            at, j = start + pad, i  # where row j starts
            while at + len(rows[j]) + 2 <= start + SLICE:
                at, j = at + len(rows[j]) + 2, j + 1
            inside = at < start + SLICE < at + len(rows[j]) - 1
            if (mark == "in") == inside and (inside or start + SLICE >= at + len(rows[j])):
                break
        last = j if mark == "in" else j + 1  # the row whose bracket the scan finds
        text += " " * pad + ", ".join(rows[i : last + 1]) + ","
        start, i = len(text), last + 1
    while len(text) + len(rows[i]) + 2 < start + SLICE:
        text += (" " if i else "") + rows[i] + ","
        i += 1
    text = text[:-1]
    return text + " " * (start + SLICE - len(text)) + "]"


def sliced_cases(seed=4):
    """Documents of three and four slices of rows: good ones of each row
    list shape, one with its row list first, and ones whose second or
    last slice holds a bad row or does not parse."""
    rng = np.random.default_rng(seed)
    points = [json.dumps(r) for r in unit_rows(rng, 6000, 3)]
    quats = unit_rows(rng, 6000, 4)
    pairs = [json.dumps({"z": q[:2], "w": q[2:]}) for q in quats]
    quats = [json.dumps(q) for q in quats]
    marks = (["in", "gap", "end"], ["gap", "in", "in", "end"])
    rotate = '{"axis_angle": %s, "points": [%%s}' % AXIS

    def with_row(k, row):  # the points with `row` in place k
        return sliced_rows(points[:k] + [row] + points[k:], marks[0])

    return [
        (["rotate", "--convention", "quat"], rotate % sliced_rows(points, marks[0])),
        (["rotate", "--convention", "bloch"], '{"points": [%s, "axis_angle": %s}' % (sliced_rows(points, marks[1]), AXIS)),
        (["hopf", "--variant", "quat"], '{"inputs": [%s}' % sliced_rows(quats, marks[1])),
        (["hopf", "--variant", "classic"], '{"inputs": [%s}' % sliced_rows(pairs, marks[0])),
        (["lift", "--variant", "bloch"], '{"points": [%s}' % sliced_rows(points, marks[1])),
        # in the second slice, then in the last
        (["lift", "--variant", "quat"], '{"points": [%s}' % with_row(1500, "[0.6, true, 0.8]")),
        (["lift", "--variant", "classic"], '{"points": [%s}' % with_row(1200, "[0.6, 0.8 0]")),
        (["rotate"], rotate % with_row(3000, "[NaN, 0, 1]")),
        (["hopf", "--variant", "bloch"], '{"inputs": [%s}' % sliced_rows(pairs[:1500] + ["[0.6, 0, 0, 0.8]"] + pairs[1500:], marks[0])),
    ]


# -- the library's scalar calls ---------------------------------------------------

# each function and the kinds of its arguments: the nine calls of the
# scalar-calls benchmark (bench/workloads.py), then nine more
LIBRARY = {
    "rotate": ("rotation", "point"),
    "gq": ("rotation",),
    "gb": ("rotation",),
    "quat_hopf": ("quaternion",),
    "bloch": ("pair",),
    "hopf_classic": ("pair",),
    "lift_bloch": ("point",),
    "lift_quat_hopf": ("point",),
    "rotate_via_bloch": ("rotation", "pair"),
    "to_axis_angle": ("quaternion",),
    "su2_from_quat": ("quaternion",),
    "lift_classic": ("point",),
    "project": ("pair",),
    "stereo1": ("point",),
    "stereo3": ("point",),
    "reconcile": ("rotation", "point", "angle", "scalar"),
    "rotate_via_quat_hopf": ("rotation", "quaternion"),
    "fiber_sample": ("variant", "point", "count"),
}
LIBRARY_ROWS = 200  # seeded inputs of each kind, after the edge inputs


def library_inputs(seed, n):
    """Each kind's raw inputs (numbers, strings, lists and tuples): the
    edge inputs, then n seeded ones.  A rotation is (theta, axis), a
    quaternion is scalar first, a pair is (Re z, Im z, Re w, Im w), and a
    fiber scalar is a number or [re, im]; the variants and counts of
    fiber_sample repeat with coprime periods, 3 and 5."""
    rng = np.random.default_rng(seed)
    off = [1e-8, 1.0, math.nan, math.inf]  # off unit norm or not finite
    rotations = [
        (0.0, [0.0, 0.0, 1.0]), (-0.0, [1.0, -0.0, 0.0]), (math.pi, [0.6, 0.8, 0.0]),
        (2.0 * math.pi, [0.0, 0.6, -0.8]), (-7.0, [0.0, 0.0, -1.0]), (1e-300, [0.0, 1.0, 0.0]),
        (1.0, [0.0, 0.0, 1.0000001]), (1.0, [0.0, 0.0, 0.0]), (math.nan, [0.0, 0.0, 1.0]),
        (math.inf, [0.0, 0.0, 1.0]), (1.0, [math.nan, 0.0, 1.0]),
    ]
    rotations += zip(rng.uniform(-7.0, 7.0, n).tolist(), unit_rows(rng, n, 3))
    s3 = S3 + [[x, 0.6, 0.0, 0.8] for x in off] + [[1e-170, 1e-170, 0.0, 0.0], [1e300, 0.0, 1e300, 0.0]]
    scales = np.exp(rng.uniform(-2.0, 2.0, n)).tolist()
    inputs = {
        "rotation": rotations,
        "quaternion": s3 + unit_rows(rng, n, 4),
        "pair": s3 + [[c * s for c in r] for r, s in zip(unit_rows(rng, n, 4), scales)],
        "point": SPHERE + [[0.0, 0.8, x] for x in off] + [[0, 0, 0]] + unit_rows(rng, n, 3),
    }
    # reconcile's fiber choices: the first six meet valid rotations and unit
    # points (three of them pinned bases of the quaternion lift), the last a
    # valid rotation, to which only the zero check applies
    angles = [math.nan, math.inf, math.pi, 1e300, 1e-300, -7.0, 2.0 * math.pi, -0.0, 0.0]
    scalars = [[math.nan, 0.0], [math.inf, 0.0], 2, [0.0, -1.0], [1e300, 1e300], [1e-300, 0.0],
               1.5, 0.0, -0.0, [0.0, 0.0], [-1.0, -0.0], 0]
    magnitudes, phases = np.exp(rng.uniform(-2.0, 2.0, n)).tolist(), rng.uniform(0.0, 2.0 * math.pi, n)
    scalars += [[m * math.cos(t), m * math.sin(t)] for m, t in zip(magnitudes, phases.tolist())]
    rows = len(inputs["point"])
    return {
        **inputs,
        "angle": angles + rng.uniform(0.0, 2.0 * math.pi, n).tolist(),
        "scalar": scalars,
        "variant": (VARIANTS * rows)[:rows],
        "count": ([1, 2, 5, 0, -1] * rows)[:rows],
    }


def _plain(x):
    """x with each ndarray, alone or in a tuple, as its list, which keeps every bit."""
    if isinstance(x, tuple):
        return tuple(map(_plain, x))
    return x.tolist() if isinstance(x, np.ndarray) else x


def library_report(seed=0, n=LIBRARY_ROWS) -> list[str]:
    """One line per call of each LIBRARY function on its inputs: the
    function, its raw inputs and the repr of its result (ndarrays as
    lists), or the exception it raised; then any warning it gave."""
    import hopfrot  # here, after main() has put SRC_DIR on sys.path

    build = {
        "rotation": lambda r: hopfrot.AxisAngle(r[0], tuple(r[1])),
        "quaternion": lambda r: hopfrot.Quaternion(*r),
        "pair": lambda r: hopfrot.ComplexPair(complex(r[0], r[1]), complex(r[2], r[3])),
        "point": lambda r: r,
        "angle": lambda r: r,
        "scalar": lambda r: complex(*r) if isinstance(r, list) else r,
        "variant": hopfrot.HopfVariant,
        "count": lambda r: r,
    }
    inputs = library_inputs(seed, n)
    lines = ["## library"]
    for name, kinds in LIBRARY.items():
        for raw in zip(*(inputs[k] for k in kinds)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = getattr(hopfrot, name)(*(build[k](r) for k, r in zip(kinds, raw)))
                    shown = repr(_plain(out))
                except Exception as e:
                    shown = f"raised {type(e).__name__}: {e}"
            lines.append(f"{name} {raw!r}: {shown}")
            lines += [f"warned {w.category.__name__}: {w.message}" for w in caught]
    return lines


# -- the report --------------------------------------------------------------------

_LONG = 2000


def _text(label, s):
    if len(s) <= _LONG:
        return f"{label}: {s!r}"
    return f"{label}: {len(s)} chars, sha256 {hashlib.sha256(s.encode()).hexdigest()}"


def cases(edge=1000, seed=0, points=20000, samples=300, batch_seeds=(1, 2), bench_seeds=(1, 2, 3)):
    """Every case of the snapshot as (label, argv, stdin), with run_main's
    pole guard and largest block as further items on the verify cases that
    set them; `seed` seeds the edge corpus."""
    out = []
    for s in batch_seeds:
        for i in range(len(BATCH)):
            argv, doc = batch_document(i, s)
            out.append((f"batch {i} seed {s}", argv, json.dumps(doc)))
    for s in bench_seeds:
        for argv, doc in cli_batch_cases(s, points):
            out.append((f"cli-batch seed {s}", argv, json.dumps(doc)))
    for i, (argv, stdin) in enumerate(edge_cases(edge, seed)):
        out.append((f"edge {i}", argv, stdin))
    for i, (argv, stdin) in enumerate(SCAN_EDGES + sliced_cases()):
        out.append((f"scan {i}", argv, stdin))
        out.append((f"scan {i} from a file", [*argv, "--in", FILE], stdin))
        out.append((f"scan {i} from a pipe", [*argv, PIPE], stdin))
    for v in VARIANTS:
        for i, base in enumerate(FIBER_BASES):
            argv = ["fiber", "--variant", v, "--count", str(FIBER_COUNT)]
            out.append((f"fiber base {i}", argv, json.dumps({"base": base})))
    for s in (0, 1, 7):
        out.append((f"verify seed {s}", ["verify", "--samples", str(samples), "--seed", str(s)], ""))
    argv = ["verify", "--samples", str(samples), "--seed", "3"]
    out.append(("verify seed 3 pole guard 0.5", argv, "", 0.5))
    out.append(("verify seed 3 tolerance 1e-30", [*argv, "--tolerance", "1e-30"], ""))
    out.append(("verify seed 3 pole guard 10", argv, "", 10.0))
    argv = ["verify", "--samples", str(samples), "--seed", "5"]
    out.append(("verify seed 5 blocks of 50", argv, "", None, 50))
    out.append(("verify seed 5 blocks of 50 tolerance 1e-30", [*argv, "--tolerance", "1e-30"], "", None, 50))
    return out


def _stdout(argv, stdout) -> list[str]:
    """stdout's lines in the snapshot: `report <name>: <json>` for each
    report of a verify document, else the text itself."""
    if argv[0] != "verify" or not stdout:
        return [_text("stdout", stdout)]
    reports = json.loads(stdout)["reports"]
    return [f"report {r['name']}: {json.dumps(r, sort_keys=True)}" for r in reports]


def report(library=LIBRARY_ROWS, **kwargs) -> list[str]:
    """The snapshot's lines: for each case its label, argv and input, then
    its exit code (or the exception it raised), stdout and stderr; then the
    library section, with `library` seeded inputs of each kind."""
    lines = []
    for label, argv, stdin, *overrides in cases(**kwargs):
        lines.append(f"## {label} {' '.join(argv)}")
        lines.append(_text("stdin", stdin))
        try:
            code, stdout, stderr = run_main(argv, stdin, *overrides)
        except Exception as e:  # a traceback is a result too
            lines.append(f"raised {type(e).__name__}: {e}")
            continue
        lines += [f"exit {code}", *_stdout(argv, stdout), _text("stderr", stderr)]
    return lines + library_report(kwargs.get("seed", 0), library)


# -- the manifest -----------------------------------------------------------------


def sections(lines) -> dict:
    """{kind: {"lines": count, "sha256": hex}} of a report's sections, where
    a line belongs to the kind named by the first word of the last `## `
    label before it (batch, cli-batch, edge, scan, fiber, verify, library),
    and the hash is of its kind's lines, each ended by a newline."""
    kinds = {}
    for line in lines:
        if line.startswith("## "):
            kind = kinds.setdefault(line.split()[1], [])
        kind.append(line + "\n")
    return {k: {"lines": len(v), "sha256": hashlib.sha256("".join(v).encode()).hexdigest()} for k, v in kinds.items()}


def run_all_hash(seed: int) -> str:
    from hopfrot.verify import run_all  # here, after main() has put SRC_DIR on sys.path

    return hashlib.sha256(repr(run_all(10**4, seed, 1e-9)).encode()).hexdigest()


def manifest(corpora=CORPORA) -> dict:
    """The run_all hashes, and the sections of each of `corpora`'s reports."""
    return {
        "run_all": {str(s): run_all_hash(s) for s in RUN_ALL_SEEDS},
        "snapshot": {name: sections(report(**kwargs)) for name, kwargs in corpora.items()},
    }


def moved(old: dict, new: dict) -> list[str]:
    """One line for each entry of manifest `new` that differs from `old`:
    a run_all seed, or a corpus and section kind with its line counts."""
    out = [f"run_all seed {s}" for s, h in new["run_all"].items() if old["run_all"].get(s) != h]
    for corpus, kinds in new["snapshot"].items():
        before = old["snapshot"].get(corpus, {})
        for kind, entry in kinds.items():
            if before.get(kind) != entry:
                out.append(f"{corpus} {kind}: {before.get(kind, {}).get('lines')} -> {entry['lines']} lines")
        out += [f"{corpus} {kind}: gone" for kind in before if kind not in kinds]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="directory that holds the hopfrot package")
    parser.add_argument("--write-manifest", metavar="PATH", help="write the manifest to PATH and print nothing else")
    parser.add_argument(
        "--check-manifest", metavar="PATH", help="print each entry that moved from the manifest at PATH; exit 1 if any did"
    )
    parser.add_argument("--edge", type=int, default=1000, help="edge documents (default 1000)")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the edge corpus and the library inputs (default 0)"
    )
    parser.add_argument("--points", type=int, default=20000, help="rows per cli-batch document")
    parser.add_argument("--samples", type=int, default=300, help="verify samples per check")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    if args.write_manifest:
        with open(args.write_manifest, "w", encoding="utf-8") as f:
            f.write(json.dumps(manifest(), indent=1, sort_keys=True) + "\n")
        return 0
    if args.check_manifest:
        with open(args.check_manifest, encoding="utf-8") as f:
            lines = moved(json.load(f), manifest())
        print("\n".join(lines) or "manifest: no entry moved")
        return 1 if lines else 0
    for line in report(edge=args.edge, seed=args.seed, points=args.points, samples=args.samples):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
