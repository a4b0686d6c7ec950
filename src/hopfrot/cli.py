"""Command-line interface.

One JSON document in (stdin or --in FILE), one JSON document out on
stdout, diagnostics on stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage, parse or output error, 3 domain error.  Angles are
radians unless --degrees is given; the axis may be off unit norm by up to
1e-6 and is renormalized with a warning (the library itself stays
strict).

Every command reads its document, --in FILE or stdin, as one seekable text
stream (_source): in place if it can seek, else (a pipe or FIFO) copied
whole to an unnamed temporary file.  rotate, hopf and lift read it a 64 KB
chunk at a time and their rows a slice at a time (_scan), so they never
hold its text whole.  Rows stay the float64 block _scan made of each slice
until evaluated.  A document _scan hands back is read whole again from its
start by json.loads and row by row, so the first bad row reports its
error.  They and fiber evaluate (by the column forms, branches included),
renormalize and write rows up to 2048 at a time.  A column form is not
finite only where the scalar function raises or its result overflows; the
first such row ends the command with the scalar call's error.  Output,
warnings and errors are the scalar calls', byte for byte.  A closed stdin
is a read error; a closed stdout, or any failed write to it, an output
error (exit 2); a closed or failing stderr loses only its diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import astuple
from itertools import chain
from operator import itemgetter

import numpy as np

from . import verify  # lazily loaded: only verify runs it
from .errors import DomainError, UnknownCheck
from .hopf import (
    LIFTS,
    MAPS,
    HopfVariant,
    bloch_columns,
    fiber_columns,
    sandwich,
    spherical_lift_columns,
)
from .quat import ComplexPair, Quaternion, require_unit, to_complex_pair, vector_norm
from .rotations import AxisAngle, encode, gb, gq, rotate, to_axis_angle
from .su2 import act_on_vector, quat_from_su2, su2_from_quat

RENORM_BAND = 1e-6

# rows per column evaluation, renormalization and write
_BLOCK = 2048

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# document decoding


def _load_doc(path: str | None, width: int = 0, pairs: bool = False) -> dict:
    """The input document.  With `width`, _scan reads it where it can, a
    chunk at a time, with each list of rows of that width as blocks; else
    json.loads, from its whole text, which it decodes from its start."""
    try:
        with _source(path) as f:
            start = f.tell()
            doc = _scan(f.read, width, pairs) if width else None
            if doc is None:
                f.seek(start)
                doc = json.loads(f.read())
    # ValueError: bad JSON, UTF-8 or int literal; RecursionError: too deeply nested
    except (OSError, ValueError, RecursionError) as e:
        raise ParseError(f"cannot read input document: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    return doc


@contextlib.contextmanager
def _source(path: str | None):
    """FILE, or stdin, as a seekable text stream: in place if it can seek;
    else its bytes copied to an unnamed temporary file and decoded as it
    decodes them, or its whole text if there is no such file or no bytes."""
    opened = open(path, encoding="utf-8", newline="") if path is not None else contextlib.nullcontext(sys.stdin)
    with opened as f:
        if f is None:
            raise OSError("stdin is closed")
        if f.seekable():
            yield f
            return
        try:
            spool = tempfile.TemporaryFile() if hasattr(f, "buffer") else None
        except OSError:
            spool = None
        if spool is None:
            yield io.StringIO(f.read())
            return
        with spool:
            shutil.copyfileobj(f.buffer, spool)
            spool.seek(0)
            yield io.TextIOWrapper(spool, f.encoding, f.errors, newline="")


_SLICE = 1 << 16  # characters of rows per json.loads call, and of each read
_ws = json.decoder.WHITESPACE.match
_scan_once = json.decoder.JSONDecoder().scan_once


def _key(text: str, pos: int) -> tuple:
    return json.decoder.scanstring(text, pos + 1)


def _rest_of_list(text: str, pos: int) -> tuple:
    """The list whose rows start at text[pos], and the index after it."""
    rows, end = _scan_once("[" + text[pos:], 0)
    return rows, pos + end - 1


def _scan(read, width: int, pairs: bool) -> dict | None:
    """The JSON object whose text read(n) gives a chunk of about n
    characters at a time ("" at its end), as json.loads decodes it, but
    with each list value as blocks (_Window.rows); None, for json.loads
    and the row-by-row path to decode and report, if the text is not an
    object, a key repeats, a list holds a bad row, or it does not parse or
    decode."""
    w = _Window(read)
    try:
        if not w.take("{"):
            return None
        doc, sep = {}, w.take("}") or ","
        while sep == ",":
            if w.next() != '"':
                return None
            key = w.value(_key)
            if key in doc or not w.take(":"):
                return None
            doc[key] = w.rows(width, pairs) if w.next() == "[" else w.value(_scan_once)
            sep = w.take(",}")
        return doc if sep == "}" and w.next() == "" else None
    except (ValueError, StopIteration, RecursionError):  # json.loads reports it
        return None


class _Window:
    """The text that read(n) gives, held from `pos`, where the parse is,
    to as far as it has been read: about a chunk of _SLICE characters."""

    def __init__(self, read):
        self.read, self.text, self.pos, self.eof = read, "", 0, False

    def more(self) -> None:
        """Read on, as much as the window holds and at least _SLICE."""
        chunk = self.read(max(_SLICE, len(self.text) - self.pos))
        self.text, self.pos, self.eof = self.text[self.pos :] + chunk, 0, not chunk

    def next(self) -> str:
        """The next character that is not whitespace, at pos; "" at the end."""
        while (pos := _ws(self.text, self.pos).end()) == len(self.text) and not self.eof:
            self.pos = pos
            self.more()
        self.pos = pos
        return self.text[pos : pos + 1]

    def take(self, chars: str) -> str:
        """The next character that is not whitespace, read past, if it is
        one of `chars`; else ""."""
        c = self.next()
        if c and c in chars:
            self.pos += 1
            return c
        return ""

    def value(self, scan):
        """The value that scan(text, pos) gives with the index after it,
        where pos goes: tried again on more text while it fails or ends
        within 3 characters of the window's end, where a number could go
        on.  Its error, at the end of the text."""
        while True:
            try:
                value, end = scan(self.text, self.pos)
                if end + 3 <= len(self.text) or self.eof:
                    self.pos = end
                    return value
            except (ValueError, StopIteration):
                if self.eof:
                    raise
            self.more()

    def rows(self, width: int, pairs: bool) -> list[np.ndarray]:
        """The list at pos as blocks of its rows, read by _bulk from slices
        of about _SLICE characters that end at a row's closing bracket and
        a comma, then from the rest of the list.  A slice that parses
        starts and ends at row bounds.  ValueError if _bulk rejects a row."""
        blocks, close = [], "}" if pairs else "]"
        self.pos += 1
        while True:
            cut = self.text.find(close, self.pos + _SLICE) + 1
            after = _ws(self.text, cut).end() if cut else len(self.text)
            if after == len(self.text) and not self.eof:
                self.more()
                continue
            try:
                if not self.text.startswith(",", after):
                    raise ValueError("no row ends a slice before the list does")
                rows, self.pos = json.loads("[" + self.text[self.pos : cut] + "]"), after + 1
            except ValueError:  # the last slice
                rows, close = self.value(_rest_of_list), ""
            blocks.append(_bulk(rows, width, pairs))
            if blocks[-1] is None:
                raise ValueError("a bad row")
            if not close:
                return blocks


def _reject_unknown(doc: dict, allowed: set[str]) -> None:
    extra = set(doc) - allowed
    if extra:
        raise ParseError(f"unknown fields: {sorted(extra)}")


def _real(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"{what} must be a number")
    try:
        v = float(x)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"{what} must be finite")
    return v


def _reals(x, n: int, what: str) -> list[float]:
    if not isinstance(x, list) or len(x) != n:
        raise ParseError(f"{what} must be a list of {n} numbers")
    return [_real(c, what) for c in x]


def _pair_of(x, what: str) -> ComplexPair:
    if not isinstance(x, dict):
        raise ParseError(f"{what} must be an object with z and w")
    _reject_unknown(x, {"z", "w"})
    if "z" not in x or "w" not in x:
        raise ParseError(f"{what} must have both z and w")
    return ComplexPair(*(complex(*_reals(x[k], 2, f"{what}.{k}")) for k in "zw"))


def _bulk(rows: list, width: int, pairs: bool = False) -> np.ndarray | None:
    """rows as an (N, width) float64 array when every row is a list of
    `width` finite numbers (no bools), or with `pairs` an object with just
    the keys z and w, each a list of width / 2, as the row z + w; else None."""
    if pairs:  # as the rows z and w
        if not (set(map(type, rows)) <= {dict} and set(map(tuple, rows)) <= {("z", "w"), ("w", "z")}):
            return None
        rows = list(chain.from_iterable(map(itemgetter("z", "w"), rows)))
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width // 2 if pairs else width}):
        return None
    flat = list(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {float, int}:
        return None
    try:
        arr = np.array(list(map(float, flat)), dtype=np.float64).reshape(-1, width)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _rows(items: list, width: int, row, pairs: bool = False) -> list[np.ndarray]:
    """Rows as views of _BLOCK or fewer of the blocks _load_doc read or of
    _bulk's one array; if one is bad, `row` decodes each and the first raises."""
    blocks = items if items and type(items[0]) is np.ndarray else [_bulk(items, width, pairs)]
    if blocks[0] is None:  # some row is bad
        for x in items:
            row(x)
    return [b[start : start + _BLOCK] for b in blocks for start in range(0, len(b), _BLOCK)]


def _say(text: str) -> None:
    """Write text to stderr; if it is closed or fails, the text is lost."""
    with contextlib.suppress(AttributeError, OSError):  # AttributeError: stderr is None
        sys.stderr.write(text)


def _renormalized(rows: list[np.ndarray], what: str) -> list[np.ndarray]:
    """Scale to unit norm, in place, the rows within RENORM_BAND of it,
    each with a warning, in order; a row further off is a domain error."""
    for block in rows:
        norms = vector_norm(block.T)
        warnings = []  # written a block at once: stderr is line buffered
        for n in norms.tolist():
            if n == 0.0 or abs(n - 1.0) > RENORM_BAND:
                _say("".join(warnings))
                raise DomainError(f"{what} norm {n!r} is outside the renormalization band")
            if n != 1.0:
                warnings.append(f"warning: renormalizing {what} (norm {n!r})\n")
        _say("".join(warnings))
        block /= norms.reshape(-1, 1)
    return rows


def _unit(values: list[float], what: str) -> list[float]:
    return _renormalized([np.array([values])], what)[0][0].tolist()


def _axis_angle_of(x, degrees: bool) -> AxisAngle:
    if not isinstance(x, dict):
        raise ParseError("axis_angle must be an object")
    _reject_unknown(x, {"theta", "axis"})
    if "theta" not in x or "axis" not in x:
        raise ParseError("axis_angle must have theta and axis")
    theta = _real(x["theta"], "theta")
    if degrees:
        theta = math.radians(theta)
    return AxisAngle(theta, tuple(_unit(_reals(x["axis"], 3, "axis"), "axis")))


# ---------------------------------------------------------------------------
# batch evaluation and document encoding


def _evaluate(rows: list[np.ndarray], columns, scalar) -> list[np.ndarray]:
    """A map by its column form on every row of the (n, k) blocks `rows`,
    each popped once evaluated: its results, a block for each.

    `columns` gives the bits of `scalar`, the map's scalar function of one
    row, wherever `scalar` returns, and NaN or infinity where it raises
    (see hopf.Forms).  So the first row that is not finite decides the
    error: `scalar` is called on it only to raise its own; if it returns,
    the result has overflowed, a domain error naming the row's index.
    """
    outs = []
    with np.errstate(all="ignore"):
        while rows:
            block = rows.pop(0)
            out = np.column_stack(np.broadcast_arrays(*columns(*block.T)))
            bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
            if len(bad):
                row = block[bad[0]].tolist()
                scalar(row)
                raise DomainError(f"row {sum(map(len, outs)) + bad[0]} {row}: the result overflows the float range")
            outs.append(out)
    return outs


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, default=encode, allow_nan=False) + "\n")


def _emit_rows(key: str, blocks, pairs=False, rest=dict) -> None:
    """Write {key: the rows of `blocks`, **rest()} as _emit would, a block
    at a time, by one format string of float reprs, which is how json
    writes finite floats; with `pairs`, row r as {"w": r[2:], "z": r[:2]};
    `rest()`, called last, gives the keys that sort after `key`."""
    sys.stdout.write("{%s: [" % json.dumps(key))
    for i, block in enumerate(blocks):
        if not np.isfinite(block).all():  # as json.dumps(..., allow_nan=False) raises
            raise ValueError("Out of range float values are not JSON compliant")
        row = '{"w": [%r, %r], "z": [%r, %r]}' if pairs else "[%s]" % ", ".join(["%r"] * block.shape[1])
        values = block[:, [2, 3, 0, 1]] if pairs else block
        sys.stdout.write(", " * (i > 0) + ", ".join([row] * len(block)) % tuple(values.ravel().tolist()))
    tail = json.dumps(rest(), sort_keys=True, allow_nan=False)[1:-1]
    sys.stdout.write("]" + (", " + tail if tail else "") + "}\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_convert(args) -> int:
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"axis_angle", "quaternion", "su2"})
    given = [k for k in ("axis_angle", "quaternion", "su2") if k in doc]
    if len(given) != 1:
        raise ParseError("provide exactly one of axis_angle, quaternion, su2")
    if given[0] == "axis_angle":
        aa = _axis_angle_of(doc["axis_angle"], args.degrees)
    else:
        if given[0] == "quaternion":
            q = Quaternion(*_reals(doc["quaternion"], 4, "quaternion"))
        else:
            q = quat_from_su2(_pair_of(doc["su2"], "su2"))
        aa = to_axis_angle(Quaternion(*_unit(list(astuple(q)), "input")))
    theta_out = math.degrees(aa.theta) if args.degrees else aa.theta
    q_out = gq(aa)
    _emit(
        {
            "axis_angle": {"theta": theta_out, "axis": list(aa.axis)},
            "gq": q_out,
            "gq_su2": su2_from_quat(q_out),
            "gb_su2": gb(aa),
        }
    )
    return EXIT_OK


def _cmd_rotate(args) -> int:
    doc = _load_doc(args.infile, 3)
    _reject_unknown(doc, {"axis_angle", "points"})
    if "axis_angle" not in doc or "points" not in doc:
        raise ParseError("rotate needs axis_angle and points")
    aa = _axis_angle_of(doc["axis_angle"], args.degrees)
    if not isinstance(doc["points"], list):
        raise ParseError("points must be a list")
    points = _rows(doc.pop("points"), 3, lambda x: _reals(x, 3, "point"))
    if args.convention == "bloch":
        g = gb(aa)
        out = _evaluate(points, lambda *p: _rotate_bloch_columns(g, *p), _rotate_bloch)
    else:
        g = gq(aa)
        out = _evaluate(
            points, lambda *p: sandwich(require_unit(g), Quaternion(0.0, *p)),
            lambda p: rotate(aa, p),
        )
    _emit_rows("points", out)
    return EXIT_OK


def _rotate_bloch(p: list[float]) -> None:
    """The Bloch route's one error: it lifts p / |p|, which the origin lacks."""
    if vector_norm(p) == 0.0:
        raise DomainError("cannot rotate the origin via the Bloch route")


def _rotate_bloch_columns(g, x, y, z):
    """The Bloch route on point columns, with g = gb(aa): p lifted from S^2
    as p / |p|, and the image scaled back by |p|."""
    n = vector_norm((x, y, z))
    h = to_complex_pair(Quaternion(*spherical_lift_columns(x / n, y / n, z / n, 1)))
    return tuple(n * c for c in bloch_columns(act_on_vector(g, h)))


def _cmd_hopf(args) -> int:
    variant = HopfVariant(args.variant)
    pairs = variant is not HopfVariant.QUAT
    doc = _load_doc(args.infile, 4, pairs)
    _reject_unknown(doc, {"inputs"})
    if "inputs" not in doc or not isinstance(doc["inputs"], list):
        raise ParseError("hopf needs an inputs list")
    row = (lambda x: _pair_of(x, "input pair")) if pairs else (lambda x: _reals(x, 4, "input quaternion"))
    _emit_rows("points", _hopf_rows(variant, _rows(doc.pop("inputs"), 4, row, pairs)))
    return EXIT_OK


def _hopf_rows(variant: HopfVariant, rows: list[np.ndarray]) -> list[np.ndarray]:
    """The Hopf map on rows (Re z, Im z, Re w, Im w), quaternion or pair."""
    hopf = MAPS[variant]
    return _evaluate(rows, hopf.columns, lambda r: hopf.scalar(to_complex_pair(Quaternion(*r))))


def _cmd_lift(args) -> int:
    doc = _load_doc(args.infile, 3)
    _reject_unknown(doc, {"points"})
    if "points" not in doc or not isinstance(doc["points"], list):
        raise ParseError("lift needs a points list")
    variant = HopfVariant(args.variant)
    # the fallback renormalizes each row too, so warnings keep input order
    points = _rows(doc.pop("points"), 3, lambda x: _unit(_reals(x, 3, "point"), "point"))
    points = _renormalized(points, "point")
    lift = LIFTS[variant]
    _emit_rows("lifts", _evaluate(points, lift.columns, lift.scalar), variant is not HopfVariant.QUAT)
    return EXIT_OK


def _cmd_fiber(args) -> int:
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"base"})
    if "base" not in doc:
        raise ParseError("fiber needs a base point")
    variant = HopfVariant(args.variant)
    base = np.array(_unit(_reals(doc["base"], 3, "base"), "base"))
    # a base off the sphere raises before any output; the round trips of
    # the fiber's points, unit to rounding, cannot fail
    lift = LIFTS[variant].scalar(base)
    max_err = 0.0

    def blocks():
        nonlocal max_err
        for start in range(0, args.count, _BLOCK):
            m = np.arange(start, min(start + _BLOCK, args.count))
            v = fiber_columns(variant, lift, m, args.count)
            rows = np.column_stack((v.z.real, v.z.imag, v.w.real, v.w.imag))
            errors = np.concatenate(_hopf_rows(variant, [rows])) - base
            max_err = max(max_err, vector_norm(errors.T).max().item())
            yield rows

    _emit_rows("lifts", blocks(), variant is not HopfVariant.QUAT,
               lambda: {"roundtrip_max_error": max_err})
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = verify.run_all(args.samples, args.seed, args.tolerance, args.check or verify.CATALOG)
    _emit({"reports": [r.to_dict() for r in reports]})
    ok = all(r.failures == 0 for r in reports)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _tolerance(text: str) -> float:
    t = float(text)
    if not math.isfinite(t) or t <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {t}")
    return t


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # help is output, as any write to stdout; usage errors go by _say
        (sys.stdout.write if file is sys.stdout else _say)(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopfrot",
        description="Hopf maps, rotation conventions, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    variants = [v.value for v in HopfVariant]

    def add_common(p):
        p.add_argument("--in", dest="infile", metavar="FILE", default=None,
                       help="read the input document from FILE instead of stdin")

    p = sub.add_parser("convert", help="emit all equivalent forms of a rotation")
    add_common(p)
    p.add_argument("--degrees", action="store_true", help="angles in degrees")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("rotate", help="rotate points about an axis")
    add_common(p)
    p.add_argument("--degrees", action="store_true", help="angles in degrees")
    p.add_argument("--convention", choices=["quat", "bloch"], default="quat")
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("hopf", help="apply a Hopf map to inputs")
    add_common(p)
    p.add_argument("--variant", choices=variants, required=True)
    p.set_defaults(func=_cmd_hopf)

    p = sub.add_parser("lift", help="canonical preimages of sphere points")
    add_common(p)
    p.add_argument("--variant", choices=variants, required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("fiber", help="sample the fiber circle over a base point")
    add_common(p)
    p.add_argument("--variant", choices=variants, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("verify", help="run the randomized identity checks")
    p.add_argument("--check", action="append", metavar="NAME",
                   help="run only this check (repeatable)")
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=_tolerance, default=1e-9)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        if sys.stdout is None:  # closed when the process started
            raise OSError("stdout is closed")
        try:
            args = _build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as e:  # argparse's, after its help or a usage error
            code = EXIT_USAGE if e.code not in (0, None) else EXIT_OK
        sys.stdout.flush()  # so that a failed write is found here, not at exit
        return code
    except (ParseError, UnknownCheck, DomainError) as e:
        _say(f"error: {e}\n")
        return EXIT_DOMAIN if isinstance(e, DomainError) else EXIT_USAGE
    except OSError as e:  # from a write to stdout: _load_doc and _say catch their own
        # nothing more reaches stdout, not even what is buffered at exit
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _say(f"error: cannot write output: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
