"""Command-line interface.

One JSON document in (stdin or --in FILE), one JSON document out on
stdout, diagnostics on stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage/parse error, 3 domain error.  Angles are radians unless
--degrees is given; the axis may be off unit norm by up to 1e-6 and is
renormalized with a warning (the library itself stays strict).

rotate, hopf and lift evaluate a document as one batch: its rows are
decoded into a float64 array, the library's column forms evaluate all of
them at once, branches included, and the rows where a column form is not
finite (where the scalar function raises, or its result overflows) are
evaluated again by the scalar functions, in input order.  Output,
warnings and errors are those of the scalar calls, byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple
from itertools import chain

import numpy as np

from .errors import DomainError, UnknownCheck
from .hopf import (
    LIFTS,
    MAPS,
    HopfVariant,
    bloch_columns,
    fiber_sample,
    lift_bloch,
    sandwich,
    spherical_lift_columns,
)
from .quat import (
    ComplexPair,
    Quaternion,
    from_complex_pair,
    require_unit,
    to_complex_pair,
    vector_norm,
)
from .rotations import AxisAngle, gb, gq, rotate, rotate_via_bloch, to_axis_angle
from .su2 import act_on_vector, quat_from_su2, su2_from_quat
from .verify import CATALOG, encode, run_all

RENORM_BAND = 1e-6

# rows per json.dumps call when a batch result is written
_BLOCK = 2048

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# document decoding


def _load_doc(path: str | None) -> dict:
    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        doc = json.loads(text)
    # ValueError: bad JSON, UTF-8 or int literal; RecursionError: too deeply nested
    except (OSError, ValueError, RecursionError) as e:
        raise ParseError(f"cannot read input document: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    return doc


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


def _bulk(rows: list, width: int) -> np.ndarray | None:
    """rows as an (N, width) float64 array when every row is a list of
    `width` finite numbers (no bools), else None."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        return None
    flat = list(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {float, int}:
        return None
    try:
        arr = np.array(list(map(float, flat)), dtype=np.float64).reshape(-1, width)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _rows(items: list, width: int, row) -> np.ndarray:
    """Decode rows of `width` numbers into an (N, width) float64 array; if
    one is bad, `row` decodes each in turn, and the first bad one raises."""
    arr = _bulk(items, width)
    if arr is None:  # some row is bad
        for x in items:
            row(x)
    return arr


def _pair_rows(items: list, what: str) -> np.ndarray:
    """Decode complex pairs into (N, 4) rows (Re z, Im z, Re w, Im w)."""
    arr = None
    if all(type(x) is dict and x.keys() == {"z", "w"} for x in items):
        arr = _bulk([c for x in items for c in (x["z"], x["w"])], 2)
    if arr is None:  # some pair is bad
        for x in items:
            _pair_of(x, what)
    return arr.reshape(-1, 4)


def _renormalized(rows: np.ndarray, what: str) -> np.ndarray:
    """Scale to unit norm the rows within RENORM_BAND of it, each with a
    warning, in order; a row further off is a domain error."""
    norms = vector_norm(rows.T)
    for n in norms.tolist():
        if n == 0.0 or abs(n - 1.0) > RENORM_BAND:
            raise DomainError(f"{what} norm {n!r} is outside the renormalization band")
        if n != 1.0:
            print(f"warning: renormalizing {what} (norm {n!r})", file=sys.stderr)
    return rows / norms.reshape(-1, 1)


def _unit(values: list[float], what: str) -> list[float]:
    return _renormalized(np.array([values]), what)[0].tolist()


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


def _evaluate(rows: np.ndarray, columns, scalar) -> np.ndarray:
    """A map evaluated on every row of an (N, k) array.

    `columns` is the map's column form: the bits of `scalar`, its scalar
    function of one row, wherever `scalar` returns, and NaN or infinite on
    the rows where it raises (see hopf.Forms).  Exactly the rows not
    finite are evaluated again by `scalar`, in input order, so that they
    end as the scalar call does, with its error.  A result that is still
    not finite has overflowed: a domain error naming the row.
    """
    with np.errstate(all="ignore"):
        cols = columns(*rows.T)
        out = np.empty((len(rows), len(cols)))
        for j, c in enumerate(cols):
            out[:, j] = c
        for i in np.flatnonzero(~np.isfinite(out).all(axis=1)):
            row = rows[i].tolist()
            out[i] = scalar(row)
            if not np.isfinite(out[i]).all():
                raise DomainError(f"row {i} {row}: the result overflows the float range")
    return out


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, default=encode, allow_nan=False) + "\n")


def _emit_rows(key: str, out: np.ndarray, row=None) -> None:
    """Write {key: rows of out} as _emit would, through the C encoder a
    block of rows at a time; `row` maps a row list to its JSON value."""
    sys.stdout.write("{%s: [" % json.dumps(key))
    for start in range(0, len(out), _BLOCK):
        block = out[start : start + _BLOCK].tolist()
        if row is not None:
            block = list(map(row, block))
        text = json.dumps(block, sort_keys=True, allow_nan=False)[1:-1]
        sys.stdout.write(", " + text if start else text)
    sys.stdout.write("]}\n")


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
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"axis_angle", "points"})
    if "axis_angle" not in doc or "points" not in doc:
        raise ParseError("rotate needs axis_angle and points")
    aa = _axis_angle_of(doc["axis_angle"], args.degrees)
    if not isinstance(doc["points"], list):
        raise ParseError("points must be a list")
    points = _rows(doc.pop("points"), 3, lambda x: _reals(x, 3, "point"))
    if args.convention == "bloch":
        g = gb(aa)
        out = _evaluate(
            points, lambda *p: _rotate_bloch_columns(g, *p), lambda p: _rotate_bloch(aa, p)
        )
    else:
        g = gq(aa)
        out = _evaluate(
            points, lambda *p: sandwich(require_unit(g), Quaternion(0.0, *p)),
            lambda p: rotate(aa, p),
        )
    _emit_rows("points", out)
    return EXIT_OK


def _rotate_bloch(aa: AxisAngle, p: list[float]) -> np.ndarray:
    n = vector_norm(p)
    if n == 0.0:
        raise DomainError("cannot rotate the origin via the Bloch route")
    if math.isinf(n):  # |p| overflows, and so does the norm of its image
        return np.full(3, n)
    # Bloch routing works on S^2 lifts; scale back afterwards
    return n * rotate_via_bloch(aa, lift_bloch(np.array(p) / n))


def _rotate_bloch_columns(g, x, y, z):
    """_rotate_bloch on point columns, with g = gb(aa)."""
    n = vector_norm((x, y, z))
    h = to_complex_pair(Quaternion(*spherical_lift_columns(x / n, y / n, z / n, 1)))
    return tuple(n * c for c in bloch_columns(act_on_vector(g, h)))


def _cmd_hopf(args) -> int:
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"inputs"})
    if "inputs" not in doc or not isinstance(doc["inputs"], list):
        raise ParseError("hopf needs an inputs list")
    variant = HopfVariant(args.variant)
    if variant is HopfVariant.QUAT:
        rows = _rows(doc.pop("inputs"), 4, lambda x: _reals(x, 4, "input quaternion"))
    else:
        rows = _pair_rows(doc.pop("inputs"), "input pair")
    hopf = MAPS[variant]
    # quaternion rows and pair rows both hold (Re z, Im z, Re w, Im w)
    out = _evaluate(rows, hopf.columns, lambda r: hopf.scalar(to_complex_pair(Quaternion(*r))))
    _emit_rows("points", out)
    return EXIT_OK


def _cmd_lift(args) -> int:
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"points"})
    if "points" not in doc or not isinstance(doc["points"], list):
        raise ParseError("lift needs a points list")
    variant = HopfVariant(args.variant)
    # the fallback renormalizes each row too, so warnings keep input order
    points = _rows(doc.pop("points"), 3, lambda x: _unit(_reals(x, 3, "point"), "point"))
    points = _renormalized(points, "point")
    lift = LIFTS[variant]
    if variant is HopfVariant.QUAT:
        out = _evaluate(points, lift.columns, lambda p: astuple(lift.scalar(p)))
        _emit_rows("lifts", out)
    else:
        out = _evaluate(points, lift.columns, lambda p: astuple(from_complex_pair(lift.scalar(p))))
        _emit_rows("lifts", out, lambda r: {"z": r[:2], "w": r[2:]})
    return EXIT_OK


def _cmd_fiber(args) -> int:
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"base"})
    if "base" not in doc:
        raise ParseError("fiber needs a base point")
    variant = HopfVariant(args.variant)
    base = np.array(_unit(_reals(doc["base"], 3, "base"), "base"))
    lifts = fiber_sample(variant, base, args.count)
    hopf = MAPS[variant].scalar
    errors = np.array([hopf(v) for v in lifts]) - base
    max_err = vector_norm(errors.T).max().item()
    if variant is HopfVariant.QUAT:
        lifts = [from_complex_pair(v) for v in lifts]
    _emit({"lifts": lifts, "roundtrip_max_error": max_err})
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = run_all(args.samples, args.seed, args.tolerance, args.check or CATALOG)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, UnknownCheck) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
