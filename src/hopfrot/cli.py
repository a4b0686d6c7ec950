"""Command-line interface.

One JSON document in (stdin or --in FILE), one JSON document out on
stdout, diagnostics on stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage/parse error, 3 domain error.  Angles are radians unless
--degrees is given; the axis may be off unit norm by up to 1e-6 and is
renormalized with a warning (the library itself stays strict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import DomainError, UnknownCheck
from .hopf import LIFTS, HopfVariant, apply_variant, fiber_sample, lift_bloch
from .quat import ComplexPair, Quaternion, from_complex_pair, to_complex_pair, vector_norm
from .rotations import AxisAngle, gb, gq, rotate, rotate_via_bloch, to_axis_angle
from .su2 import quat_from_su2, su2_from_quat
from .verify import CATALOG, encode, run_all

RENORM_BAND = 1e-6

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
    except (OSError, ValueError) as e:  # ValueError: bad JSON, UTF-8 or int literal
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


def _complex_of(x, what: str) -> complex:
    re, im = _reals(x, 2, what)
    return complex(re, im)


def _pair_of(x, what: str) -> ComplexPair:
    if not isinstance(x, dict):
        raise ParseError(f"{what} must be an object with z and w")
    _reject_unknown(x, {"z", "w"})
    if "z" not in x or "w" not in x:
        raise ParseError(f"{what} must have both z and w")
    return ComplexPair(_complex_of(x["z"], f"{what}.z"), _complex_of(x["w"], f"{what}.w"))


def _quat_of(x, what: str) -> Quaternion:
    return Quaternion(*_reals(x, 4, what))


def _point_of(x, what: str) -> np.ndarray:
    return np.array(_reals(x, 3, what))


def _renormalized(values: list[float], what: str) -> list[float]:
    """Scale to unit norm a value within RENORM_BAND of it, with a warning;
    further off is a domain error."""
    n = vector_norm(values)
    if n == 0.0 or abs(n - 1.0) > RENORM_BAND:
        raise DomainError(f"{what} norm {n!r} is outside the renormalization band")
    if n != 1.0:
        print(f"warning: renormalizing {what} (norm {n!r})", file=sys.stderr)
        values = [c / n for c in values]
    return values


def _axis_angle_of(x, degrees: bool) -> AxisAngle:
    if not isinstance(x, dict):
        raise ParseError("axis_angle must be an object")
    _reject_unknown(x, {"theta", "axis"})
    if "theta" not in x or "axis" not in x:
        raise ParseError("axis_angle must have theta and axis")
    theta = _real(x["theta"], "theta")
    if degrees:
        theta = math.radians(theta)
    axis = _renormalized(_reals(x["axis"], 3, "axis"), "axis")
    return AxisAngle(theta, tuple(axis))


# ---------------------------------------------------------------------------
# document encoding


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, sort_keys=True, default=encode)
    sys.stdout.write("\n")


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
            q = _quat_of(doc["quaternion"], "quaternion")
        else:
            q = quat_from_su2(_pair_of(doc["su2"], "su2"))
        aa = to_axis_angle(Quaternion(*_renormalized([q.x0, q.x1, q.x2, q.x3], "input")))
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
    points = [_point_of(p, "point") for p in doc["points"]]
    if args.convention == "bloch":
        out = []
        for p in points:
            n = vector_norm(p.tolist())
            if n == 0.0:
                raise DomainError("cannot rotate the origin via the Bloch route")
            # Bloch routing works on S^2 lifts; scale back afterwards
            out.append(n * rotate_via_bloch(aa, lift_bloch(p / n)))
    else:
        out = [rotate(aa, p) for p in points]
    _emit({"points": out})
    return EXIT_OK


def _cmd_hopf(args) -> int:
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"inputs"})
    if "inputs" not in doc or not isinstance(doc["inputs"], list):
        raise ParseError("hopf needs an inputs list")
    variant = HopfVariant(args.variant)
    pairs = []
    for item in doc["inputs"]:
        if variant is HopfVariant.QUAT:
            pairs.append(to_complex_pair(_quat_of(item, "input quaternion")))
        else:
            pairs.append(_pair_of(item, "input pair"))
    _emit({"points": [apply_variant(variant, v) for v in pairs]})
    return EXIT_OK


def _sphere_point(x, what: str) -> np.ndarray:
    return np.array(_renormalized(_reals(x, 3, what), what))


def _cmd_lift(args) -> int:
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"points"})
    if "points" not in doc or not isinstance(doc["points"], list):
        raise ParseError("lift needs a points list")
    lift = LIFTS[HopfVariant(args.variant)]
    _emit({"lifts": [lift(_sphere_point(p, "point")) for p in doc["points"]]})
    return EXIT_OK


def _cmd_fiber(args) -> int:
    doc = _load_doc(args.infile)
    _reject_unknown(doc, {"base"})
    if "base" not in doc:
        raise ParseError("fiber needs a base point")
    variant = HopfVariant(args.variant)
    base = _sphere_point(doc["base"], "base")
    lifts = fiber_sample(variant, base, args.count)
    max_err = max(
        vector_norm((apply_variant(variant, v) - base).tolist()) for v in lifts
    )
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
    p.add_argument("--variant", choices=["classic", "quat", "bloch"], required=True)
    p.set_defaults(func=_cmd_hopf)

    p = sub.add_parser("lift", help="canonical preimages of sphere points")
    add_common(p)
    p.add_argument("--variant", choices=["classic", "quat", "bloch"], required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("fiber", help="sample the fiber circle over a base point")
    add_common(p)
    p.add_argument("--variant", choices=["classic", "quat", "bloch"], required=True)
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
