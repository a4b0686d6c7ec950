"""Seeded randomized verification of the package's commutation identities.

Every identity relating two evaluation routes (quaternion conjugation vs
matrix action, direct maps vs chart/stereographic pipelines, the two
rotation conventions) is a named check: its samplers, in draw order, and
one function that takes a block of samples as float64 columns and runs
both routes through the library's column kernels.  It returns their
Euclidean distance in the final space on every row, and the pole rows:
the samples to redraw.  The definition of each check, one sample at a
time, is its deviation in tests/verify_reference.py; on every row that is
not a pole row the column form gives that deviation's bits, and its pole
rows are exactly the samples the deviation redraws.

run_check draws each block from a fixed PCG64 stream, the v1 stream: the
values of each sample in draw order, as one sample at a time would draw
them.  It accepts the rows off the pole, in sample order, until the count
is complete; no row is evaluated one at a time.  A deviation that is not
finite on an accepted row fails the check.  Reports are deterministic for
a given (name, samples, seed).

Samples landing within 1e-6 of a chart or stereographic pole are redrawn
(and counted): both routes are exact at the pole itself, but division
just next to it amplifies rounding into meaningless deviations.  Every
value of a sample is drawn before the check decides on a redraw, so a
redraw only filters the stream.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import UnknownCheck
from .hopf import (
    bloch_columns,
    hopf_classic_columns,
    lift_quat_hopf_columns,
    reverse,
    sandwich,
    spherical_lift_columns,
)
from .quat import (
    I,
    ComplexColumn,
    ComplexPair,
    Quaternion,
    each,
    from_complex_pair,
    multiply,
    phase,
    to_complex_pair,
    transpose,
    transpose_map,
    vector_norm,
)
from .rotations import AxisAngle, gb, gq, matvec_as_quat
from .sphere import canonical, project, stereo3_inv_ratio
from .su2 import SU2Matrix, act_on_vector, quat_from_su2, su2_multiply

_POLE_GUARD = 1e-6


@dataclass(frozen=True)
class DiagramCheck:
    name: str
    samples: int
    seed: int
    tolerance: float

    def __post_init__(self):
        if self.name not in CHECKS:
            raise UnknownCheck(self.name)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not math.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ValueError("tolerance must be finite and positive")


@dataclass(frozen=True)
class CheckReport:
    name: str
    samples: int
    max_deviation: float
    failures: int
    worst_input: str
    resampled: int

    def to_dict(self) -> dict:
        finite = math.isfinite(self.max_deviation)  # strict JSON has no NaN or Infinity
        return dict(asdict(self), max_deviation=self.max_deviation if finite else None)


def encode(x):
    """JSON form of the package's values; pass as json.dump(s)(default=encode)."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Quaternion):
        return [x.x0, x.x1, x.x2, x.x3]
    if isinstance(x, (ComplexPair, SU2Matrix)):
        return {"z": [x.z.real, x.z.imag], "w": [x.w.real, x.w.imag]}
    if isinstance(x, AxisAngle):
        return {"theta": x.theta, "axis": list(x.axis)}
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# samplers (documented contract: normals normalized for spheres, uniform
# angles, log-uniform magnitude with uniform phase for fiber scalars)


class Sampler(NamedTuple):
    """One value of a sample as the v1 stream draws it: `normals` standard
    normals, then one uniform on each (low, high) range of `uniforms`.
    `columns` takes those draws for a block of samples, one float64 column
    per draw (uniforms already on their ranges), and returns the value's
    column form; `_row` takes one row of it back to the sampled value."""

    normals: int
    uniforms: tuple
    columns: Callable


class _Rotations(NamedTuple):
    """Axis-angle rotations on columns, as gq and gb take them: angles and
    (3, N) unit axes."""

    theta: np.ndarray
    axis: np.ndarray


def _unit(*v) -> np.ndarray:
    """Rows of normals divided by their norms, as (len(v), N) columns."""
    n = vector_norm(v)
    return np.array([c / n for c in v])


def _fiber_scalar(log_magnitude, angle) -> ComplexColumn:
    # mag * complex(cos, sin), the real factor promoted as CPython 3.11 does
    return ComplexColumn(each(math.cos, angle), each(math.sin, angle)) * each(math.exp, log_magnitude)


_TURN = (0.0, 2.0 * math.pi)
_LOG_MAGNITUDE = (-2.0, 2.0)

_UNIT_QUAT = Sampler(4, (), lambda *v: Quaternion(*_unit(*v)))
_UNIT_PAIR = Sampler(4, (), lambda *v: to_complex_pair(Quaternion(*_unit(*v))))
_S2_POINT = Sampler(3, (), _unit)
_ANGLE = Sampler(0, (_TURN,), lambda theta: theta)
_FIBER_SCALAR = Sampler(0, (_LOG_MAGNITUDE, _TURN), _fiber_scalar)
_NONZERO_PAIR = Sampler(
    4,
    (_LOG_MAGNITUDE, _TURN),
    lambda a, b, c, d, *u: to_complex_pair(Quaternion(*_unit(a, b, c, d))).scale(_fiber_scalar(*u)),
)
_AXIS_ANGLE = Sampler(3, (_TURN,), lambda x, y, z, theta: _Rotations(theta, _unit(x, y, z)))


def _row(x, i: int):
    """Row i of a sampler's column form: the value the sampler draws there."""
    if isinstance(x, Quaternion):
        return Quaternion(x.x0.item(i), x.x1.item(i), x.x2.item(i), x.x3.item(i))
    if isinstance(x, ComplexPair):
        return ComplexPair(_row(x.z, i), _row(x.w, i))
    if isinstance(x, ComplexColumn):
        return complex(x.real.item(i), x.imag.item(i))
    if isinstance(x, _Rotations):
        return AxisAngle(x.theta.item(i), tuple(x.axis[:, i].tolist()))
    if x.ndim == 2:
        return x[:, i].copy()
    return x.item(i)


def _draw(draws: dict, rng, n: int) -> list:
    """The next n samples of the stream, as the samplers' column forms."""
    calls = []  # one sample's calls on the stream, adjacent draws of a kind merged
    for s in draws.values():
        for kind, k in (("normal", s.normals), ("uniform", len(s.uniforms))):
            if k and calls and calls[-1][0] == kind:
                calls[-1][1] += k
            elif k:
                calls.append([kind, k])
    method = {"normal": rng.standard_normal, "uniform": rng.random}
    if len(calls) == 1:  # a call of k·n draws is the stream of n calls of k
        (kind, k), = calls
        flat = method[kind](k * n)
    else:
        calls = [(method[kind], k) for kind, k in calls]
        flat = np.concatenate([draw(k) for _ in range(n) for draw, k in calls])
    columns = iter(np.ascontiguousarray(flat.reshape(n, -1).T))
    values = []
    for s in draws.values():
        v = [next(columns) for _ in range(s.normals)]
        # rng.uniform(low, high) is low + (high - low) * rng.random(), bit for bit
        v += [low + (high - low) * next(columns) for low, high in s.uniforms]
        values.append(s.columns(*v))
    return values


# ---------------------------------------------------------------------------
# distances (exactly rounded, like the samplers, so that reports do not
# depend on the BLAS kernel)


def _dist3(a, b) -> np.ndarray:
    return vector_norm(np.asarray(a) - np.asarray(b))


def _dist_pair(a, b) -> np.ndarray:
    """Distance in C^2 between two objects with z and w (pairs or SU(2))."""
    dz = a.z - b.z
    dw = a.w - b.w
    return vector_norm((dz.real, dz.imag, dw.real, dw.imag))


# The samplers' quaternions, axes and points are unit to rounding, and so
# are the products and lifts built from them: the unit checks of
# su2_from_quat, quat_hopf, conjugate_action and the lifts pass on every
# row, and the checks skip them.


def _su2(q: Quaternion) -> SU2Matrix:
    v = to_complex_pair(q)
    return SU2Matrix(v.z, v.w)


def _stereo1_inv_mul_i(v: ComplexPair):
    """stereo1_inv(ext_mul_i(ratio(v.z, v.w)))."""
    x, y, z = stereo3_inv_ratio(v.z, v.w, lambda u: 1j * u)
    return z, x, y


def _fiber_points(p, fq, fb):
    """The quaternion preimage lift_quat_hopf(p) * e^{i fq} and the Bloch
    preimage fb * lift_bloch(p) of the points p."""
    hq = multiply(Quaternion(*lift_quat_hopf_columns(*p)), phase(fq))
    return hq, to_complex_pair(Quaternion(*spherical_lift_columns(*p, 1))).scale(fb)


# ---------------------------------------------------------------------------
# the catalog, name -> (check, samplers by sample name in draw order); a
# check takes a block of samples' values in that order, as the samplers'
# column forms, and returns (the distance between its routes, the pole
# rows to redraw: a bool column, or False where the check has no pole)


def _rephrase(q, v):
    g = _su2(q)
    acted = act_on_vector(g, v)
    pole = (abs(v.w) < _POLE_GUARD * v.norm()) | (abs(acted.w) < _POLE_GUARD * acted.norm())
    left = canonical(act_on_vector(g, canonical(v)))  # act_on_proj(g, project(v))
    return _dist_pair(left, canonical(acted)), pole


def _quat_identification(q):
    base = project(ComplexPair(1 + 0j, 0j))
    moved = canonical(act_on_vector(_su2(q), base.rep))
    return _dist3(_stereo1_inv_mul_i(moved), sandwich(q, I)), abs(moved.w) < _POLE_GUARD


def _template_classic(v):
    # the pipeline evaluates chart . project on the raw representative,
    # bypassing canonicalization, unlike the direct map
    pipeline = stereo3_inv_ratio(v.z, v.w)
    direct = hopf_classic_columns(v.z.real, v.z.imag, v.w.real, v.w.imag)
    return _dist3(pipeline, direct), abs(v.w) < _POLE_GUARD


def _template_quat(q):
    t = transpose_map(to_complex_pair(q))
    return _dist3(_stereo1_inv_mul_i(t), sandwich(q, I)), abs(t.w) < _POLE_GUARD


def _template_bloch(v):
    # stereo3_inv . ext_conjugate . chart is bloch's formula, here on the
    # canonical representative; bloch itself divides directly
    pipeline = bloch_columns(canonical(v))
    return _dist3(pipeline, bloch_columns(v)), abs(v.w) < _POLE_GUARD * v.norm()


def _compare_bloch_quat(s):
    left = bloch_columns(transpose_map(s))
    right = reverse(sandwich(from_complex_pair(s), I))
    return _dist3(left, right), abs(s.w) < _POLE_GUARD


def _odot_lemma(q, h):
    g = _su2(q)
    return _dist_pair(act_on_vector(g, h), matvec_as_quat(g, h)), False


def _reconcile(aa, p, fq, fb):
    g = gq(aa)
    hq, hb = _fiber_points(p, fq, fb)
    via_quat = sandwich(multiply(g, hq), I)
    via_bloch = bloch_columns(act_on_vector(gb(aa), hb))
    direct = sandwich(g, Quaternion(0.0, *p))  # rotate
    return np.maximum(_dist3(via_quat, via_bloch), _dist3(via_quat, direct)), False


def _derivation_16_18(aa, h):
    g_mat = gb(aa)
    acted = act_on_vector(g_mat, h)
    e1 = bloch_columns(acted)
    e2 = bloch_columns(matvec_as_quat(g_mat, h))  # h~ * transpose(g~)
    e3 = reverse(sandwich(multiply(quat_from_su2(g_mat), transpose(from_complex_pair(h))), I))
    e4 = sandwich(gq(aa), Quaternion(0.0, *bloch_columns(h)))  # rotate
    dev = np.maximum(np.maximum(_dist3(e1, e2), _dist3(e2, e3)), _dist3(e3, e4))
    return dev, (abs(h.w) < _POLE_GUARD) | (abs(acted.w) < _POLE_GUARD)


def _final_diagram(aa, p, fq, fb):
    # the Bloch route builds g_B from g_Q by the convention relation
    # g_B(theta, n) = g_Q(-theta, reverse n) and acts by matvec_as_quat,
    # where reconcile calls gb and act_on_vector
    g = gq(aa)
    hq, hb = _fiber_points(p, fq, fb)
    top = sandwich(multiply(g, hq), I)
    g_b = _su2(gq(_Rotations(-aa.theta, aa.axis[::-1])))
    bottom = bloch_columns(matvec_as_quat(g_b, hb))
    middle = sandwich(g, Quaternion(0.0, *p))  # rotate
    dev = np.maximum(_dist3(top, middle), _dist3(bottom, middle))
    return np.maximum(dev, _dist3(top, bottom)), False


def _iso_su2_quat(q1, q2):
    return _dist_pair(_su2(multiply(q1, q2)), su2_multiply(_su2(q1), _su2(q2))), False


def _fiber_invariance(q, t, v, lam):
    dev_q = _dist3(sandwich(multiply(q, phase(t)), I), sandwich(q, I))
    dev_b = _dist3(bloch_columns(v.scale(lam)), bloch_columns(v))
    return np.maximum(dev_q, dev_b), abs(v.w) < _POLE_GUARD


_ROTATION_DRAWS = dict(aa=_AXIS_ANGLE, p=_S2_POINT, fiber_q=_ANGLE, fiber_b=_FIBER_SCALAR)

CHECKS = {
    "rephrase": (_rephrase, dict(g=_UNIT_QUAT, v=_NONZERO_PAIR)),
    "quat-identification": (_quat_identification, dict(g=_UNIT_QUAT)),
    "template-classic": (_template_classic, dict(v=_UNIT_PAIR)),
    "template-quat": (_template_quat, dict(g=_UNIT_QUAT)),
    "template-bloch": (_template_bloch, dict(v=_NONZERO_PAIR)),
    "compare-bloch-quat": (_compare_bloch_quat, dict(s=_UNIT_PAIR)),
    "odot-lemma": (_odot_lemma, dict(g=_UNIT_QUAT, h=_NONZERO_PAIR)),
    "reconcile": (_reconcile, _ROTATION_DRAWS),
    "derivation-16-18": (_derivation_16_18, dict(aa=_AXIS_ANGLE, h=_UNIT_PAIR)),
    "final-diagram": (_final_diagram, _ROTATION_DRAWS),
    "iso-su2-quat": (_iso_su2_quat, dict(q1=_UNIT_QUAT, q2=_UNIT_QUAT)),
    "fiber-invariance": (
        _fiber_invariance,
        dict(g=_UNIT_QUAT, theta=_ANGLE, v=_UNIT_PAIR, scalar=_FIBER_SCALAR),
    ),
}

CATALOG = list(CHECKS)

_MAX_REDRAWS = 1000
# candidates per block: at least _MIN_BLOCK, so that a check that redraws
# most of them reaches its sample count, or its stuck error, in few blocks;
# at most _MAX_BLOCK, so that memory stays bounded at any sample count
_MIN_BLOCK = 64
_MAX_BLOCK = 1 << 14


def run_check(check: DiagramCheck) -> CheckReport:
    """Run one named check and report the worst observed deviation."""
    columns, draws = CHECKS[check.name]
    rng = np.random.Generator(np.random.PCG64(check.seed))
    blocks = []  # (sample columns, accepted rows, their deviations), in stream order
    need = check.samples
    resampled = in_a_row = 0  # redraws, in all and since the last accepted row
    while need:
        sample = _draw(draws, rng, min(max(need, _MIN_BLOCK), _MAX_BLOCK))
        with np.errstate(all="ignore"):
            dev, pole = columns(*sample)
        rows = np.flatnonzero(~np.broadcast_to(pole, dev.shape))[:need]
        # the row that completes the count ends the block; no later one counts
        end = int(rows[-1]) + 1 if len(rows) == need else len(dev)
        # the runs of redraws before, between and after the accepted rows
        runs = np.diff(np.concatenate(([-1 - in_a_row], rows, [end]))) - 1
        if runs.max() > _MAX_REDRAWS:
            raise RuntimeError(f"check {check.name}: sampler stuck near a pole")
        in_a_row = int(runs[-1])
        resampled += end - len(rows)
        need -= len(rows)
        blocks.append((sample, rows, dev[rows]))
    devs = np.concatenate([d for _, _, d in blocks])
    failures = int(np.count_nonzero(~(devs <= check.tolerance)))  # NaN and infinity fail too
    # the worst is the last non-finite deviation, which outranks every finite
    # one, else the last maximum (deviations are distances, never below 0.0)
    bad = np.flatnonzero(~np.isfinite(devs))
    j = int(bad[-1] if bad.size else np.flatnonzero(devs == devs.max())[-1])
    max_dev = devs.item(j)
    for sample, rows, _ in blocks:
        if j < len(rows):
            break
        j -= len(rows)
    worst = {name: _row(x, rows[j]) for name, x in zip(draws, sample)}
    worst_input = json.dumps(worst, sort_keys=True, default=encode)
    return CheckReport(check.name, check.samples, max_dev, failures, worst_input, resampled)


def subseed(seed: int, name: str) -> int:
    """Stable per-check sub-seed: seed plus a CRC32 of the name, mod 2^64."""
    return (int(seed) + zlib.crc32(name.encode())) % (1 << 64)


def run_all(samples: int, seed: int, tolerance: float, names=CATALOG) -> list[CheckReport]:
    """Run the named checks (the full catalog by default) in order with
    per-check derived sub-seeds; every name is validated before any runs."""
    checks = [DiagramCheck(name, samples, subseed(seed, name), tolerance) for name in names]
    return [run_check(check) for check in checks]
