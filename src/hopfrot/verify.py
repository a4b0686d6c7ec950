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
values of each sample in draw order, as numpy's calls one sample at a time
would draw them.  They are decoded from the generator's raw words by
numpy's normal ziggurat, with its tables in the data file ziggurat.bin:
the fast path on whole columns, the rest one normal at a time.  run_check
accepts the rows off the pole, in sample order, until the count is
complete; no row is evaluated one at a time.  A deviation that is not
finite on an accepted row fails the check.  Reports are deterministic for
a given (name, samples, seed).

Samples landing within 1e-6 of a chart or stereographic pole are redrawn
(and counted): both routes are exact at the pole itself, but division
just next to it amplifies rounding into meaningless deviations.  Every
value of a sample is drawn before the check decides on a redraw, so a
redraw only filters the stream.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import zlib
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import UnknownCheck
from .hopf import bloch_columns, fiber_points, hopf_classic_columns, reverse, sandwich
from .quat import (
    I,
    ComplexColumn,
    ComplexPair,
    Quaternion,
    each,
    from_complex_pair,
    multiply,
    phase,
    require_index,
    to_complex_pair,
    transpose,
    transpose_map,
    vector_norm,
)
from .rotations import AxisAngle, encode, gb, gq, matvec_as_quat
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
        for field in ("samples", "seed"):  # a Python int, as JSON needs
            x = require_index(getattr(self, field), "samples and seed must be integers")
            object.__setattr__(self, field, x)
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


_ZIGGURAT_R = 3.6541528853610087963519472518  # numpy's ziggurat_nor_r
_ZIGGURAT_INV_R = 0.27366123732975827203338247596  # and ziggurat_nor_inv_r
_RABS = (1 << 52) - 1
_SPARE_WORDS = 0.05  # words read per normal beyond its first, for the slow normals' extra words


@functools.cache
def _ziggurat() -> tuple:
    """numpy's ziggurat tables ki, wi and fi, 256 entries each, as lists;
    then ki and wi as arrays indexed by a word's 9 low bits, wi with the
    sign of bit 8 folded in.  Read on the first draw, never at import."""
    data = importlib.resources.files(__package__).joinpath("ziggurat.bin").read_bytes()
    ki, wi, fi = (np.frombuffer(data, t, 256, 2048 * k) for k, t in enumerate(("<u8", "<f8", "<f8")))
    return (ki.tolist(), wi.tolist(), fi.tolist()), np.concatenate((ki, ki)), np.concatenate((wi, -wi))


def _normal(words, u, i: int) -> tuple:
    """numpy's random_standard_normal from word i on, given the words and
    their uniforms u: the normal, and the index of the first word it leaves."""
    ki, wi, fi = _ziggurat()[0]
    while True:
        r = int(words[i])
        idx, rabs = r & 0xFF, r >> 9 & _RABS
        x = -(rabs * wi[idx]) if r & 0x100 else rabs * wi[idx]
        if rabs < ki[idx]:
            return x, i + 1
        if idx == 0:  # the tail beyond r: two words a try
            while True:
                xx, yy = -_ZIGGURAT_INV_R * math.log1p(-u[i + 1]), -math.log1p(-u[i + 2])
                i += 2
                if yy + yy > xx * xx:
                    return (-(_ZIGGURAT_R + xx) if rabs & 0x100 else _ZIGGURAT_R + xx), i + 1
        if (fi[idx - 1] - fi[idx]) * u[i + 1] + fi[idx] < math.exp(-0.5 * x * x):
            return x, i + 2
        i += 2  # outside the wedge: the next try starts past the wedge's word


def _draw(draws: dict, rng, n: int) -> list:
    """The next n samples of the stream, as the samplers' column forms: the
    block's slots, each sample's normals and uniforms in draw order, from
    one read of PCG64's raw words.  A uniform takes one word, and so does a
    normal on the ziggurat's fast path; both are decoded on whole columns.
    A walk evaluates the slow normals one at a time, and shifts the later
    slots by the extra words they take."""
    normal = [k < s.normals for s in draws.values() for k in range(s.normals + len(s.uniforms))]
    width, slots = len(normal), n * len(normal)
    _, ki, wi = _ziggurat()
    bits, words = rng.bit_generator, np.empty(0, np.uint64)
    state, size = bits.state, slots + math.ceil(_SPARE_WORDS * n * sum(normal))
    while True:
        # rng.integers over every uint64 is the bit generator's raw words
        words = np.concatenate((words, rng.integers(0, 2**64 - 1, size, np.uint64, endpoint=True)))
        low9, rabs, u = (words & 0x1FF).astype(np.intp), words >> 9 & _RABS, (words >> 11) * 2.0**-53
        x = rabs * wi[low9]  # rabs * -wi is -(rabs * wi), as numpy negates it, even at rabs = 0
        at, shift, off, end = [], [0], 0, 0  # the slow normals' slots; slot j reads word j + off
        try:
            for i in np.flatnonzero(rabs >= ki[low9]).tolist():
                j = i - off
                if j >= slots:
                    break
                if i >= end and normal[j % width]:  # not a slow normal's later word, nor a uniform
                    x[i], end = _normal(words, u, i)
                    off = end - 1 - j
                    at.append(j)
                    shift.append(off)
        except IndexError:  # a slow normal ran past the words read
            off = len(words)
        if slots + off <= len(words):
            break
        size = slots // 16 + 64
    bits.state = state
    bits.advance(slots + off)
    if state["has_uint32"]:  # advance drops the half word a uint32 draw keeps
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": state["uinteger"]}
    word = (np.arange(slots) + np.repeat(shift, np.diff([-1, *at, slots - 1]))).reshape(n, width).T
    columns = iter([x[w] if is_normal else u[w] for w, is_normal in zip(word, normal)])
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
    return ComplexPair(a.z - b.z, a.w - b.w).norm()


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


# ---------------------------------------------------------------------------
# the catalog, name -> (check, samplers by sample name in draw order); a
# check takes a block of samples' values in that order, as the samplers'
# column forms, and returns (the distance between its routes, the pole
# rows to redraw: a bool column, or False where the check has no pole)


def _rephrase(q, v):
    g = _su2(q)
    acted = act_on_vector(g, v)
    n, n_acted = v.norm(), acted.norm()
    pole = (abs(v.w) < _POLE_GUARD * n) | (abs(acted.w) < _POLE_GUARD * n_acted)
    moved = act_on_vector(g, canonical(v, n))
    left = canonical(moved, moved.norm())  # act_on_proj(g, project(v))
    return _dist_pair(left, canonical(acted, n_acted)), pole


def _quat_identification(q):
    base = project(ComplexPair(1 + 0j, 0j))
    acted = act_on_vector(_su2(q), base.rep)
    moved = canonical(acted, acted.norm())
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
    n = v.norm()
    return _dist3(bloch_columns(canonical(v, n)), bloch_columns(v)), abs(v.w) < _POLE_GUARD * n


def _compare_bloch_quat(s):
    left = bloch_columns(transpose_map(s))
    right = reverse(sandwich(from_complex_pair(s), I))
    return _dist3(left, right), abs(s.w) < _POLE_GUARD


def _odot_lemma(q, h):
    g = _su2(q)
    return _dist_pair(act_on_vector(g, h), matvec_as_quat(g, h)), False


def _reconcile(aa, p, fq, fb):
    g = gq(aa)
    hq, hb = fiber_points(p, fq, fb)
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
    hq, hb = fiber_points(p, fq, fb)
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
# at most _MAX_BLOCK: a check holds one block at a time, so memory stays flat
_MIN_BLOCK = 64
_MAX_BLOCK = 1 << 14


def run_check(check: DiagramCheck) -> CheckReport:
    """Run one named check and report the worst observed deviation; each
    block is reduced as it is drawn, and only the worst row is kept."""
    columns, draws = CHECKS[check.name]
    rng = np.random.Generator(np.random.PCG64(check.seed))
    need, failures, max_dev = check.samples, 0, 0.0  # deviations are distances, never below 0.0
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
        devs = dev[rows]
        failures += int(np.count_nonzero(~(devs <= check.tolerance)))  # NaN and infinity fail too
        # the worst is the last non-finite deviation, which outranks every
        # finite one, else the last maximum: a later block's ties replace it
        bad = np.flatnonzero(~np.isfinite(devs))
        if bad.size or (rows.size and math.isfinite(max_dev) and devs.max() >= max_dev):
            j = int(bad[-1] if bad.size else np.flatnonzero(devs == devs.max())[-1])
            max_dev, worst = devs.item(j), {name: _row(x, rows[j]) for name, x in zip(draws, sample)}
        del sample, dev, pole, devs  # before the next block is drawn
    worst_input = json.dumps(worst, sort_keys=True, default=encode)
    return CheckReport(check.name, check.samples, max_dev, failures, worst_input, resampled)


def subseed(seed: int, name: str) -> int:
    """Stable per-check sub-seed: seed plus a CRC32 of the name, mod 2^64."""
    return (int(seed) + zlib.crc32(name.encode())) % (1 << 64)


def run_all(samples: int, seed: int, tolerance: float, names=CATALOG) -> list[CheckReport]:
    """Run the named checks (the full catalog by default) in order with
    per-check derived sub-seeds; every check is validated before any runs."""
    checks = [DiagramCheck(name, samples, seed, tolerance) for name in names]
    return [run_check(replace(check, seed=subseed(seed, check.name))) for check in checks]
