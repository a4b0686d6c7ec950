"""Seeded randomized verification of the package's commutation identities.

Every identity relating two evaluation routes (quaternion conjugation vs
matrix action, direct maps vs chart/stereographic pipelines, the two
rotation conventions) is a named check: its samplers, in draw order, and
its deviation, which evaluates both routes on one sample and returns their
Euclidean distance in the final space.  The deviation has two forms
(`hopf.Forms`).  The scalar form takes one sample and is the definition of
the check.  The column form takes a block of samples as float64 columns
and runs the same formulas through the library's column kernels; it gives
the scalar form's bits on every row where it is finite.

run_check draws each block from a fixed PCG64 stream, the v1 stream: the
values of each sample in draw order, as one sample at a time would draw
them.  It evaluates the block on columns and hands the rows whose column
deviation is not finite back to the scalar form, in sample order.  Reports
are deterministic for a given (name, samples, seed).

Samples landing within 1e-6 of a chart or stereographic pole are redrawn
(and counted): both routes are exact at the pole itself, but division
just next to it amplifies rounding into meaningless deviations.  Every
value of a sample is drawn before its deviation asks for a redraw, so a
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
    LIFTS,
    MAPS,
    Forms,
    HopfVariant,
    bloch,
    bloch_columns,
    hopf_classic,
    lift_bloch,
    lift_quat_hopf,
    quat_hopf,
    reverse,
    sandwich,
)
from .quat import (
    ComplexColumn,
    ComplexPair,
    Quaternion,
    each,
    from_complex_pair,
    multiply,
    pair_of_columns,
    to_complex_pair,
    transpose,
    transpose_map,
    vector_norm,
)
from .rotations import AxisAngle, gb, gq, matvec_as_quat, reconcile, rotate, rotate_via_quat_hopf
from .sphere import (
    INFINITY,
    ExtendedComplex,
    canonical,
    chart,
    ext_conjugate,
    ext_mul_i,
    project,
    stereo1_inv,
    stereo3_inv,
    stereo3_inv_parts,
)
from .su2 import (
    SU2Matrix,
    act_on_proj,
    act_on_vector,
    quat_from_su2,
    su2_from_quat,
    su2_multiply,
)

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
    """Axis-angle rotations on columns: angles and (3, N) unit axes."""

    theta: np.ndarray
    axis: np.ndarray


def _norms(*columns) -> np.ndarray:
    """vector_norm of each row of the columns."""
    return np.array(list(map(vector_norm, zip(*(c.tolist() for c in columns)))))


def _unit(*v) -> np.ndarray:
    """Rows of normals divided by their norms, as (len(v), N) columns."""
    n = _norms(*v)
    return np.array([c / n for c in v])


def _fiber_scalar(log_magnitude, phase) -> ComplexColumn:
    # mag * complex(cos, sin), the real factor promoted as CPython 3.11 does
    return ComplexColumn(each(math.cos, phase), each(math.sin, phase)) * each(math.exp, log_magnitude)


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
# deviation helpers (exactly rounded, like the samplers, so that reports do
# not depend on the BLAS kernel)


def _dist3(a, b) -> float:
    return vector_norm((np.asarray(a) - np.asarray(b)).tolist())


def _dist_pair(a, b) -> float:
    """Distance in C^2 between two objects with z and w (pairs or SU(2))."""
    dz = a.z - b.z
    dw = a.w - b.w
    return vector_norm((dz.real, dz.imag, dw.real, dw.imag))


def _raw_chart(v: ComplexPair) -> ExtendedComplex:
    # template pipelines evaluate chart . project on the raw representative,
    # bypassing ProjectivePoint canonicalization, so they exercise a
    # genuinely different numeric route than the direct maps
    if v.w == 0:
        return INFINITY
    return ExtendedComplex(v.z / v.w)


# the same on columns; a row where the scalar form branches comes out NaN


def _dist3_columns(a, b) -> np.ndarray:
    return _norms(*(np.asarray(a) - np.asarray(b)))


def _dist_pair_columns(a, b) -> np.ndarray:
    dz = a.z - b.z
    dw = a.w - b.w
    return _norms(dz.real, dz.imag, dw.real, dw.imag)


def _stereo1_inv_columns(u: ComplexColumn):
    # NaN where the scalar stereo1_inv returns its pole: u not finite, or
    # |u|^2 beyond the float range (as for stereo3_inv_parts itself)
    x, y, z = stereo3_inv_parts(u.real, u.imag)
    return z, x, y


def _nan_where(rows, dev) -> np.ndarray:
    return np.where(rows, np.nan, dev)


# The samplers' quaternions, axes and points are unit to rounding, and so
# are the products and lifts built from them: the unit checks of
# su2_from_quat, quat_hopf, conjugate_action and the lifts pass on every
# row, and the column forms skip them.


def _su2(q: Quaternion) -> SU2Matrix:
    v = to_complex_pair(q)
    return SU2Matrix(v.z, v.w)


def _quat_hopf(g: Quaternion):
    return MAPS[HopfVariant.QUAT].columns(g.x0, g.x1, g.x2, g.x3)


def _phase(t) -> Quaternion:
    return Quaternion(each(math.cos, t), each(math.sin, t), 0.0, 0.0)


def _half_angle(aa: _Rotations):
    half = aa.theta / 2.0
    return each(math.cos, half), each(math.sin, half)


def _gq(aa: _Rotations) -> Quaternion:
    c, s = _half_angle(aa)
    n1, n2, n3 = aa.axis
    return Quaternion(c, s * n1, s * n2, s * n3)


def _gb(aa: _Rotations) -> SU2Matrix:
    c, s = _half_angle(aa)
    n1, n2, n3 = aa.axis
    return SU2Matrix(ComplexColumn(c, -n3 * s), ComplexColumn(-n2, -n1) * s)


def _lift_quat_hopf(p) -> Quaternion:
    return Quaternion(*LIFTS[HopfVariant.QUAT].columns(*p))


def _lift_bloch(p) -> ComplexPair:
    return pair_of_columns(*LIFTS[HopfVariant.BLOCH].columns(*p))


# ---------------------------------------------------------------------------
# the catalog, name -> (deviation forms, samplers by sample name in draw
# order); a deviation takes one sample's values in that order and returns
# the distance between its routes, or None to request a redraw (near-pole
# sample)


def _rephrase(q, v):
    g = su2_from_quat(q)
    acted = act_on_vector(g, v)
    if abs(v.w) < _POLE_GUARD * v.norm() or abs(acted.w) < _POLE_GUARD * acted.norm():
        return None
    left = act_on_proj(g, project(v)).rep
    right = project(acted).rep
    return _dist_pair(left, right)


def _rephrase_columns(q, v):
    g = _su2(q)
    acted = act_on_vector(g, v)
    pole = (abs(v.w) < _POLE_GUARD * v.norm()) | (abs(acted.w) < _POLE_GUARD * acted.norm())
    left = canonical(act_on_vector(g, canonical(v)))
    return _nan_where(pole, _dist_pair_columns(left, canonical(acted)))


def _quat_identification(q):
    base = project(ComplexPair(1 + 0j, 0j))
    moved = act_on_proj(su2_from_quat(q), base)
    if abs(moved.rep.w) < _POLE_GUARD:
        return None
    left = stereo1_inv(ext_mul_i(chart(moved)))
    right = quat_hopf(q)
    return _dist3(left, right)


def _quat_identification_columns(q):
    base = project(ComplexPair(1 + 0j, 0j))
    moved = canonical(act_on_vector(_su2(q), base.rep))
    left = _stereo1_inv_columns(1j * (moved.z / moved.w))
    return _nan_where(abs(moved.w) < _POLE_GUARD, _dist3_columns(left, _quat_hopf(q)))


def _template_classic(v):
    if abs(v.w) < _POLE_GUARD:
        return None
    pipeline = stereo3_inv(_raw_chart(v))
    return _dist3(pipeline, hopf_classic(v))


def _template_classic_columns(v):
    u = v.z / v.w
    pipeline = stereo3_inv_parts(u.real, u.imag)
    direct = MAPS[HopfVariant.CLASSIC].columns(v.z.real, v.z.imag, v.w.real, v.w.imag)
    return _nan_where(abs(v.w) < _POLE_GUARD, _dist3_columns(pipeline, direct))


def _template_quat(q):
    t = transpose_map(to_complex_pair(q))
    if abs(t.w) < _POLE_GUARD:
        return None
    pipeline = stereo1_inv(ext_mul_i(_raw_chart(t)))
    return _dist3(pipeline, quat_hopf(q))


def _template_quat_columns(q):
    t = transpose_map(to_complex_pair(q))
    pipeline = _stereo1_inv_columns(1j * (t.z / t.w))
    return _nan_where(abs(t.w) < _POLE_GUARD, _dist3_columns(pipeline, _quat_hopf(q)))


def _template_bloch(v):
    if abs(v.w) < _POLE_GUARD * v.norm():
        return None
    # canonical projective route here; bloch itself divides directly,
    # so the two sides are independent computations
    pipeline = stereo3_inv(ext_conjugate(chart(project(v))))
    return _dist3(pipeline, bloch(v))


def _template_bloch_columns(v):
    # stereo3_inv . ext_conjugate . chart is bloch's formula, here on the
    # canonical representative
    pipeline = bloch_columns(canonical(v))
    return _nan_where(abs(v.w) < _POLE_GUARD * v.norm(), _dist3_columns(pipeline, bloch_columns(v)))


def _compare_bloch_quat(s):
    if abs(s.w) < _POLE_GUARD:
        return None
    left = bloch(transpose_map(s))
    right = reverse(quat_hopf(from_complex_pair(s)))
    return _dist3(left, right)


def _compare_bloch_quat_columns(s):
    left = bloch_columns(transpose_map(s))
    right = reverse(_quat_hopf(from_complex_pair(s)))
    return _nan_where(abs(s.w) < _POLE_GUARD, _dist3_columns(left, right))


def _odot_lemma(q, h):
    g = su2_from_quat(q)
    return _dist_pair(act_on_vector(g, h), matvec_as_quat(g, h))


def _odot_lemma_columns(q, h):
    g = _su2(q)
    return _dist_pair_columns(act_on_vector(g, h), matvec_as_quat(g, h))


def _reconcile(aa, p, fq, fb):
    via_quat, via_bloch = reconcile(aa, p, fq, fb)
    direct = rotate(aa, p)
    return max(_dist3(via_quat, via_bloch), _dist3(via_quat, direct))


def _reconcile_columns(aa, p, fq, fb):
    g = _gq(aa)
    via_quat = _quat_hopf(multiply(g, multiply(_lift_quat_hopf(p), _phase(fq))))
    via_bloch = bloch_columns(act_on_vector(_gb(aa), _lift_bloch(p).scale(fb)))
    direct = sandwich(g, Quaternion(0.0, *p))  # rotate
    return np.maximum(_dist3_columns(via_quat, via_bloch), _dist3_columns(via_quat, direct))


def _derivation_16_18(aa, h):
    g_mat = gb(aa)
    acted = act_on_vector(g_mat, h)
    if abs(h.w) < _POLE_GUARD or abs(acted.w) < _POLE_GUARD:
        return None
    g_tilde = quat_from_su2(g_mat)
    h_tilde = from_complex_pair(h)
    e1 = bloch(acted)
    e2 = bloch(to_complex_pair(multiply(h_tilde, transpose(g_tilde))))
    e3 = reverse(quat_hopf(multiply(g_tilde, transpose(h_tilde))))
    e4 = rotate(aa, bloch(h))
    return max(_dist3(e1, e2), _dist3(e2, e3), _dist3(e3, e4))


def _derivation_16_18_columns(aa, h):
    g_mat = _gb(aa)
    acted = act_on_vector(g_mat, h)
    e1 = bloch_columns(acted)
    e2 = bloch_columns(matvec_as_quat(g_mat, h))  # h~ * transpose(g~)
    e3 = reverse(_quat_hopf(multiply(quat_from_su2(g_mat), transpose(from_complex_pair(h)))))
    e4 = sandwich(_gq(aa), Quaternion(0.0, *bloch_columns(h)))  # rotate
    dev = np.maximum(np.maximum(_dist3_columns(e1, e2), _dist3_columns(e2, e3)), _dist3_columns(e3, e4))
    return _nan_where((abs(h.w) < _POLE_GUARD) | (abs(acted.w) < _POLE_GUARD), dev)


def _final_diagram(aa, p, fq, fb):
    # the Bloch route builds g_B from g_Q by the convention relation
    # g_B(theta, n) = g_Q(-theta, reverse n) and acts by matvec_as_quat,
    # where reconcile calls gb and act_on_vector; reversing the axis tuple
    # keeps its components Python floats
    phase = Quaternion(math.cos(fq), math.sin(fq), 0.0, 0.0)
    top = rotate_via_quat_hopf(aa, multiply(lift_quat_hopf(p), phase))
    g_b = su2_from_quat(gq(AxisAngle(-aa.theta, aa.axis[::-1])))
    bottom = bloch(matvec_as_quat(g_b, lift_bloch(p).scale(fb)))
    middle = rotate(aa, p)
    return max(_dist3(top, middle), _dist3(bottom, middle), _dist3(top, bottom))


def _final_diagram_columns(aa, p, fq, fb):
    g = _gq(aa)
    top = _quat_hopf(multiply(g, multiply(_lift_quat_hopf(p), _phase(fq))))
    g_b = _su2(_gq(_Rotations(-aa.theta, aa.axis[::-1])))
    bottom = bloch_columns(matvec_as_quat(g_b, _lift_bloch(p).scale(fb)))
    middle = sandwich(g, Quaternion(0.0, *p))  # rotate
    dev = np.maximum(_dist3_columns(top, middle), _dist3_columns(bottom, middle))
    return np.maximum(dev, _dist3_columns(top, bottom))


def _iso_su2_quat(q1, q2):
    left = su2_from_quat(multiply(q1, q2))
    right = su2_multiply(su2_from_quat(q1), su2_from_quat(q2))
    return _dist_pair(left, right)


def _iso_su2_quat_columns(q1, q2):
    return _dist_pair_columns(_su2(multiply(q1, q2)), su2_multiply(_su2(q1), _su2(q2)))


def _fiber_invariance(q, t, v, lam):
    if abs(v.w) < _POLE_GUARD:
        return None
    phase = Quaternion(math.cos(t), math.sin(t), 0.0, 0.0)
    dev_q = _dist3(quat_hopf(multiply(q, phase)), quat_hopf(q))
    dev_b = _dist3(bloch(v.scale(lam)), bloch(v))
    return max(dev_q, dev_b)


def _fiber_invariance_columns(q, t, v, lam):
    dev_q = _dist3_columns(_quat_hopf(multiply(q, _phase(t))), _quat_hopf(q))
    dev_b = _dist3_columns(bloch_columns(v.scale(lam)), bloch_columns(v))
    return _nan_where(abs(v.w) < _POLE_GUARD, np.maximum(dev_q, dev_b))


_ROTATION_DRAWS = dict(aa=_AXIS_ANGLE, p=_S2_POINT, fiber_q=_ANGLE, fiber_b=_FIBER_SCALAR)

CHECKS = {
    "rephrase": (Forms(_rephrase, _rephrase_columns), dict(g=_UNIT_QUAT, v=_NONZERO_PAIR)),
    "quat-identification": (Forms(_quat_identification, _quat_identification_columns), dict(g=_UNIT_QUAT)),
    "template-classic": (Forms(_template_classic, _template_classic_columns), dict(v=_UNIT_PAIR)),
    "template-quat": (Forms(_template_quat, _template_quat_columns), dict(g=_UNIT_QUAT)),
    "template-bloch": (Forms(_template_bloch, _template_bloch_columns), dict(v=_NONZERO_PAIR)),
    "compare-bloch-quat": (Forms(_compare_bloch_quat, _compare_bloch_quat_columns), dict(s=_UNIT_PAIR)),
    "odot-lemma": (Forms(_odot_lemma, _odot_lemma_columns), dict(g=_UNIT_QUAT, h=_NONZERO_PAIR)),
    "reconcile": (Forms(_reconcile, _reconcile_columns), _ROTATION_DRAWS),
    "derivation-16-18": (
        Forms(_derivation_16_18, _derivation_16_18_columns),
        dict(aa=_AXIS_ANGLE, h=_UNIT_PAIR),
    ),
    "final-diagram": (Forms(_final_diagram, _final_diagram_columns), _ROTATION_DRAWS),
    "iso-su2-quat": (Forms(_iso_su2_quat, _iso_su2_quat_columns), dict(q1=_UNIT_QUAT, q2=_UNIT_QUAT)),
    "fiber-invariance": (
        Forms(_fiber_invariance, _fiber_invariance_columns),
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
    forms, draws = CHECKS[check.name]
    rng = np.random.Generator(np.random.PCG64(check.seed))
    blocks = []  # (sample columns, accepted rows, their deviations), in stream order
    need = check.samples
    resampled = in_a_row = 0
    while need:
        sample = _draw(draws, rng, min(max(need, _MIN_BLOCK), _MAX_BLOCK))
        with np.errstate(all="ignore"):
            dev = forms.columns(*sample)
        accepted = np.ones(len(dev), dtype=bool)
        done = 0  # rows before this one are decided
        for i in np.flatnonzero(~np.isfinite(dev)).tolist():
            if i - done >= need:  # the finite rows before i complete the count
                break
            need -= i - done
            if i > done:
                in_a_row = 0
            done = i + 1
            d = forms.scalar(*(_row(x, i) for x in sample))
            if d is None:
                accepted[i] = False
                resampled += 1
                in_a_row += 1
                if in_a_row > _MAX_REDRAWS:
                    raise RuntimeError(f"check {check.name}: sampler stuck near a pole")
                continue
            dev[i] = d
            need -= 1
            in_a_row = 0
            if not need:
                break
        take = min(need, len(dev) - done)
        if take:
            in_a_row = 0
        need -= take
        rows = np.flatnonzero(accepted[: done + take])
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
