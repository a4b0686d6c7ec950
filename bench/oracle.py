"""Closed-form oracles for hopfrot outputs.

Every oracle is derived from the definitions documented in the library's
docstrings and README, evaluated with numpy over rows, and shares no code
with the library.  Row layouts: points (N, 3); quaternions (N, 4) scalar
first; complex pairs (N, 4) as (Re z, Im z, Re w, Im w).
"""

from __future__ import annotations

import json
import math

import numpy as np

TOLERANCE = 1e-9


def close(actual, expected) -> np.ndarray:
    """Per-row mask: Euclidean distance within TOLERANCE (NaN never passes)."""
    actual = np.asarray(actual, dtype=np.float64)
    if actual.shape != expected.shape:
        return np.zeros(len(expected), dtype=bool)
    return np.linalg.norm(actual - expected, axis=-1) <= TOLERANCE


def rodrigues(theta, axis, p) -> np.ndarray:
    """Rotate rows p by theta about unit rows axis (Rodrigues' formula)."""
    c = np.cos(theta)[:, None]
    s = np.sin(theta)[:, None]
    along = axis * np.sum(axis * p, axis=1, keepdims=True)
    return p * c + np.cross(axis, p) * s + along * (1.0 - c)


def gq(theta, axis) -> np.ndarray:
    """g_Q = cos(theta/2) + sin(theta/2) (n1 i + n2 j + n3 k)."""
    return np.column_stack([np.cos(theta / 2), np.sin(theta / 2)[:, None] * axis])


def gb(theta, axis) -> np.ndarray:
    """g_B(theta, n) = g_Q(-theta, reverse(n)) as the SU(2) pair (z, w)."""
    s = np.sin(theta / 2)
    return np.column_stack([np.cos(theta / 2), -s * axis[:, 2], -s * axis[:, 1], -s * axis[:, 0]])


def quat_hopf(q) -> np.ndarray:
    """g i g*: the first column of the rotation matrix of g."""
    a, b, c, d = q.T
    return np.column_stack([a * a + b * b - c * c - d * d, 2 * (b * c + a * d), 2 * (b * d - a * c)])


def _pairs(v):
    return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]


def bloch(v) -> np.ndarray:
    """stereo3_inv(conj(z/w)), i.e. (2 conj(z) w, |z|^2 - |w|^2) / |v|^2."""
    z, w = _pairs(v)
    zw = np.conj(z) * w
    n = np.abs(z) ** 2 + np.abs(w) ** 2
    return np.column_stack([2 * zw.real, 2 * zw.imag, np.abs(z) ** 2 - np.abs(w) ** 2]) / n[:, None]


def hopf_classic(v) -> np.ndarray:
    """stereo3_inv(z/w): the Bloch map without its conjugation."""
    p = bloch(v)
    p[:, 1] = -p[:, 1]
    return p


def lift_ok(lifts, points, forward) -> np.ndarray:
    """Per-row mask: each lift has unit norm and maps back onto its point."""
    lifts = np.asarray(lifts, dtype=np.float64)
    if lifts.shape != (len(points), 4):
        return np.zeros(len(points), dtype=bool)
    unit = np.abs(np.linalg.norm(lifts, axis=1) - 1.0) <= TOLERANCE
    return unit & close(forward(lifts), points)


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON token {token}")


def strict_json(text: str):
    """Parse JSON, raising ValueError on NaN, Infinity or -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def report_ok(report: dict, encoded: str, reference: str) -> bool:
    """A verify report passes: no failures, finite deviation, same bytes as
    the first report of its check at this seed."""
    return (
        report["failures"] == 0
        and math.isfinite(report["max_deviation"])
        and encoded == reference
    )
