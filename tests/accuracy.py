"""Forward error of the kernels that take a half angle, and of the
exactly rounded norm, against mpmath.

    python tests/accuracy.py SRC_DIR [--rows N] [--seed S] > table.md

imports hopfrot from SRC_DIR and evaluates the three lifts and the three
Hopf maps by their column forms, and to_axis_angle by scalar calls, on
seeded float64 rows of each region:

- generic: unit rows drawn from a normal distribution;
- near +-e_i: rows within 1e-8 of e_i or -e_i (half each), for each axis;
- off norm: generic rows scaled by 1 + u EPS_NORM, |u| < 1, which the unit
  checks pass.

vector_norm runs on columns of width k = 2, 3 and 4, on rows of normal
components (generic), those rows normalized (unit), and normal components
each scaled by 2^j, |j| <= 40 (spread).

Each result is compared with the kernel's formula evaluated by mpmath at
200 bits on the same float64 inputs: rows that a kernel pins (the bases of
the quaternion lift and the identity of to_axis_angle, where the norm of
the vector part is at most EPS_NORM) are compared with their pins.  A row's
error is its largest component error, absolute, and in ulps of the row's
largest exact component.  The table, in Markdown, gives for each kernel
and region the max and the 99th percentile of both.  `measure` gives the
errors themselves, and tests/test_accuracy.py holds each kernel's max
ulps, in every region, to its entry in BOUNDS.
"""

from __future__ import annotations

import argparse
import math
import sys

import mpmath
import numpy as np

mpmath.mp.prec = 200
NEAR = 1e-8  # how far the rows near an axis are from it
# the largest error in ulps that each kernel may have in any region: the
# 2000-row table's maxima with headroom
BOUNDS = {
    "lift_classic": 4, "lift_quat_hopf": 4, "lift_bloch": 4, "hopf_classic": 4, "quat_hopf": 4, "bloch": 4,
    "to_axis_angle": 2, "vector_norm": 2,
}


def mp(rows):
    return [[mpmath.mpf(c) for c in r] for r in rows.tolist()]


def norm(*c):
    return mpmath.sqrt(mpmath.fsum(x * x for x in c))


def exact_norm(*c):
    return (norm(*c),)


def exact_spherical_lift(sign):
    def lift(x, y, z):
        half, phi = mpmath.atan2(norm(x, y), z) / 2, sign * mpmath.atan2(y, x)
        return mpmath.cos(half), 0, mpmath.cos(phi) * mpmath.sin(half), mpmath.sin(phi) * mpmath.sin(half)

    return lift


def exact_quat_lift(eps):
    def lift(x, y, z):
        s = norm(y, z)
        if s <= eps:  # the pinned bases: 1 at (1, 0, 0), j at (-1, 0, 0)
            return (1, 0, 0, 0) if x > 0 else (0, 0, 1, 0)
        half = mpmath.atan2(s, x) / 2
        return mpmath.cos(half), 0, -z / s * mpmath.sin(half), y / s * mpmath.sin(half)

    return lift


def exact_quat_hopf(a0, a1, a2, a3):
    # the vector part of g i g*
    return a0 * a0 + a1 * a1 - a2 * a2 - a3 * a3, 2 * (a1 * a2 + a0 * a3), 2 * (a1 * a3 - a0 * a2)


def exact_ratio_map(conjugated):
    # stereo3_inv of z/w (classic) or of conj(z/w) (Bloch), cleared of |w|^2:
    # (2 Re c, 2 Im c, |z|^2 - |w|^2) / (|z|^2 + |w|^2), c = z conj(w) or its conjugate
    def hopf(zr, zi, wr, wi):
        re, im = zr * wr + zi * wi, zi * wr - zr * wi
        zz, ww = zr * zr + zi * zi, wr * wr + wi * wi
        n = zz + ww
        return 2 * re / n, (-2 if conjugated else 2) * im / n, (zz - ww) / n

    return hopf


def exact_axis_angle(eps):
    def axis_angle(x0, x1, x2, x3):
        s = norm(x1, x2, x3)
        if s <= eps:  # the identity's axis-angle, as to_axis_angle pins it
            return (0 if x0 > 0 else 2 * mpmath.pi), 0, 0, 1
        return 2 * mpmath.atan2(s, x0), x1 / s, x2 / s, x3 / s

    return axis_angle


def regions(rng, n, k, eps):
    """{name: an (n, k) array of rows} for unit rows of R^k."""
    def unit(m):
        v = rng.standard_normal((m, k))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    out = {"generic": unit(n)}
    names = "xyz" if k == 3 else [f"e{i}" for i in range(k)]
    for i, name in enumerate(names):
        off = unit(n)
        off[:, i] = 0.0  # a direction orthogonal to e_i
        off /= np.linalg.norm(off, axis=1, keepdims=True)
        rows = off * (NEAR * rng.uniform(0.0, 1.0, n))[:, None]
        rows[:, i] = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        out[f"near +-{name}"] = rows
    out["off norm"] = unit(n) * (1.0 + eps * rng.uniform(-0.99, 0.99, n))[:, None]
    return out


def norm_regions(rng, n, k, eps):
    """{name: an (n, k) array of rows} for vector_norm on k components."""
    g = rng.standard_normal((n, k))
    return {
        f"generic k={k}": g,
        f"unit k={k}": g / np.linalg.norm(g, axis=1, keepdims=True),
        f"spread 2^+-40 k={k}": rng.standard_normal((n, k)) * np.ldexp(1.0, rng.integers(-40, 41, (n, k))),
    }


def errors(got, want):
    """Per row: the largest component error, absolute and in ulps of the
    row's largest exact component."""
    absolute, ulps = [], []
    for g, w in zip(got.tolist(), want):
        e = max(abs(mpmath.mpf(a) - b) for a, b in zip(g, w))
        absolute.append(float(e))
        ulps.append(float(e / math.ulp(float(max(abs(b) for b in w)))))
    return np.array(absolute), np.array(ulps)


def kernels(hopfrot):
    """(name, width of the input rows, evaluate on an (n, width) array, exact,
    regions) for each kernel."""
    from hopfrot.hopf import LIFTS, MAPS

    def columns(forms):
        return lambda rows: np.column_stack(np.broadcast_arrays(*forms.columns(*rows.T)))

    def axis_angle(rows):
        out = [hopfrot.to_axis_angle(hopfrot.Quaternion(*r)) for r in rows.tolist()]
        return np.array([[a.theta, *a.axis] for a in out])

    def vector_norm(rows):
        return hopfrot.quat.vector_norm(tuple(rows.T))[:, None]

    v, eps = hopfrot.HopfVariant, hopfrot.quat.EPS_NORM
    return [
        ("lift_classic", 3, columns(LIFTS[v.CLASSIC]), exact_spherical_lift(-1), regions),
        ("lift_quat_hopf", 3, columns(LIFTS[v.QUAT]), exact_quat_lift(eps), regions),
        ("lift_bloch", 3, columns(LIFTS[v.BLOCH]), exact_spherical_lift(1), regions),
        ("hopf_classic", 4, columns(MAPS[v.CLASSIC]), exact_ratio_map(False), regions),
        ("quat_hopf", 4, columns(MAPS[v.QUAT]), exact_quat_hopf, regions),
        ("bloch", 4, columns(MAPS[v.BLOCH]), exact_ratio_map(True), regions),
        ("to_axis_angle", 4, axis_angle, exact_axis_angle(eps), regions),
        *[("vector_norm", k, vector_norm, exact_norm, norm_regions) for k in (2, 3, 4)],
    ]


def measure(n=2000, seed=0):
    """(kernel, region, absolute errors, errors in ulps) for each kernel and
    region, on n rows each."""
    import hopfrot  # here, after main() has put SRC_DIR on sys.path

    eps = hopfrot.quat.EPS_NORM
    for name, width, evaluate, exact, draw in kernels(hopfrot):
        for region, rows in draw(np.random.default_rng([seed, width]), n, width, eps).items():
            yield (name, region, *errors(evaluate(rows), [exact(*r) for r in mp(rows)]))


def table(n=2000, seed=0) -> list[str]:
    lines = [
        "| Kernel | Region | max abs | p99 abs | max ulps | p99 ulps |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, region, absolute, ulps in measure(n, seed):
        lines.append(
            f"| `{name}` | {region} | {absolute.max():.2g} | {np.quantile(absolute, 0.99):.2g} "
            f"| {ulps.max():.3g} | {np.quantile(ulps, 0.99):.3g} |"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="directory that holds the hopfrot package")
    parser.add_argument("--rows", type=int, default=2000, help="rows per region (default 2000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the rows (default 0)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    print("\n".join(table(args.rows, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
