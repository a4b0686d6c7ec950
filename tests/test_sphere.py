import itertools
import math
import warnings

import numpy as np
import pytest

from hopfrot import (
    INFINITY,
    ComplexPair,
    DomainError,
    ExtendedComplex,
    NotUnit,
    ProjectivePoint,
    SU2Matrix,
    ZeroVector,
    act_on_proj,
    chart,
    ext_conjugate,
    ext_mul_i,
    finite,
    lift_bloch,
    proj_eq,
    project,
    stereo1,
    stereo1_inv,
    stereo3,
    stereo3_inv,
)
from hopfrot.quat import ComplexColumn
from hopfrot.sphere import canonical, require_sphere

from values import assert_immutable_value

RNG = np.random.default_rng(20240824)


def random_pair(rng):
    v = rng.standard_normal(4)
    return ComplexPair(complex(v[0], v[1]), complex(v[2], v[3]))


def random_sphere(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestProject:
    def test_scaling_to_canonical(self):
        p = project(ComplexPair(2 + 0j, 0j))
        assert p.rep.z == pytest.approx(1.0)
        assert p.rep.w == 0

    def test_scale_invariance(self):
        a = project(ComplexPair(1 + 1j, 1 + 1j))
        b = project(ComplexPair(1 + 0j, 1 + 0j))
        assert proj_eq(a, b)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            project(ComplexPair(0j, 0j))
        with pytest.raises(ZeroVector):
            act_on_proj(SU2Matrix(0j, 1 + 0j), ProjectivePoint(ComplexPair(0j, 0j)))

    @pytest.mark.parametrize(
        "z, w",
        [(1e-10 + 0j, 0j), (1e-200 + 0j, 1e-200 + 0j), (5e-324 + 0j, 0j), (0j, 5e-324 + 0j),
         (1e-170 + 1e-170j, 0j)],
    )
    def test_nonzero_vector_projects_at_any_scale(self, z, w):
        # as bloch does: only the exact zero pair has no class
        n = abs(complex(abs(z), abs(w)))
        unit = project(ComplexPair(z / n, w / n))
        assert proj_eq(project(ComplexPair(z, w)), unit)
        j = SU2Matrix(0j, 1 + 0j)  # (z, w) -> (w, -z), exactly
        assert proj_eq(act_on_proj(j, ProjectivePoint(ComplexPair(z, w))), act_on_proj(j, unit))

    def test_huge_finite_norm_projects(self):
        # squares beyond the float range, which the norm scales down
        p = project(ComplexPair(1e300 + 0j, 1e300 + 0j)).rep
        assert p == ComplexPair(0.7071067811865475 + 0j, 0.7071067811865475 + 0j)
        assert project(ComplexPair(2.0**600 + 0j, 0j)).rep == ComplexPair(1 + 0j, 0j)

    @pytest.mark.parametrize(
        "z, w",
        [
            (1.3e308 + 0j, 1.3e308 + 0j),  # a norm beyond the float range
            (complex(1.5e308, 1.5e308), 0j),  # and |z| too
            (complex(math.nan, 0.0), 1j),
            (complex(0.0, -math.inf), 1j),
        ],
    )
    def test_non_finite_norm_rejected(self, z, w):
        with pytest.raises(DomainError, match="^cannot project a vector of norm (inf|nan)$"):
            project(ComplexPair(z, w))

    def test_canonical_rep_reproducible(self):
        for _ in range(200):
            v = random_pair(RNG)
            lam = complex(*RNG.standard_normal(2))
            a = project(v).rep
            b = project(v.scale(lam)).rep
            assert abs(a.z - b.z) < 1e-12 and abs(a.w - b.w) < 1e-12


class TestProjEq:
    def test_same_class(self):
        assert proj_eq(project(ComplexPair(1, 0)), project(ComplexPair(1j, 0)))

    def test_different_class(self):
        assert not proj_eq(project(ComplexPair(1, 0)), project(ComplexPair(0, 1)))

    def test_nontrivial_scalar(self):
        assert proj_eq(
            project(ComplexPair(1, 2 + 1j)),
            project(ComplexPair(2 - 1j, 5)),
        )

    def test_reflexive_symmetric(self):
        for _ in range(100):
            p = project(random_pair(RNG))
            q = project(random_pair(RNG))
            assert proj_eq(p, p)
            assert proj_eq(p, q) == proj_eq(q, p)


class TestChart:
    def test_pole(self):
        assert chart(project(ComplexPair(1, 0))).is_infinity

    def test_origin(self):
        assert chart(project(ComplexPair(0, 1))).finite == pytest.approx(0)

    def test_quotient(self):
        assert chart(project(ComplexPair(2j, 1))).finite == pytest.approx(2j)

    def test_representative_independence(self):
        for _ in range(200):
            v = random_pair(RNG)
            lam = complex(*RNG.standard_normal(2))
            if abs(lam) < 1e-3 or abs(v.w) < 1e-3:
                continue
            a = chart(project(v))
            b = chart(project(v.scale(lam)))
            assert abs(a.finite - b.finite) <= 1e-12 * max(1.0, abs(a.finite))


class TestStereo:
    def test_stereo1_values(self):
        assert stereo1((1, 0, 0)).is_infinity
        assert stereo1((-1, 0, 0)).finite == 0
        assert stereo1((0, 1, 0)).finite == 1

    def test_stereo3_values(self):
        assert stereo3((0, 0, 1)).is_infinity
        assert stereo3((0, 0, -1)).finite == 0
        assert stereo3((1, 0, 0)).finite == 1

    def test_stereo1_inv_values(self):
        np.testing.assert_allclose(stereo1_inv(INFINITY), [1, 0, 0])
        np.testing.assert_allclose(stereo1_inv(finite(0)), [-1, 0, 0])
        np.testing.assert_allclose(stereo1_inv(finite(1)), [0, 1, 0])

    def test_stereo3_inv_values(self):
        np.testing.assert_allclose(stereo3_inv(INFINITY), [0, 0, 1])
        np.testing.assert_allclose(stereo3_inv(finite(0)), [0, 0, -1])
        np.testing.assert_allclose(stereo3_inv(finite(1j)), [0, 1, 0])

    @pytest.mark.parametrize("fwd,inv", [(stereo1, stereo1_inv), (stereo3, stereo3_inv)])
    def test_round_trip_from_sphere(self, fwd, inv):
        for _ in range(500):
            p = random_sphere(RNG)
            u = fwd(p)
            np.testing.assert_allclose(inv(u), p, atol=1e-12)

    @pytest.mark.parametrize("fwd,inv", [(stereo1, stereo1_inv), (stereo3, stereo3_inv)])
    def test_round_trip_from_plane(self, fwd, inv):
        for _ in range(500):
            u = finite(complex(*(10.0 * RNG.standard_normal(2))))
            back = fwd(inv(u))
            assert abs(back.finite - u.finite) <= 1e-12 * max(1.0, abs(u.finite))

    def test_inverse_outputs_unit(self):
        for _ in range(500):
            u = finite(complex(*(100.0 * RNG.standard_normal(2))))
            for inv in (stereo1_inv, stereo3_inv):
                p = inv(u)
                assert abs(np.dot(p, p) - 1.0) <= 1e-12


class TestExtendedOps:
    def test_conjugate(self):
        assert ext_conjugate(finite(2 + 3j)).finite == 2 - 3j
        assert ext_conjugate(INFINITY).is_infinity
        assert ext_conjugate(finite(5)).finite == 5

    def test_mul_i(self):
        assert ext_mul_i(finite(1)).finite == 1j
        assert ext_mul_i(finite(1j)).finite == -1
        assert ext_mul_i(INFINITY).is_infinity

    def test_mul_i_fourth_power_identity(self):
        u = finite(0.7 - 2.1j)
        out = u
        for _ in range(4):
            out = ext_mul_i(out)
        assert out.finite == u.finite

    def test_conjugate_involution(self):
        u = finite(0.7 - 2.1j)
        assert ext_conjugate(ext_conjugate(u)).finite == u.finite

    def test_finite_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            finite(complex(math.inf, 0))


def on_sphere(p) -> bool:
    try:
        require_sphere(p)
    except NotUnit:
        return False
    return True


class TestSphereGuard:
    """require_sphere decides by the exactly rounded norm, so its verdict
    depends neither on the coordinate order nor on a BLAS kernel."""

    def test_edge_point_in_both_orders(self):
        # np.dot put these two orders 1.99999994e-9 and 2.00000017e-9 off 1
        p = [-0.4867274704164692, -0.8271525622793684, 0.28091815579748625]
        assert require_sphere(p) == p
        assert require_sphere(p[::-1]) == p[::-1]
        assert lift_bloch(p[::-1]) == ComplexPair(
            complex(0.506592800022986, 0.0),
            complex(0.2772622859067695, -0.816387995856519),
        )

    def test_verdict_ignores_coordinate_order(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((2000, 3))
        u /= np.sqrt((u * u).sum(axis=1, keepdims=True))
        # norms a few ulps either side of the band edges 1 -+ EPS_NORM
        r = 1.0 + rng.choice([-1e-9, 1e-9], 2000) * (1.0 + rng.uniform(-1e-7, 1e-7, 2000))
        seen = set()
        for p in (u * r[:, None]).tolist():
            verdicts = {on_sphere(q) for q in itertools.permutations(p)}
            assert len(verdicts) == 1, p
            seen |= verdicts
        assert seen == {True, False}

    def test_overflowing_point_is_not_unit_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnit, match=r"point \[1.3e\+154, 1.3e\+154, 0.0\]"):
                lift_bloch([1.3e154, 1.3e154, 0.0])

    def test_returns_a_list_of_floats(self):
        p = require_sphere(np.array([0, 0, 1]))
        assert p == [0.0, 0.0, 1.0] and all(type(c) is float for c in p)

    def test_stereo_pole_is_exact(self):
        # 1 - c is exact near the pole, so the ulp below it projects to a
        # finite value and c = 1 or above to infinity
        below = math.nextafter(1.0, 0.0)
        rest = math.sqrt(1.0 - below * below)
        assert stereo3((rest, 0.0, below)).finite == complex(rest / (1.0 - below), 0.0)
        assert stereo1((below, 0.0, rest)).finite == complex(0.0, rest / (1.0 - below))
        assert stereo3((0.0, 0.0, 1.0 + 2**-52)).is_infinity
        assert stereo1((1.0 + 2**-52, -0.0, 0.0)).is_infinity


def overflow():
    """Leave errno at ERANGE, as an overflowing abs(complex) does."""
    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))


def test_nan_magnitudes_after_an_overflow():
    # CPython 3.11's abs(complex) leaves errno as it was on a NaN part and no
    # infinite one, so right after an overflow it would raise OverflowError
    nan_c = complex(0.0, math.nan)
    overflow()
    assert math.isnan(ComplexPair(nan_c, 0j).norm())
    overflow()
    with pytest.raises(DomainError):
        project(ComplexPair(nan_c, 1j))
    v = ComplexPair(nan_c, nan_c)
    n = v.norm()
    overflow()
    v = canonical(v, n)
    assert all(map(math.isnan, (v.z.real, v.z.imag, v.w.real, v.w.imag)))
    p, q = ProjectivePoint(ComplexPair(nan_c, 1j)), project(ComplexPair(1 + 0j, 0j))
    overflow()
    assert not proj_eq(p, q)
    overflow()  # a finite modulus beyond the float range still overflows
    assert ComplexPair(complex(1.5e308, 1.5e308), 0j).norm() == math.inf


@pytest.mark.parametrize(
    "value, changes",
    [
        (ExtendedComplex(0.5 - 2j), {"value": None}),
        (INFINITY, {"value": 1j}),
        (ProjectivePoint(ComplexPair(0.6j, 0.8 + 0j)), {"rep": ComplexPair(1 + 0j, 0j)}),
    ],
)
def test_points_are_immutable_values(value, changes):
    assert_immutable_value(value, **changes)


def test_infinity_keeps_its_value():
    assert repr(INFINITY) == "ExtendedComplex(value=None)"
    assert INFINITY == ExtendedComplex(None) and INFINITY.is_infinity
    assert ext_conjugate(INFINITY) is INFINITY and ext_mul_i(INFINITY) is INFINITY


def test_points_of_columns_still_construct():
    z, w = ComplexColumn(np.array([0.6, 0.0]), np.zeros(2)), ComplexColumn(np.zeros(2), np.ones(2))
    rows = ComplexPair(z, w)
    p = ProjectivePoint(canonical(rows, rows.norm()))
    assert type(p.rep.w) is ComplexColumn and p.rep.w.real.tolist()[1] == 1.0
    u = ExtendedComplex(rows.z)
    assert u.value is rows.z and not u.is_infinity
