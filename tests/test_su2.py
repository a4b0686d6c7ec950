import math

import numpy as np
import pytest

from hopfrot import (
    ComplexPair,
    NotUnit,
    Quaternion,
    act_on_proj,
    act_on_sphere_point,
    act_on_vector,
    multiply,
    proj_eq,
    project,
    quat_from_su2,
    su2_from_quat,
    su2_multiply,
    to_complex_pair,
    torus,
    transpose_map,
)
from hopfrot.quat import I, J, K, ONE
from hopfrot.su2 import IDENTITY, SU2Matrix

from values import assert_immutable_value

RNG = np.random.default_rng(7)
S = 1 / math.sqrt(2)


def random_unit_quat(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def test_su2_from_quat_examples():
    assert su2_from_quat(ONE) == IDENTITY
    assert su2_from_quat(J) == SU2Matrix(0j, 1 + 0j)
    m = su2_from_quat(Quaternion(S, 0, 0, S))
    assert m.z == pytest.approx(S)
    assert m.w == pytest.approx(S * 1j)


def test_su2_from_quat_rejects_non_unit():
    with pytest.raises(NotUnit):
        su2_from_quat(Quaternion(1, 1, 0, 0))


def test_quat_from_su2():
    assert quat_from_su2(IDENTITY) == ONE
    assert quat_from_su2(SU2Matrix(1j, 0j)) == I
    for _ in range(50):
        q = random_unit_quat(RNG)
        assert quat_from_su2(su2_from_quat(q)) == q


def test_su2_multiply():
    a = su2_from_quat(random_unit_quat(RNG))
    assert su2_multiply(a, IDENTITY) == a
    prod = su2_multiply(su2_from_quat(I), su2_from_quat(J))
    expected = su2_from_quat(K)
    assert prod.z == pytest.approx(expected.z)
    assert prod.w == pytest.approx(expected.w)


def test_torus_addition():
    t = su2_multiply(torus(0.4), torus(1.1))
    assert t.z == pytest.approx(torus(1.5).z)
    assert t.w == 0


def test_torus_values():
    assert torus(0) == IDENTITY
    assert torus(math.pi).z == pytest.approx(-1)
    assert torus(math.pi / 2).z == pytest.approx(1j)


def test_act_on_vector():
    v = ComplexPair(0.3 + 1j, -2 + 0.5j)
    assert act_on_vector(IDENTITY, v) == v
    g = su2_from_quat(random_unit_quat(RNG))
    moved = act_on_vector(g, ComplexPair(1, 0))
    assert moved.z == g.z and moved.w == -g.w.conjugate()
    spun = act_on_vector(torus(0.8), ComplexPair(1, 0))
    assert spun.z == pytest.approx(torus(0.8).z)
    assert spun.w == 0


def test_act_on_vector_preserves_norm():
    for _ in range(200):
        g = su2_from_quat(random_unit_quat(RNG))
        v = ComplexPair(complex(*RNG.standard_normal(2)), complex(*RNG.standard_normal(2)))
        assert act_on_vector(g, v).norm() == pytest.approx(v.norm(), rel=1e-12, abs=1e-12)


def test_act_on_sphere_point():
    assert act_on_sphere_point(IDENTITY) == ComplexPair(1 + 0j, 0j)
    assert act_on_sphere_point(su2_from_quat(J)) == ComplexPair(0j, -1 + 0j)
    assert act_on_sphere_point(su2_from_quat(I)) == ComplexPair(1j, 0j)


def test_two_identifications_differ_by_transpose():
    for _ in range(200):
        q = random_unit_quat(RNG)
        a = act_on_sphere_point(su2_from_quat(q))
        b = transpose_map(to_complex_pair(q))
        assert abs(a.z - b.z) <= 1e-12 and abs(a.w - b.w) <= 1e-12


def test_act_on_proj():
    base = project(ComplexPair(1, 0))
    p = project(ComplexPair(0.5 + 1j, 2 - 0.3j))
    assert proj_eq(act_on_proj(IDENTITY, p), p)
    assert proj_eq(act_on_proj(torus(1.3), base), base)
    assert proj_eq(act_on_proj(su2_from_quat(J), base), project(ComplexPair(0, 1)))


def test_orbit_stabilizer_at_base():
    base = project(ComplexPair(1, 0))
    for _ in range(200):
        g = su2_from_quat(random_unit_quat(RNG))
        theta = RNG.uniform(0, 2 * math.pi)
        a = act_on_proj(su2_multiply(g, torus(theta)), base)
        b = act_on_proj(g, base)
        assert proj_eq(a, b)


def test_homomorphism():
    for _ in range(500):
        q1, q2 = random_unit_quat(RNG), random_unit_quat(RNG)
        left = su2_from_quat(multiply(q1, q2))
        right = su2_multiply(su2_from_quat(q1), su2_from_quat(q2))
        assert abs(left.z - right.z) <= 1e-12
        assert abs(left.w - right.w) <= 1e-12


def test_rephrase_diagram_commutes():
    for _ in range(200):
        g = su2_from_quat(random_unit_quat(RNG))
        v = ComplexPair(complex(*RNG.standard_normal(2)), complex(*RNG.standard_normal(2)))
        if v.norm() < 1e-3:
            continue
        assert proj_eq(act_on_proj(g, project(v)), project(act_on_vector(g, v)))


def test_su2_matrix_is_an_immutable_value():
    assert_immutable_value(SU2Matrix(0.6 + 0j, -0.8j), z=1j)
    assert repr(IDENTITY) == "SU2Matrix(z=(1+0j), w=0j)"


def test_su2_matrix_of_columns_still_constructs():
    z = to_complex_pair(Quaternion(*np.eye(4)[:, :2]))
    m = SU2Matrix(z.z, z.w)
    assert m.z is z.z and quat_from_su2(m).x1.tolist() == [0.0, 1.0]
