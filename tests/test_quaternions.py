import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab.quaternions import (QUAT_J, QUAT_K, TwistorPoint, UnitQuaternion,
                               ZETA_I, ZETA_J, ZETA_K, adjoint_action,
                               axis_points, fibonacci_sphere, hopf_section,
                               random_twistor_point, random_unit_quaternion,
                               sample_zetas)


def test_unit_invariants_enforced():
    with pytest.raises(ValueError):
        TwistorPoint(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        UnitQuaternion(1.0, 1.0, 0.0, 0.0)
    TwistorPoint(0.0, 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_components_rejected(bad):
    with pytest.raises(ValueError, match="must be unit"):
        TwistorPoint(bad, 0.0, 0.0)
    with pytest.raises(ValueError, match="must be unit"):
        TwistorPoint(0.0, 1.0, bad)
    with pytest.raises(ValueError, match="must be unit"):
        UnitQuaternion(bad, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="must be unit"):
        UnitQuaternion(1.0, 0.0, bad, 0.0)


def test_adjoint_axis_examples():
    # j . j = j (fixed axis), k . j = -j
    assert np.allclose(adjoint_action(QUAT_J, ZETA_J).as_array(), [0, 1, 0])
    assert np.allclose(adjoint_action(QUAT_K, ZETA_J).as_array(), [0, -1, 0])
    assert np.allclose(adjoint_action(QUAT_K, ZETA_I).as_array(), [-1, 0, 0])


def test_adjoint_unitarity_100_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        eta = random_unit_quaternion(rng)
        zeta = random_twistor_point(rng)
        out = adjoint_action(eta, zeta)
        assert abs(out.norm2() - 1.0) < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adjoint_is_rotation_action(seed):
    rng = np.random.default_rng(seed)
    a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
    z = random_twistor_point(rng)
    lhs = adjoint_action(a, adjoint_action(b, z)).as_array()
    rhs = adjoint_action(a * b, z).as_array()
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_axis_angle_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        eta = random_unit_quaternion(rng)
        theta, u = eta.axis_angle()
        back = UnitQuaternion.from_axis_angle(theta, u)
        assert np.allclose(back.as_array(), eta.as_array(), atol=1e-14)


def test_hopf_section_rotates_to_j():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = random_twistor_point(rng)
        assert np.allclose(adjoint_action(hopf_section(z), z).as_array(),
                           [0, 1, 0], atol=1e-12)
    assert hopf_section(ZETA_J) == UnitQuaternion.identity()
    assert hopf_section(-ZETA_J) == QUAT_K
    assert np.allclose(adjoint_action(QUAT_K, -ZETA_J).as_array(), [0, 1, 0])


def test_fibonacci_sphere_deterministic_and_unit():
    a = fibonacci_sphere(20)
    b = fibonacci_sphere(20)
    assert all(np.allclose(x.as_array(), y.as_array()) for x, y in zip(a, b))
    assert len(sample_zetas("full")) == 26
    assert len(axis_points()) == 6


def test_sample_zetas_unknown_kind():
    with pytest.raises(ValueError):
        sample_zetas("nope")
