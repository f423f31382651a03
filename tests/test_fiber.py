import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab.exterior import ExteriorAlgebra
from hklab.fiber import (HyperkahlerFiber, bidegree_projectors,
                         complex_structure, contraction_operator,
                         holomorphic_symplectic, kahler_form, slice_basis,
                         standard_fiber, type_derivation, wedge_operator)
from hklab.quaternions import (TwistorPoint, ZETA_I, ZETA_J, ZETA_K,
                               adjoint_action, fibonacci_sphere,
                               random_twistor_point, random_unit_quaternion)
from hklab.reptheory import lefschetz_triple
from hklab.symmetry import clifford, clifford_2form
from hklab.torus import LatticeSpec, build_gauge_field, flux_spectra

from .oracles import bidegree_projector, zero_one_star_projector


def test_standard_fiber_basis_convention(fiber1):
    e = np.eye(4)
    assert np.allclose(fiber1.I @ e[:, 0], e[:, 1])
    assert np.allclose(fiber1.J @ e[:, 0], e[:, 2])
    assert np.allclose(fiber1.K @ e[:, 0], e[:, 3])
    assert np.abs(fiber1.I @ fiber1.J - fiber1.K).max() == 0.0


def test_standard_fiber_invariants_n2(fiber2):
    assert fiber2.structure_residual() < 1e-14
    assert fiber2.d == 8 and fiber2.dim == 256


def test_empty_fiber_rejected():
    with pytest.raises(ValueError, match="empty fiber"):
        standard_fiber(0)


def test_complex_structure_axis_and_random(fiber1, rng):
    assert np.abs(complex_structure(fiber1, ZETA_J) - fiber1.J).max() == 0.0
    assert np.abs(complex_structure(fiber1, -ZETA_J) + fiber1.J).max() == 0.0
    for _ in range(10):
        Jz = complex_structure(fiber1, random_twistor_point(rng))
        assert np.abs(Jz @ Jz + np.eye(4)).max() < 1e-13


def test_complex_structure_rejects_non_unit():
    with pytest.raises(ValueError):
        TwistorPoint(0.5, 0.5, 0.5)


def test_twistor_rotation_matches_quaternion_conjugation(fiber1, rng):
    """J_{eta.zeta} equals conjugation of J_zeta by left multiplication."""
    for _ in range(10):
        eta = random_unit_quaternion(rng)
        zeta = random_twistor_point(rng)
        w, x, y, z = eta.as_array()
        Leta = w * np.eye(4) + x * fiber1.I + y * fiber1.J + z * fiber1.K
        lhs = complex_structure(fiber1, adjoint_action(eta, zeta))
        rhs = Leta @ complex_structure(fiber1, zeta) @ np.linalg.inv(Leta)
        assert np.abs(lhs - rhs).max() < 1e-13


def test_kahler_forms_derived_values(fiber1):
    pairs = list(itertools.combinations(range(4), 2))
    wi = {(a, b): kahler_form(fiber1, ZETA_I)[a, b] for a, b in pairs}
    assert wi[(0, 1)] == 1 and wi[(2, 3)] == 1
    assert sum(abs(v) for k, v in wi.items() if k not in ((0, 1), (2, 3))) == 0
    wj = {(a, b): kahler_form(fiber1, ZETA_J)[a, b] for a, b in pairs}
    assert wj[(0, 2)] == 1 and wj[(1, 3)] == -1
    wk = {(a, b): kahler_form(fiber1, ZETA_K)[a, b] for a, b in pairs}
    assert wk[(0, 3)] == 1 and wk[(1, 2)] == 1


def test_kahler_form_linearity_and_antisymmetry(fiber1, rng):
    z = random_twistor_point(rng)
    combo = (z.zeta_I * kahler_form(fiber1, ZETA_I)
             + z.zeta_J * kahler_form(fiber1, ZETA_J)
             + z.zeta_K * kahler_form(fiber1, ZETA_K))
    assert np.allclose(kahler_form(fiber1, z), combo, atol=1e-14)
    W = kahler_form(fiber1, z)
    assert np.abs(W + W.T).max() < 1e-14


def test_omega_j_squared_is_twice_volume(fiber1):
    wj = kahler_form(fiber1, ZETA_J)
    L = wedge_operator(fiber1, wj).matrix
    v = L @ (L @ np.eye(16, dtype=complex)[:, 0])
    expected = np.zeros(16, dtype=complex)
    expected[-1] = 2.0  # e^0123
    assert np.allclose(v, expected, atol=1e-14)


def test_wedge_square_zero_and_duality(fiber1):
    alg = fiber1.algebra
    W = wedge_operator(fiber1, np.eye(4)[0]).matrix
    assert np.abs(W @ W).max() == 0.0
    C = contraction_operator(fiber1, np.eye(4)[0]).matrix
    assert np.abs(C @ W + W @ C - np.eye(alg.dim)).max() == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_wedge_contraction_anticommutator_random(seed):
    fiber = standard_fiber(1)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    W = wedge_operator(fiber, a).matrix
    C = contraction_operator(fiber, v).matrix
    pairing = a @ v
    assert np.abs(C @ W + W @ C - pairing * np.eye(16)).max() < 1e-13


def test_wedge_past_top_degree_is_zero(fiber1):
    top = np.zeros(16, dtype=complex)
    top[-1] = 1.0
    W = wedge_operator(fiber1, np.ones(4))
    assert np.abs(W.matrix @ top).max() == 0.0


def test_projector_completeness_random_zetas(fiber1, rng):
    for _ in range(10):
        z = random_twistor_point(rng)
        S = sum(bidegree_projector(fiber1, z, p, q).matrix
                for p in range(3) for q in range(3))
        assert np.abs(S - np.eye(16)).max() < 1e-13


def _element(fiber, W):
    """The 2-form W as an element of the algebra: W wedged with 1."""
    return wedge_operator(fiber, W).matrix[:, 0]


def test_projector_bidegree_examples(fiber1):
    v = _element(fiber1, kahler_form(fiber1, ZETA_J))
    P11 = bidegree_projector(fiber1, ZETA_J, 1, 1).matrix
    assert np.allclose(P11 @ v, v, atol=1e-13)
    vo = _element(fiber1, holomorphic_symplectic(fiber1))
    assert np.allclose(bidegree_projector(fiber1, ZETA_J, 2, 0).matrix @ vo,
                       vo, atol=1e-13)
    assert np.allclose(bidegree_projector(fiber1, ZETA_J, 0, 2).matrix
                       @ vo.conj(), vo.conj(), atol=1e-13)


def test_projector_out_of_range(fiber1):
    with pytest.raises(ValueError):
        bidegree_projector(fiber1, ZETA_J, 3, 0)


def test_projector_conjugate_swap(fiber1, rng):
    for _ in range(5):
        z = random_twistor_point(rng)
        for (p, q) in ((1, 0), (1, 1), (2, 1)):
            A = bidegree_projector(fiber1, -z, p, q).matrix
            B = bidegree_projector(fiber1, z, q, p).matrix
            assert np.abs(A - B).max() < 1e-12


def test_projector_trace_dimensions(fiber2, rng):
    z = random_twistor_point(rng)
    for p in range(5):
        for q in range(5):
            tr = np.trace(bidegree_projector(fiber2, z, p, q).matrix)
            assert abs(tr.real - math.comb(4, p) * math.comb(4, q)) < 1e-9
            assert abs(tr.imag) < 1e-10


def test_kahler_form_is_fixed_by_11_projector(fiber1):
    for z in fibonacci_sphere(20):
        v = _element(fiber1, kahler_form(fiber1, z))
        P = bidegree_projector(fiber1, z, 1, 1).matrix
        assert np.abs(P @ v - v).max() < 1e-12


def test_zero_one_star_parity_split(fiber1, rng):
    z = random_twistor_point(rng)
    total = zero_one_star_projector(fiber1, z).matrix
    even = zero_one_star_projector(fiber1, z, (0, 2)).matrix
    odd = zero_one_star_projector(fiber1, z, (1,)).matrix
    assert np.abs(total - even - odd).max() < 1e-12
    assert abs(np.trace(total).real - 4) < 1e-9
    with pytest.raises(ValueError):
        zero_one_star_projector(fiber1, z, (3,))


def test_slice_basis_at_n3_diagonalizes_the_type_derivation():
    """At n = 3 (4096 monomials) the columns are isometric, and those of
    degree q are eigenvectors of the type derivation with eigenvalue
    -q sqrt(-1): (0, q)_zeta."""
    fiber = standard_fiber(3)
    zeta = random_twistor_point(np.random.default_rng(3))
    Q = slice_basis(fiber, zeta, range(7))
    assert np.abs(Q.conj().T @ Q - np.eye(64)).max() <= 1e-14
    q = np.repeat(np.arange(7), [math.comb(6, q) for q in range(7)])
    DQ = type_derivation(fiber, zeta) @ Q
    assert np.abs(DQ - Q * (-1j * q)).max() <= 1e-12


def test_slice_basis_rejects_degrees_out_of_range(fiber1):
    for degrees in ((3,), (-1,), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="out of range"):
            slice_basis(fiber1, ZETA_J, degrees)


def test_slice_basis_rejects_repeated_degrees(fiber1):
    # a repeated degree would repeat its columns: Q^H Q = 1 fails and every
    # multiplicity of a slice spectrum doubles
    for degrees in ((1, 1), (0, 2, 0)):
        with pytest.raises(ValueError, match="repeat"):
            slice_basis(fiber1, ZETA_J, degrees)
    field = build_gauge_field(LatticeSpec(1, 4), 1)
    with pytest.raises(ValueError, match="repeat"):
        flux_spectra(field, ZETA_J, [(1, 1)], 6)


def test_form_coefficients_are_validated(fiber1):
    """A form is a length-d vector (1-form) or an antisymmetric d x d
    matrix (2-form); each entry point rejects every other array."""
    skew = np.triu(np.ones((4, 4)), 1)
    skew = skew - skew.T
    not_skew = skew + np.eye(4)
    assert wedge_operator(fiber1, np.ones(4)).dim == 16
    assert wedge_operator(fiber1, skew).dim == 16
    for bad in (np.ones(7), np.ones(6), np.ones(3), np.ones((3, 3)),
                not_skew, np.ones((4, 4, 4))):
        with pytest.raises(ValueError):
            wedge_operator(fiber1, bad)
    for build in (lambda W: clifford_2form(fiber1, ZETA_J, W),
                  lambda W: lefschetz_triple(fiber1, W)):
        build(skew)
        for bad in (np.ones(4), np.ones(6), np.ones((5, 5)), not_skew):
            with pytest.raises(ValueError):
                build(bad)
    with pytest.raises(ValueError, match="antisymmetric"):
        lefschetz_triple(fiber1, not_skew)
    clifford(fiber1, ZETA_J, np.ones(4))
    for bad in (np.ones(5), skew, np.ones(())):
        with pytest.raises(ValueError):
            clifford(fiber1, ZETA_J, bad)


def _rotated(fiber, rng):
    """The fiber with I, J, K conjugated by a random orthogonal matrix,
    which at n >= 2 couples the quaternion blocks."""
    n = fiber.n
    Q, _ = np.linalg.qr(rng.normal(size=(4 * n, 4 * n)))
    I, J, K = (Q @ X @ Q.T for X in (fiber.I, fiber.J, fiber.K))
    return HyperkahlerFiber(n, fiber.g, I, J, K, algebra=fiber.algebra)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_forms_are_exactly_antisymmetric(n):
    """The Kahler forms at random zeta, Omega and conj(Omega) satisfy
    W == -W.T exactly, and omega_J is e^02 - e^13 on every block."""
    fiber = standard_fiber(n)
    rng = np.random.default_rng(n)
    forms = [kahler_form(fiber, random_twistor_point(rng)) for _ in range(200)]
    omega = holomorphic_symplectic(fiber)
    for W in forms + [omega, omega.conj()]:
        assert W.shape == (4 * n, 4 * n)
        assert np.array_equal(W, -W.T)
    wj = kahler_form(fiber, ZETA_J)
    for b in range(0, 4 * n, 4):
        assert wj[b, b + 2] == 1 and wj[b + 1, b + 3] == -1
    # in a rotated orthonormal basis g J_zeta is antisymmetric only to
    # roundoff; its Kahler form still is exactly, and is accepted
    rotated = _rotated(fiber, rng)
    z = random_twistor_point(rng)
    W = kahler_form(rotated, z)
    assert np.array_equal(W, -W.T)
    assert np.abs(W - (fiber.g @ complex_structure(rotated, z)).T).max() < 1e-14
    assert wedge_operator(rotated, W).dim == fiber.dim


def test_twisted_star_degree_signs():
    alg = ExteriorAlgebra(4)
    star = alg.hodge_star().matrix
    tw = alg.twisted_star().matrix
    # degree 0: sign +1, so both agree on the empty monomial
    assert np.allclose(tw[:, 0], star[:, 0])
    # degree 1: sign (-1)^{1} = -1
    assert np.allclose(tw[:, 1], -star[:, 1])
    # star is an isometry
    assert np.abs(star.T @ star - np.eye(16)).max() == 0.0
    # column scaling gives the product with the sign diagonal bit for bit
    signs = (-1.0) ** (alg.degrees * (alg.degrees + 1) // 2 % 2)
    assert tw.tobytes() == (star @ np.diag(signs)).tobytes()


def test_bidegree_projectors_reject_a_rotated_fiber(fiber1, fiber2):
    # the projectors are Kronecker sums over the quaternion blocks: a
    # rotation inside the one block of n = 1 keeps that form, one that
    # couples the blocks of n = 2 has no such form and raises
    rng = np.random.default_rng(2)
    z = random_twistor_point(rng)
    one = _rotated(fiber1, rng)
    proj = bidegree_projectors(one, z, [(p, q) for p in range(3)
                                        for q in range(3)])
    total = sum(P.matrix for P in proj.values())
    assert np.abs(total - np.eye(16)).max() < 1e-13
    D = type_derivation(one, z).matrix
    P = proj[1, 1].matrix
    assert np.abs(D @ P).max() < 1e-13
    with pytest.raises(ValueError, match="between two quaternion blocks"):
        bidegree_projectors(_rotated(fiber2, rng), z, [(1, 1)])
