import math

import numpy as np
import pytest

from hklab.fiber import (holomorphic_symplectic, kahler_form, standard_fiber,
                         wedge_operator)
from hklab.quaternions import (QUAT_J, QUAT_K, UnitQuaternion, ZETA_I, ZETA_J,
                               ZETA_K, TwistorPoint, adjoint_action,
                               random_twistor_point, random_unit_quaternion)
from hklab.reptheory import antiholomorphic_triple
from hklab.symmetry import (chi, chi_k, check_ids, clifford, clifford_2form,
                            exp_antihermitian, hodge_star_twisted,
                            rel_residual, rho_j_sp1, rho_sp1,
                            rho_sp1_oneform, ten_operators, verify_identity)

from .oracles import bidegree_projector, zero_one_star_projector

MINUS_J = TwistorPoint(0.0, -1.0, 0.0)


# ----- the ten-operator algebra ---------------------------------------------

def test_lefschetz_triple_commutator_is_degree_shift(fiber1):
    ops = ten_operators(fiber1)
    for axis in "IJK":
        C = ops.L[axis].matrix @ ops.Lambda[axis].matrix \
            - ops.Lambda[axis].matrix @ ops.L[axis].matrix
        assert rel_residual(C, ops.H.matrix) < 1e-12


def test_cross_commutator_gives_type_derivation(fiber1):
    ops = ten_operators(fiber1)
    C = ops.L["I"].matrix @ ops.Lambda["J"].matrix \
        - ops.Lambda["J"].matrix @ ops.L["I"].matrix
    assert rel_residual(C, ops.ad["K"].matrix) < 1e-12


def test_ad_eigenvalues_on_bidegree_slices(fiber1):
    ops = ten_operators(fiber1)
    for p in range(3):
        for q in range(3):
            P = bidegree_projector(fiber1, ZETA_J, p, q).matrix
            assert rel_residual(ops.ad["J"].matrix @ P,
                                (p - q) * 1j * P) < 1e-12


def test_closure_and_rank(fiber1):
    ops = ten_operators(fiber1)
    worst, table = ops.closure()
    assert worst < 1e-11
    assert table.shape == (45, 10)
    stacked = np.stack([op.matrix.ravel() for op in ops.as_list()], axis=1)
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == 10


def test_operator_tags(fiber1):
    ops = ten_operators(fiber1)
    H = ops.H.matrix
    assert np.linalg.norm(H - H.conj().T, 2) < 1e-12
    for axis in "IJK":
        assert (ops.L[axis].matrix
                - ops.Lambda[axis].matrix.conj().T).max() == 0.0


# ----- the hypercomplex Sp(1) action ----------------------------------------

def test_rho_identity_and_minus_one(fiber1):
    assert np.abs(rho_sp1(fiber1, UnitQuaternion.identity()).matrix
                  - np.eye(16)).max() == 0.0
    R = rho_sp1(fiber1, UnitQuaternion(-1.0, 0.0, 0.0, 0.0)).matrix
    degs = fiber1.algebra.degrees
    assert rel_residual(R, np.diag(((-1.0) ** degs).astype(complex))) < 1e-12


def test_rho_zeta_acts_by_type_phase(fiber1, rng):
    for _ in range(5):
        z = random_twistor_point(rng)
        R = rho_sp1(fiber1, z.as_quaternion()).matrix
        for p in range(3):
            for q in range(3):
                P = bidegree_projector(fiber1, z, p, q).matrix
                assert rel_residual(R @ P, (1j) ** ((p - q) % 4) * P) < 1e-11


def test_rho_j_phase_on_10_slice(fiber1):
    R = rho_sp1(fiber1, QUAT_J).matrix
    P = bidegree_projector(fiber1, ZETA_J, 1, 0).matrix
    assert rel_residual(R @ P, 1j * P) < 1e-12


def test_rho_is_unitary_and_reversed_group_law(fiber1, rng):
    worst = 0.0
    for _ in range(50):
        a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
        Ra, Rb = rho_sp1(fiber1, a).matrix, rho_sp1(fiber1, b).matrix
        Rab = rho_sp1(fiber1, a * b).matrix
        worst = max(worst, rel_residual(Rab, Rb @ Ra))
    assert worst < 1e-10
    R = rho_sp1(fiber1, random_unit_quaternion(rng)).matrix
    assert np.linalg.norm(R.conj().T @ R - np.eye(16), 2) < 1e-12


def test_rho_slice_transport_is_inverse_adjoint(fiber1, rng):
    """rho(eta) carries the (p, q) slice of J_{eta . zeta} onto that of
    J_zeta; equivalently it moves slices by the inverse adjoint rotation."""
    for _ in range(10):
        eta = random_unit_quaternion(rng)
        zeta = random_twistor_point(rng)
        R = rho_sp1(fiber1, eta).matrix
        src = bidegree_projector(fiber1, adjoint_action(eta, zeta), 1, 0).matrix
        dst = bidegree_projector(fiber1, zeta, 1, 0).matrix
        assert rel_residual(dst @ R @ src, R @ src) < 1e-11


# ----- Clifford actions ------------------------------------------------------

def test_clifford_axis_identities(fiber1):
    tri = antiholomorphic_triple(fiber1)
    L, A, H = tri.L.matrix, tri.Lambda.matrix, tri.H.matrix
    Om = holomorphic_symplectic(fiber1)
    wJ = kahler_form(fiber1, ZETA_J)
    wK = kahler_form(fiber1, ZETA_K)
    wI = kahler_form(fiber1, ZETA_I)
    assert rel_residual(clifford_2form(fiber1, ZETA_J, wJ).matrix,
                        2j * H) < 1e-12
    assert rel_residual(clifford_2form(fiber1, ZETA_J, Om).matrix,
                        -2.0 * A) < 1e-12
    assert rel_residual(clifford_2form(fiber1, ZETA_J, Om.conj()).matrix,
                        2.0 * L) < 1e-12
    assert rel_residual(clifford_2form(fiber1, ZETA_J, wK).matrix,
                        2.0 * (L - A)) < 1e-12
    assert rel_residual(clifford_2form(fiber1, ZETA_J, wI).matrix,
                        2j * (L + A)) < 1e-12


def test_clifford_relation(fiber1, rng):
    z = random_twistor_point(rng)
    c0 = clifford(fiber1, z, np.eye(4)[0]).matrix
    assert rel_residual(c0 @ c0, -np.eye(16)) < 1e-12
    for _ in range(10):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        ca = clifford(fiber1, z, a).matrix
        cb = clifford(fiber1, z, b).matrix
        assert rel_residual(ca @ cb + cb @ ca,
                            -2.0 * (a @ b) * np.eye(16)) < 1e-13


def test_clifford_preserves_zero_star_towers(fiber1, rng):
    z = random_twistor_point(rng)
    P = zero_one_star_projector(fiber1, z).matrix
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    C = clifford(fiber1, z, a).matrix
    assert rel_residual(P @ C @ P, C @ P) < 1e-12



def test_exp_antihermitian_rejects_non_finite_generators():
    """A NaN entry fails the anti-Hermitian check, which compares with <=,
    instead of giving a NaN exponential."""
    G = np.zeros((4, 4))
    G[0, 1], G[1, 0] = np.nan, -np.nan
    with pytest.raises(ValueError, match="not anti-Hermitian"):
        exp_antihermitian(G)

# ----- the Clifford Sp(1) action and Hodge star -----------------------------

def test_rho_j_closed_forms(fiber1):
    tri = antiholomorphic_triple(fiber1)
    L, A, H = tri.L.matrix, tri.Lambda.matrix, tri.H.matrix
    assert rel_residual(rho_j_sp1(fiber1, QUAT_K).matrix,
                        exp_antihermitian(L - A, math.pi / 2)) < 1e-12
    assert rel_residual(rho_j_sp1(fiber1, QUAT_J).matrix,
                        exp_antihermitian(1j * H, math.pi / 2)) < 1e-12
    assert rel_residual(rho_j_sp1(fiber1, UnitQuaternion(0, 1, 0, 0)).matrix,
                        exp_antihermitian(1j * (L + A), math.pi / 2)) < 1e-12


def test_rho_j_standard_group_law(fiber1, rng):
    worst = 0.0
    for _ in range(50):
        a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
        worst = max(worst, rel_residual(
            rho_j_sp1(fiber1, a * b).matrix,
            rho_j_sp1(fiber1, a).matrix @ rho_j_sp1(fiber1, b).matrix))
    assert worst < 1e-10


def test_rho_j_k_flips_antiholomorphic_degree(fiber1):
    R = rho_j_sp1(fiber1, QUAT_K).matrix
    for p in range(3):
        for q in range(3):
            src = bidegree_projector(fiber1, ZETA_J, p, q).matrix
            dst = bidegree_projector(fiber1, ZETA_J, p, 2 - q).matrix
            assert rel_residual(dst @ R @ src, R @ src) < 1e-12


def test_star_on_degree_zero_and_weil(fiber1):
    star = hodge_star_twisted(fiber1).matrix
    plain = fiber1.algebra.hodge_star().matrix
    assert np.abs(star[:, 0] - plain[:, 0]).max() == 0.0  # k = 0: no sign
    ops = ten_operators(fiber1)
    rk = rho_sp1(fiber1, QUAT_K).matrix
    weil = exp_antihermitian(ops.L["K"].matrix - ops.Lambda["K"].matrix,
                             math.pi / 2) @ rk
    assert rel_residual(star, weil) < 1e-12
    tri = antiholomorphic_triple(fiber1)
    ladder = exp_antihermitian(tri.L.matrix - tri.Lambda.matrix, math.pi / 2)
    assert rel_residual(star, ladder @ rk @ ladder) < 1e-12


def test_rho_k_swaps_ladder_exponentials(fiber1):
    tri = antiholomorphic_triple(fiber1)
    ladder_bar = exp_antihermitian(tri.L.matrix - tri.Lambda.matrix,
                                   math.pi / 2)
    Om = holomorphic_symplectic(fiber1)
    Lo = wedge_operator(fiber1, Om).matrix
    ladder = exp_antihermitian(Lo - Lo.conj().T, math.pi / 2)
    rk = rho_sp1(fiber1, QUAT_K).matrix
    assert rel_residual(rk @ ladder_bar, ladder @ rk) < 1e-11


def test_chi_k_identities(fiber1):
    ck = chi_k(fiber1).matrix
    tri = antiholomorphic_triple(fiber1)
    star = hodge_star_twisted(fiber1).matrix
    assert rel_residual(
        ck, exp_antihermitian(tri.L.matrix - tri.Lambda.matrix, -math.pi / 2)
        @ star) < 1e-12
    assert rel_residual(ck, rho_j_sp1(fiber1, QUAT_K).matrix.conj().T @ star) \
        < 1e-12
    for a in range(4):
        e = np.eye(4)[a]
        assert rel_residual(ck @ clifford(fiber1, ZETA_J, e).matrix,
                            clifford(fiber1, MINUS_J, e).matrix @ ck) < 1e-12


def test_chi_family_contract(fiber1, rng):
    wJ = kahler_form(fiber1, ZETA_J)
    for _ in range(8):
        eta = random_unit_quaternion(rng)
        zeta = random_twistor_point(rng)
        zp = adjoint_action(eta, zeta)
        X = chi(fiber1, eta, zeta).matrix
        P0 = zero_one_star_projector(fiber1, zeta).matrix
        P1 = zero_one_star_projector(fiber1, zp).matrix
        assert rel_residual(P1 @ X @ P0, X @ P0) < 1e-11
        # conjugates the flux remainder along the sphere
        A = clifford_2form(fiber1, zeta, wJ).matrix
        B = clifford_2form(fiber1, zp, wJ).matrix
        assert rel_residual(X @ A, B @ X) < 1e-11
        # parity of the antiholomorphic degree is preserved
        for parity in ((0, 2), (1,)):
            Q0 = zero_one_star_projector(fiber1, zeta, parity).matrix
            Q1 = zero_one_star_projector(fiber1, zp, parity).matrix
            assert rel_residual(Q1 @ X @ Q0, X @ Q0) < 1e-11


def test_chi_identity_element(fiber1, rng):
    z = random_twistor_point(rng)
    X = chi(fiber1, UnitQuaternion.identity(), z).matrix
    assert rel_residual(X, np.eye(16)) < 1e-12


def test_chi_at_axis_matches_k_factorization(fiber1):
    """At (eta, zeta) = (k, j) the family recovers the rho(k) rho_j(k)
    composite up to the central parity element rho_j(-1)."""
    X = chi(fiber1, QUAT_K, ZETA_J).matrix
    RK = rho_sp1(fiber1, QUAT_K).matrix
    RJK = rho_j_sp1(fiber1, QUAT_K).matrix
    assert rel_residual(X, RK @ RJK.conj().T) < 1e-12
    center = rho_j_sp1(fiber1, UnitQuaternion(-1.0, 0, 0, 0)).matrix
    assert rel_residual(X @ center, RK @ RJK) < 1e-12
    # both composites intertwine the +-J Clifford quantized flux forms
    wJ = kahler_form(fiber1, ZETA_J)
    A = clifford_2form(fiber1, ZETA_J, wJ).matrix
    B = clifford_2form(fiber1, MINUS_J, wJ).matrix
    for M in (X, chi_k(fiber1).matrix):
        assert rel_residual(M @ A, B @ M) < 1e-12


def test_prop26_conjugation_direction(fiber1, rng):
    for _ in range(10):
        eta = random_unit_quaternion(rng)
        zeta = random_twistor_point(rng)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        R = rho_sp1(fiber1, eta).matrix
        lhs = R @ clifford(fiber1, zeta, a).matrix @ R.conj().T
        rhs = clifford(fiber1, adjoint_action(eta.conjugate(), zeta),
                       rho_sp1_oneform(fiber1, eta) @ a).matrix
        assert rel_residual(lhs, rhs) < 1e-11


def test_symbol_kahler_identity(fiber1, rng):
    alg = fiber1.algebra
    from hklab.fiber import complex_structure
    for _ in range(10):
        z = random_twistor_point(rng)
        xi = rng.normal(size=4)
        Lw = wedge_operator(fiber1, kahler_form(fiber1, z)).matrix
        sym = -alg.contraction(xi).matrix
        Jz = complex_structure(fiber1, z)
        assert rel_residual(Lw @ sym - sym @ Lw,
                            alg.wedge_1form(Jz @ xi).matrix) < 1e-11


# ----- registry --------------------------------------------------------------

def test_registry_ids_are_stable():
    assert check_ids() == [
        "prop2.1-closure", "eq2.4", "prop2.5-factor", "prop2.6-equivariance",
        "lemma3.11-weil", "lemma3.13-commute", "thm3.10-fiber"]


@pytest.mark.parametrize("cid", [
    "prop2.1-closure", "eq2.4", "prop2.5-factor", "prop2.6-equivariance",
    "lemma3.11-weil", "lemma3.13-commute", "thm3.10-fiber"])
def test_registry_checks_pass_n1(cid, fiber1):
    res = verify_identity(cid, fiber1, seed=7)
    assert res.verdict, res.summary_line()
    assert res.residual < 1e-10
    assert res.params == {"n": 1, "seed": 7}


def test_registry_never_assembles_at_n2_and_n3(fiber2, monkeypatch):
    # every check at n = 2 and n = 3 (4096 monomials) runs on Kronecker
    # terms: no fiber matrix of dimension 256 or more is gathered or wrapped
    from hklab.fiber import FiberOperator

    dense, init = FiberOperator.matrix, FiberOperator.__init__

    def no_matrix(op):
        if op.dim >= 256:
            raise AssertionError(f"assembled the dense matrix of an "
                                 f"operator of dimension {op.dim}")
        return dense.fget(op)

    def no_dense_init(op, matrix, *args, **kwargs):
        if np.shape(matrix)[0] >= 256:
            raise AssertionError("wrapped a dense fiber matrix of "
                                 f"dimension {np.shape(matrix)[0]}")
        init(op, matrix, *args, **kwargs)

    monkeypatch.setattr(FiberOperator, "matrix", property(no_matrix))
    monkeypatch.setattr(FiberOperator, "__init__", no_dense_init)
    for fiber in (fiber2, standard_fiber(3)):
        for cid in check_ids():
            res = verify_identity(cid, fiber, seed=5)
            assert res.verdict, res.summary_line()


def test_registry_unknown_id(fiber1):
    with pytest.raises(KeyError):
        verify_identity("prop9.9", fiber1)


def test_registry_seeded_reproducibility(fiber1):
    a = verify_identity("prop2.6-equivariance", fiber1, seed=3)
    b = verify_identity("prop2.6-equivariance", fiber1, seed=3)
    assert a.residual == b.residual
