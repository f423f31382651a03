"""Structured exterior-algebra operators against the dense reference.

The library stores each wedge generator as index arrays, builds every
operator that stays inside the quaternion blocks as Kronecker terms of
16 x 16 factors (the others as dense matrices), exponentiates generators
as Kronecker products of quaternion-block factors and writes the two Sp(1)
actions in closed form; `oracles.DenseExterior` builds the same operators as sums of
products of dense generator matrices, and `oracles.dense_exp_antihermitian`
exponentiates with one full eigh.
"""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from hklab.exterior import ExteriorAlgebra
from hklab.fiber import (FiberOperator, HyperkahlerFiber, complex_structure,
                         contraction_operator, holomorphic_symplectic,
                         kahler_form, slice_basis, standard_fiber,
                         type_derivation, wedge_operator)
from hklab.quaternions import (QUAT_J, QUAT_K, ZETA_I, ZETA_J, ZETA_K,
                               TwistorPoint, UnitQuaternion, adjoint_action,
                               hopf_section, random_twistor_point,
                               random_unit_quaternion)
from hklab.reptheory import antiholomorphic_triple, lefschetz_triple
import hklab.symmetry as symmetry
from hklab.symmetry import (chi, chi_k, clifford, clifford_2form,
                            exp_antihermitian, hodge_star_twisted, rho_j_sp1,
                            rho_sp1, rho_sp1_oneform, ten_operators)
from hklab.torus import model_fiber

from .oracles import (DenseExterior, bidegree_projector,
                      dense_exp_antihermitian, zero_one_star_projector)

TOL = 1e-13


def _close(A, B) -> bool:
    return float(np.abs(A - B).max()) <= TOL * max(1.0, float(np.abs(B).max()))


@pytest.fixture(scope="module", params=[1, 2], ids=["n1", "n2"])
def pair(request):
    n = request.param
    return standard_fiber(n), DenseExterior(4 * n)


def _cvec(rng, size, density=0.7):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    v[rng.random(size) >= density] = 0.0
    return v


def test_exterior_operators_match_dense_reference(pair, rng):
    fiber, ref = pair
    alg, d = fiber.algebra, fiber.d
    for _ in range(3):
        c = _cvec(rng, d)
        A = _cvec(rng, (d, d))
        W = _cvec(rng, (d, d))
        W = W - W.T
        assert _close(alg.wedge_1form(c).matrix, ref.wedge_1form(c))
        assert _close(alg.contraction(c).matrix, ref.contraction(c))
        assert _close(alg.wedge_2form(W).matrix, ref.wedge_2form(W))
        assert _close(alg.derivation(A).matrix, ref.derivation(A))
    # the stars are signed permutations: equal entry for entry
    twisted = ref.twisted_star()
    assert np.array_equal(alg.twisted_star().matrix, twisted)
    k = ref.degrees
    assert np.array_equal(alg.hodge_star().matrix,
                          twisted * (-1.0) ** (k * (k + 1) // 2))


def test_fiber_builders_match_dense_reference(pair, rng):
    fiber, ref = pair
    d = fiber.d
    zeta = random_twistor_point(rng)
    J = complex_structure(fiber, zeta)
    xi = rng.normal(size=d) + 1j * rng.normal(size=d)
    assert _close(wedge_operator(fiber, xi).matrix, ref.wedge_1form(xi))
    assert _close(contraction_operator(fiber, xi).matrix, ref.contraction(xi))
    assert _close(type_derivation(fiber, zeta).matrix, ref.derivation(J.T))
    assert _close(clifford(fiber, zeta, xi).matrix, ref.clifford(J, xi))
    assert _close(hodge_star_twisted(fiber).matrix, ref.twisted_star())
    ops = ten_operators(fiber)
    for name, z in (("I", ZETA_I), ("J", ZETA_J), ("K", ZETA_K)):
        W = kahler_form(fiber, z)
        assert _close(ops.L[name].matrix, ref.wedge_2form(W))
        assert _close(ops.Lambda[name].matrix, ref.wedge_2form(W).conj().T)
        assert _close(ops.ad[name].matrix,
                      ref.derivation(complex_structure(fiber, z).T))
    assert _close(ops.H.matrix, np.diag(ref.degrees - 2.0 * fiber.n))
    omega = holomorphic_symplectic(fiber)
    tri = lefschetz_triple(fiber, omega)
    L = ref.wedge_2form(omega)
    assert _close(tri.L.matrix, L)
    assert _close(tri.Lambda.matrix, L.conj().T)
    assert _close(tri.H.matrix, L @ L.conj().T - L.conj().T @ L)
    want = ref.bidegree_projectors(J)
    odd = range(1, 2 * fiber.n + 1, 2)
    want_odd = sum(want[0, q] for q in odd)
    assert _close(zero_one_star_projector(fiber, zeta, odd).matrix, want_odd)
    Q = slice_basis(fiber, zeta, odd)
    assert _close(Q @ Q.conj().T, want_odd)


def test_slice_basis_spans_the_dense_zero_star_slices(pair, rng):
    """Q^H Q = 1 and P Q = Q, with P the dense reference's (0, q)
    projectors, at the six axis points and three seeded ones, for every
    degree set: all, even, odd and each single q."""
    fiber, ref = pair
    qs = range(2 * fiber.n + 1)
    zetas = [ZETA_I, ZETA_J, ZETA_K, -ZETA_I, -ZETA_J, -ZETA_K,
             *(random_twistor_point(rng) for _ in range(3))]
    for zeta in zetas:
        want = ref.bidegree_projectors(complex_structure(fiber, zeta))
        for degrees in (qs, qs[::2], qs[1::2], *((q,) for q in qs)):
            Q = slice_basis(fiber, zeta, degrees)
            width = sum(math.comb(2 * fiber.n, q) for q in degrees)
            assert Q.shape == (fiber.dim, width)
            assert np.abs(Q.conj().T @ Q - np.eye(width)).max() <= 1e-14
            P = sum(want[0, q] for q in degrees)
            assert np.abs(P @ Q - Q).max() <= 1e-13


def test_clifford_2form_matches_dense_reference(pair, rng):
    fiber, ref = pair
    forms = [kahler_form(fiber, ZETA_J), holomorphic_symplectic(fiber),
             kahler_form(fiber, random_twistor_point(rng))]
    for form in forms:
        zeta = random_twistor_point(rng)
        want = ref.clifford_2form(complex_structure(fiber, zeta), form)
        assert _close(clifford_2form(fiber, zeta, form).matrix, want)


def test_bidegree_projector_matches_dense_reference(pair, rng):
    fiber, ref = pair
    for zeta in (ZETA_J, random_twistor_point(rng)):
        want = ref.bidegree_projectors(complex_structure(fiber, zeta))
        for p in range(2 * fiber.n + 1):
            for q in range(2 * fiber.n + 1):
                assert _close(bidegree_projector(fiber, zeta, p, q).matrix,
                              want[p, q])


def _generators(fiber, rng) -> dict[str, FiberOperator]:
    """The seven kinds of generator the library exponentiates."""
    tri = antiholomorphic_triple(fiber)
    L, A, H = tri.L, tri.Lambda, tri.H
    u = random_twistor_point(rng)
    LK = wedge_operator(fiber, kahler_form(fiber, ZETA_K))
    Lo = wedge_operator(fiber, holomorphic_symplectic(fiber))
    return {
        "type derivation": type_derivation(fiber, u),
        "c_J(omega_u)/2": 0.5 * clifford_2form(fiber, ZETA_J,
                                               kahler_form(fiber, u)),
        "L - Lambda": L - A,
        "iH": 1j * H,
        "i(L + Lambda)": 1j * (L + A),
        "L_K - L_K^*": LK - LK.adjoint(),
        "L_Omega - L_Omega^*": Lo - Lo.adjoint(),
    }


def test_blocked_exponential_matches_full_eigh(pair, rng):
    fiber, _ref = pair
    alg = fiber.algebra
    gens = _generators(fiber, rng)
    # a generator coupling two quaternion blocks (n = 2), or at n = 1 a
    # 1-form action, which has only the one block to act in
    e = np.zeros(fiber.d)
    e[0] = 1.0
    cross = wedge_operator(fiber, e)
    if fiber.n > 1:
        W = np.zeros((fiber.d, fiber.d))
        W[0, 4], W[4, 0] = 1.0, -1.0
        cross = alg.wedge_2form(W)
    gens["cross-block"] = cross - cross.adjoint()
    for name, G in gens.items():
        factored = alg.quaternion_factors(G) is not None
        # every n = 1 generator is a one-slot Kronecker term
        assert factored == (fiber.n == 1 or name != "cross-block"), name
        for t in (math.pi / 2, rng.uniform(-3.0, 3.0)):
            E = exp_antihermitian(G, t)
            assert isinstance(E, FiberOperator)
            assert _close(E.matrix, dense_exp_antihermitian(G.matrix, t)), name
    # plain arrays stay plain arrays, on the same path
    M = gens["L - Lambda"].matrix
    assert _close(exp_antihermitian(M, 0.7), dense_exp_antihermitian(M, 0.7))
    # an operator made from a matrix is dense and is one factor,
    # also one entry off a Kronecker sum by 1e-6 (kept anti-Hermitian)
    for name in ("L - Lambda", "iH", "c_J(omega_u)/2"):
        M = gens[name].matrix.copy()
        off = np.argwhere(np.triu(M, 1) != 0)
        i, j = off[-1] if name != "iH" else (alg.dim - 2, alg.dim - 2)
        if i == j:
            M[i, i] += 1e-6j
        else:
            M[i, j] += 1e-6
            M[j, i] = -np.conj(M[i, j])
        mutated = FiberOperator(M, alg)
        assert alg.quaternion_factors(mutated) is None, name
        assert _close(exp_antihermitian(mutated, 0.9).matrix,
                      dense_exp_antihermitian(M, 0.9)), name


def test_induced_map_is_the_compound_matrix(rng):
    alg, ref = ExteriorAlgebra(4), DenseExterior(4)
    r, s = rng.normal(size=(2, 4, 4))
    R = alg.induced(r).matrix
    # e^T = e^t1 ^ .. ^ e^tk goes to (r e^t1) ^ .. ^ (r e^tk), r e^t the
    # column t of r, multiplied out with the oracle's wedge generators
    for i, T in enumerate(ref.basis):
        x = np.zeros(ref.dim)
        x[0] = 1.0
        for t in reversed(T):
            x = ref.wedge_1form(r[:, t]) @ x
        assert _close(R[:, i], x), T
    assert _close(alg.induced(r @ s).matrix, R @ alg.induced(s).matrix)


def _sp1_etas(seed: int) -> list[UnitQuaternion]:
    """Three seeded random eta, +-1 and the axes +-i, +-j, +-k."""
    rng = np.random.default_rng(seed)
    axes = [UnitQuaternion(*row) for row in np.eye(4)]
    return ([random_unit_quaternion(rng) for _ in range(3)] + axes
            + [UnitQuaternion(*-e.as_array()) for e in axes])


def _oracle_exp(gens, eta: UnitQuaternion) -> np.ndarray:
    """exp(theta sum_a u_a G_a) for eta = cos(theta) + sin(theta) u, the
    generators G_a of the three axes, by one dense eigendecomposition."""
    theta, u = eta.axis_angle()
    return dense_exp_antihermitian(sum(c * G for c, G in zip(u, gens)), theta)


def test_sp1_closed_forms_match_dense_exponentials(pair):
    """rho, rho_j, their 1-form rotation, chi and chi(k) against the dense
    exponentials of ad(J_u), c_j(omega_u)/2 and J_u^T, all linear in u."""
    fiber, ref = pair
    axes = (ZETA_I, ZETA_J, ZETA_K)
    J = complex_structure(fiber, ZETA_J)
    one = [complex_structure(fiber, z).T for z in axes]
    ad = [ref.derivation(A) for A in one]
    cj = [0.5 * ref.clifford_2form(J, kahler_form(fiber, z)) for z in axes]
    etas = _sp1_etas(40 + fiber.n)
    for eta in etas:
        assert _close(rho_sp1(fiber, eta).matrix, _oracle_exp(ad, eta)), eta
        assert _close(rho_j_sp1(fiber, eta).matrix, _oracle_exp(cj, eta)), eta
        assert _close(rho_sp1_oneform(fiber, eta), _oracle_exp(one, eta)), eta
    assert _close(chi_k(fiber).matrix,
                  _oracle_exp(ad, QUAT_K) @ _oracle_exp(cj, QUAT_K))
    # chi through the Hopf section, its special points j and -j included
    rng = np.random.default_rng(50 + fiber.n)
    zetas = [ZETA_J, TwistorPoint(0.0, -1.0, 0.0)] + [
        random_twistor_point(rng) for _ in range(len(etas) - 2)]
    for eta, zeta in zip(etas, zetas):
        want = (_oracle_exp(ad, hopf_section(adjoint_action(eta, zeta)))
                @ _oracle_exp(cj, QUAT_J * eta * QUAT_J.conjugate())
                @ _oracle_exp(ad, hopf_section(zeta).conjugate()))
        assert _close(chi(fiber, eta, zeta).matrix, want), (eta, zeta)


@pytest.mark.parametrize("n", [1, 2])
def test_sp1_actions_take_no_exponential(n, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("took an eigendecomposition")

    fiber = standard_fiber(n)  # its Sp(1) block data is formed under the spy
    monkeypatch.setattr(symmetry, "_exp_factor", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    rng = np.random.default_rng(n)
    for eta in _sp1_etas(n):
        rho_sp1(fiber, eta)
        rho_j_sp1(fiber, eta)
        rho_sp1_oneform(fiber, eta)
        chi(fiber, eta, random_twistor_point(rng))
    chi_k(fiber)


def test_sp1_actions_need_equal_quaternion_blocks(fiber2):
    # the second block's I, J, K cycled to J, K, I: still a hyperkahler
    # fiber, but not n copies of one block
    I, J, K = (X.copy() for X in (fiber2.I, fiber2.J, fiber2.K))
    b = slice(4, 8)
    I[b, b], J[b, b], K[b, b] = fiber2.J[b, b], fiber2.K[b, b], fiber2.I[b, b]
    fiber = HyperkahlerFiber(2, fiber2.g, I, J, K, algebra=fiber2.algebra)
    assert fiber.structure_residual() == 0.0
    for action in (rho_sp1, rho_j_sp1):
        with pytest.raises(ValueError, match="equal quaternion blocks"):
            action(fiber, QUAT_K)


def test_rho_sp1_keeps_form_degree(fiber2, rng):
    deg = fiber2.algebra.degrees
    off_block = deg[:, None] != deg[None, :]
    for _ in range(3):
        R = rho_sp1(fiber2, random_unit_quaternion(rng)).matrix
        assert np.count_nonzero(R[off_block]) == 0


def _block_pattern(G) -> np.ndarray:
    """Boolean pattern of the connected blocks of G's nonzero pattern."""
    _count, label = connected_components(csr_matrix(G != 0), directed=False)
    return label[:, None] == label[None, :]


def test_exponentials_have_only_structural_nonzeros():
    for n in (1, 2):
        fiber = model_fiber(n)
        tri = antiholomorphic_triple(fiber)
        ladder_gen = (tri.L - tri.Lambda).matrix
        ladder = exp_antihermitian(tri.L - tri.Lambda, math.pi / 2).matrix
        assert np.count_nonzero(ladder) <= _block_pattern(ladder_gen).sum() \
            < ladder.size
        if n == 1:  # one factor, exponentiated as the array is: bit for bit
            assert np.array_equal(
                ladder, exp_antihermitian(ladder_gen, math.pi / 2))
        # chi(k) = rho(k) rho_j(k): the product of the two block patterns
        rho_gen = type_derivation(fiber, ZETA_K).matrix
        rho_j_gen = clifford_2form(fiber, ZETA_J,
                                   kahler_form(fiber, ZETA_K)).matrix
        structural = (_block_pattern(rho_gen).astype(int)
                      @ _block_pattern(rho_j_gen).astype(int)) > 0
        ck = chi_k(fiber).matrix
        assert np.count_nonzero(ck) <= structural.sum() < ck.size
        assert np.count_nonzero(ck[~structural]) == 0
        assert _close(ck, rho_sp1(fiber, QUAT_K).matrix
                      @ rho_j_sp1(fiber, QUAT_K).matrix)


def test_algebra_holds_no_dense_generators():
    alg = ExteriorAlgebra(12)  # n = 3: dim 4096, a dense generator is 128 MB
    held = sum(getattr(v, "nbytes", 0) for v in vars(alg).values())
    assert alg.dim == 4096 and held < 2 * 2**20


def test_degree_projector_is_a_fresh_array_per_call():
    alg = ExteriorAlgebra(4)
    P = alg.degree_projector(2)
    P[0, 0] = 7.0
    assert alg.degree_projector(2)[0, 0] == 0.0
