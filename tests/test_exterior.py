"""Structured exterior-algebra operators against the dense reference.

The library stores each wedge generator as index arrays and exponentiates
generators block by block; `oracles.DenseExterior` builds the same
operators as sums of products of dense generator matrices, and
`oracles.dense_exp_antihermitian` exponentiates with one full eigh.
"""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from hklab.exterior import ExteriorAlgebra
from hklab.fiber import (bidegree_projector, complex_structure,
                         form_coefficient_matrix, holomorphic_symplectic,
                         kahler_form, standard_fiber, type_derivation)
from hklab.quaternions import (QUAT_K, ZETA_J, ZETA_K, random_twistor_point,
                               random_unit_quaternion)
from hklab.reptheory import antiholomorphic_triple
from hklab.symmetry import (chi_k, clifford_2form, exp_antihermitian,
                            rho_j_sp1, rho_sp1)
from hklab.torus import model_fiber

from .oracles import DenseExterior, dense_exp_antihermitian

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
        # about 16 monomials: the reference multiplies dense generators
        v = _cvec(rng, alg.dim, 16 / alg.dim)
        assert _close(alg.wedge_1form(c), ref.wedge_1form(c))
        assert _close(alg.contraction(c), ref.contraction(c))
        assert _close(alg.wedge_2form(W), ref.wedge_2form(W))
        assert _close(alg.derivation(A), ref.derivation(A))
        assert _close(alg.wedge_element(v), ref.wedge_element(v))


def test_clifford_2form_matches_dense_reference(pair, rng):
    fiber, ref = pair
    forms = [kahler_form(fiber, ZETA_J), holomorphic_symplectic(fiber),
             kahler_form(fiber, random_twistor_point(rng))]
    for form in forms:
        zeta = random_twistor_point(rng)
        want = ref.clifford_2form(complex_structure(fiber, zeta),
                                  form_coefficient_matrix(fiber, form))
        assert _close(clifford_2form(fiber, zeta, form).matrix, want)


def test_bidegree_projector_matches_dense_reference(pair, rng):
    fiber, ref = pair
    for zeta in (ZETA_J, random_twistor_point(rng)):
        want = ref.bidegree_projectors(complex_structure(fiber, zeta))
        for p in range(2 * fiber.n + 1):
            for q in range(2 * fiber.n + 1):
                assert _close(bidegree_projector(fiber, zeta, p, q).matrix,
                              want[p, q])


def test_blocked_exponential_matches_full_eigh(pair, rng):
    fiber, _ref = pair
    tri = antiholomorphic_triple(fiber)
    u = random_twistor_point(rng)
    gens = [type_derivation(fiber, u),
            0.5 * clifford_2form(fiber, ZETA_J, kahler_form(fiber, u)).matrix,
            tri.L.matrix - tri.Lambda.matrix,
            1j * tri.H.matrix]
    for G in gens:
        for t in (math.pi / 2, rng.uniform(-3.0, 3.0)):
            assert _close(exp_antihermitian(G, t),
                          dense_exp_antihermitian(G, t))


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
    fiber = model_fiber(1)
    tri = antiholomorphic_triple(fiber)
    ladder_gen = tri.L.matrix - tri.Lambda.matrix
    ladder = exp_antihermitian(ladder_gen, math.pi / 2)
    assert np.count_nonzero(ladder) <= _block_pattern(ladder_gen).sum() \
        < ladder.size
    # chi(k) = rho(k) rho_j(k): the product of the two block patterns
    rho_gen = type_derivation(fiber, ZETA_K)
    rho_j_gen = clifford_2form(fiber, ZETA_J, kahler_form(fiber, ZETA_K)).matrix
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
