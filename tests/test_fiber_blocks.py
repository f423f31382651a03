"""Kronecker-term and dense arithmetic of FiberOperator against dense
matrix arithmetic.

Operands are builder outputs of every degree shape: the ten operators
(degree shifts -2, 0, +2), a Clifford action (+-1), the twisted star
(k -> 4n - k), chi(k) (several shifts) and a bidegree projector (shift
0), all in term form, and one dense operand (an operator made from a
matrix at n = 1, a 2-form coupling two quaternion blocks at n = 2), so
the pairs cover term x term, term x dense and dense x dense.
"""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hklab.exterior import ExteriorAlgebra
from hklab import symmetry
from hklab.fiber import (FiberOperator, complex_structure,
                         contraction_operator, kahler_form, standard_fiber,
                         wedge_operator)
from hklab.quaternions import (ZETA_I, ZETA_J, ZETA_K, TwistorPoint,
                               random_twistor_point, random_unit_quaternion)
from hklab.symmetry import (chi, chi_k, clifford, clifford_2form,
                            hodge_star_twisted, rel_residual, rho_j_sp1,
                            rho_sp1, ten_operators, verify_identity)
from hklab.torus import (LatticeOperator, LatticeSpec, build_gauge_field,
                         lattice_dirac)

from .oracles import (DenseExterior, bidegree_projector, dense_closure,
                      dense_exp_antihermitian, lift_fiber)
from .test_fiber import _rotated

TOL = 1e-13
# the order of OperatorAlgebra.as_list
TEN_NAMES = (*(f"L_omega{a}" for a in "IJK"),
             *(f"Lambda_omega{a}" for a in "IJK"),
             *(f"ad({a})" for a in "IJK"), "H")


def _close(A, B) -> bool:
    return float(np.abs(A - B).max()) <= TOL * max(1.0, float(np.abs(B).max()))


def _builder_outputs(n: int) -> dict[str, FiberOperator]:
    fiber = standard_fiber(n)
    rng = np.random.default_rng(31 + n)
    zeta = random_twistor_point(rng)
    alpha = rng.normal(size=fiber.d) + 1j * rng.normal(size=fiber.d)
    ops = dict(zip(TEN_NAMES, ten_operators(fiber).as_list()))
    ops["clifford"] = clifford(fiber, zeta, alpha)
    ops["star"] = hodge_star_twisted(fiber)
    ops["chi_k"] = chi_k(fiber)
    ops["P(1,1)"] = bidegree_projector(fiber, zeta, 1, 1)
    if n == 1:
        ops["dense"] = FiberOperator(
            rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
            fiber.algebra)
    else:
        W = np.zeros((fiber.d, fiber.d))
        W[0, 4], W[4, 0] = 1.0, -1.0
        ops["dense"] = fiber.algebra.wedge_2form(W)
    return ops


@pytest.fixture(scope="module", params=[1, 2], ids=["n1", "n2"])
def outputs(request):
    return _builder_outputs(request.param)


def test_block_shapes_cover_every_kind(outputs):
    dense = outputs["dense"]
    assert dense.terms is None
    assert all(op.terms is not None for name, op in outputs.items()
               if name != "dense")


def test_unary_arithmetic_matches_dense(outputs):
    c = 0.3 - 1.7j
    for op in outputs.values():
        M = op.matrix
        assert np.array_equal(op.adjoint().matrix, M.conj().T)
        assert np.array_equal((c * op).matrix, c * M)
        assert np.array_equal((op * c).matrix, M * c)
        assert np.array_equal((np.float64(2.5) * op).matrix, 2.5 * M)
        assert np.array_equal((-op).matrix, -M)
        assert abs(op.frobenius_norm() - np.linalg.norm(M)) \
            <= TOL * max(1.0, np.linalg.norm(M))


def test_binary_arithmetic_matches_dense(outputs):
    for A, B in itertools.product(outputs.values(), repeat=2):
        MA, MB = A.matrix, B.matrix
        assert _close((A @ B).matrix, MA @ MB)
        assert _close((A + B).matrix, MA + MB)
        assert _close((A - B).matrix, MA - MB)
        want = rel_residual(MA, MB)
        assert abs(rel_residual(A, B) - want) <= TOL
        assert abs(rel_residual(A, MB) - want) <= TOL


def test_products_of_products_match_dense(outputs):
    X, c, S = outputs["chi_k"], outputs["clifford"], outputs["star"]
    assert _close((X @ c @ X.adjoint() - S @ c).matrix,
                  X.matrix @ c.matrix @ X.matrix.conj().T
                  - S.matrix @ c.matrix)


def test_zero_operator_is_neutral(outputs):
    op = outputs["clifford"]
    zero = FiberOperator.zero(op.dim)
    assert zero.frobenius_norm() == 0.0
    assert np.array_equal(zero.matrix, np.zeros((op.dim, op.dim)))
    assert np.array_equal((zero + op).matrix, op.matrix)
    assert (op @ zero).frobenius_norm() == 0.0


def test_real_and_complex_blocks_accumulate(outputs):
    # (1 + L) (1 + Lambda): a real dense identity summed with complex
    # term operators, so each product entry sums real and complex parts
    one = FiberOperator(np.eye(outputs["H"].dim))
    A = one + outputs["L_omegaI"]
    B = one + outputs["Lambda_omegaI"]
    assert _close((A @ B).matrix, A.matrix @ B.matrix)


def test_mismatched_algebras_rejected():
    a = _builder_outputs(1)["star"]
    b = _builder_outputs(2)["star"]
    with pytest.raises(ValueError, match="different algebras"):
        a @ b
    with pytest.raises(ValueError, match="not that of an exterior algebra"):
        FiberOperator(np.eye(12))


def test_products_with_arrays_are_blockwise_and_lattice_operators_defer(
        monkeypatch):
    def no_matrix(op):
        raise AssertionError("array product assembled the dense matrix")

    for n in (1, 2):
        ops = _builder_outputs(n)
        for scale in (1.0, 0.3 - 1.7j):
            # the Clifford action differs from block to block, so a slot
            # laid out in the wrong place shows
            X = (ops["chi_k"] @ ops["star"] @ ops["clifford"]) * scale
            dim = X.dim
            v = np.arange(dim) + 1j
            V = np.stack([v, 1.0 - 2j * v[::-1], np.ones(dim)], axis=1)
            want_v, want_V = X.matrix @ v, X.matrix @ V
            # a fresh operator, whose dense form the products must not
            # assemble
            X = (ops["chi_k"] @ ops["star"] @ ops["clifford"]) * scale
            with monkeypatch.context() as m:
                m.setattr(FiberOperator, "matrix", property(no_matrix))
                got_v, got_V = X @ v, X @ V
            assert got_v.shape == (dim,) and got_V.shape == (dim, 3)
            assert _close(got_v, want_v) and _close(got_V, want_V)
        with pytest.raises(ValueError, match="applied to an array"):
            X @ v[1:]
    field = build_gauge_field(LatticeSpec(1, 3), 1)
    D = lattice_dirac(field, random_twistor_point(np.random.default_rng(2)))
    X = _builder_outputs(1)["chi_k"]
    XD = X @ D
    assert isinstance(XD, LatticeOperator)
    want = lift_fiber(field, X) @ D.matrix
    assert spla.norm(XD.matrix - want) <= TOL * spla.norm(want)


@pytest.mark.parametrize("n", [1, 2])
def test_closure_matches_dense_product_loop(n, fiber1, fiber2):
    algebra = ten_operators(fiber1 if n == 1 else fiber2)
    worst, table = algebra.closure()
    want_worst, want_table = dense_closure(
        [op.matrix for op in algebra.as_list()])
    assert table.shape == want_table.shape == (45, 10)
    assert abs(worst - want_worst) <= 1e-13
    assert np.abs(table - want_table).max() <= 1e-13
    assert algebra.rank() == 10


def test_closure_at_n3_has_the_n1_structure_constants(fiber1):
    # n = 3 (4096 monomials) is out of the dense oracle's reach; the
    # structure constants do not depend on n
    algebra = ten_operators(standard_fiber(3))
    worst, table = algebra.closure()
    assert algebra.rank() == 10
    assert worst <= 1e-15
    assert np.abs(table - ten_operators(fiber1).closure()[1]).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_closure_detects_an_operator_outside_the_algebra(n, fiber1, fiber2):
    # H replaced by the derivation of a random real A inside the blocks:
    # the span stays ten-dimensional but is no longer closed
    fiber = fiber1 if n == 1 else fiber2
    A = _inside_blocks(np.random.default_rng(40 + n), fiber.d).real
    algebra = dataclasses.replace(ten_operators(fiber),
                                  H=fiber.algebra.derivation(A))
    worst, table = algebra.closure()
    want_worst, want_table = dense_closure(
        [op.matrix for op in algebra.as_list()])
    assert algebra.rank() == 10
    assert worst > 1e-3
    assert abs(worst - want_worst) <= 1e-12
    assert np.abs(table - want_table).max() <= 1e-12


def test_closure_of_a_fiber_coupling_the_blocks(fiber2):
    # a rotation that couples the two blocks leaves the Lefschetz and type
    # operators dense: every operator is taken as one slot
    rotated = _rotated(fiber2, np.random.default_rng(3))
    algebra = ten_operators(rotated)
    assert algebra.L["I"].terms is None
    worst, table = algebra.closure()
    want_worst, want_table = dense_closure(
        [op.matrix for op in algebra.as_list()])
    assert algebra.rank() == 10
    assert abs(worst - want_worst) <= 1e-12
    assert np.abs(table - want_table).max() <= 1e-12


def test_closure_makes_no_operator_arithmetic(fiber2, monkeypatch):
    # Gram, commutators and residuals are taken on the factors: no
    # FiberOperator product, sum, scalar multiple or norm
    algebra = ten_operators(fiber2)

    def forbidden(*args, **kwargs):
        raise AssertionError("closure did FiberOperator arithmetic")

    for name in ("__matmul__", "_combine", "_times_scalar",
                 "residual_norms"):
        monkeypatch.setattr(FiberOperator, name, forbidden)
    worst, table = algebra.closure()
    assert algebra.rank() == 10
    assert worst <= 1e-15 and table.shape == (45, 10)


# ----- Kronecker-term form ---------------------------------------------------

def _inside_blocks(rng, d: int) -> np.ndarray:
    """A random complex d x d matrix with no entry between two quaternion
    blocks."""
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    block = np.arange(d) // 4
    M[block[:, None] != block[None, :]] = 0.0
    return M


def test_term_born_builders_match_dense_reference(fiber1, fiber2, rng):
    for fiber in (fiber1, fiber2):
        _check_term_born_builders(fiber, rng)


def _check_term_born_builders(fiber, rng):
    alg, ref = fiber.algebra, DenseExterior(fiber.d)
    d = fiber.d
    zeta = random_twistor_point(rng)
    J = complex_structure(fiber, zeta)
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    W, A, C = (_inside_blocks(rng, d) for _ in range(3))
    W, C = W - W.T, C - C.T
    form = kahler_form(fiber, random_twistor_point(rng))
    built = {
        "wedge_1form": (alg.wedge_1form(c), ref.wedge_1form(c)),
        "contraction": (alg.contraction(v), ref.contraction(v)),
        "wedge_minus_contraction": (alg.wedge_minus_contraction(c, v),
                                    ref.wedge_1form(c) - ref.contraction(v)),
        "wedge_2form": (alg.wedge_2form(W), ref.wedge_2form(W)),
        "derivation": (alg.derivation(A), ref.derivation(A)),
        "quadratic": (alg.quadratic(W, A, C, 0.3 - 0.2j),
                      ref.wedge_2form(W) + ref.derivation(A)
                      + ref.wedge_2form(C).T + (0.3 - 0.2j) * np.eye(alg.dim)),
        "clifford": (clifford(fiber, zeta, c), ref.clifford(J, c)),
        "clifford_2form": (clifford_2form(fiber, zeta, form),
                           ref.clifford_2form(J, form)),
    }
    ops = ten_operators(fiber)
    for name, z in (("I", ZETA_I), ("J", ZETA_J), ("K", ZETA_K)):
        Wz = kahler_form(fiber, z)
        built[f"L_{name}"] = (ops.L[name], ref.wedge_2form(Wz))
        built[f"Lambda_{name}"] = (ops.Lambda[name],
                                   ref.wedge_2form(Wz).conj().T)
        built[f"ad_{name}"] = (ops.ad[name], ref.derivation(
            complex_structure(fiber, z).T))
    built["H"] = (ops.H, np.diag(ref.degrees - 2.0 * fiber.n))
    for name, (op, want) in built.items():
        assert op.terms is not None, name
        assert 1 <= len(op.terms) <= fiber.n, name
        assert all(len(t) == fiber.n and all(F.shape == (16, 16) for F in t)
                   for t in op.terms), name
        assert _close(op.matrix, want), name
    if fiber.n == 1:
        return
    # a coefficient between two blocks keeps the degree-block scatter
    W[0, 4], W[4, 0] = 1.0, -1.0
    cross = alg.wedge_2form(W)
    assert cross.terms is None and _close(cross.matrix, ref.wedge_2form(W))


def test_term_form_products_match_dense_products(fiber2, rng):
    fiber, ref = fiber2, DenseExterior(8)
    d = fiber.d
    ck = chi_k(fiber)
    # chi(k) = exp(pi/2 D_K) exp(pi/4 c_J(omega_K)), from the dense oracle
    JK = complex_structure(fiber, ZETA_K)
    WK = kahler_form(fiber, ZETA_K)
    want_ck = (dense_exp_antihermitian(ref.derivation(JK.T), math.pi / 2)
               @ dense_exp_antihermitian(
                   0.5 * ref.clifford_2form(
                       complex_structure(fiber, ZETA_J), WK), math.pi / 2))
    assert len(ck.terms) == 1 and _close(ck.matrix, want_ck)
    e1, e2 = random_unit_quaternion(rng), random_unit_quaternion(rng)
    Rj1, Rj2 = rho_j_sp1(fiber, e1), rho_j_sp1(fiber, e2)
    R = rho_sp1(fiber, random_unit_quaternion(rng))
    zeta = random_twistor_point(rng)
    alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
    c = clifford(fiber, zeta, alpha)
    cJ = clifford(fiber, ZETA_J, np.eye(d)[5])
    cases = {
        "chi_k @ clifford": (ck @ cJ,
                             want_ck @ ref.clifford(
                                 complex_structure(fiber, ZETA_J),
                                 np.eye(d)[5])),
        "rho_j(e1) @ rho_j(e2)": (Rj1 @ Rj2, Rj1.matrix @ Rj2.matrix),
        "R @ c @ R^*": (R @ c @ R.adjoint(),
                        R.matrix @ ref.clifford(
                            complex_structure(fiber, zeta), alpha)
                        @ R.matrix.conj().T),
    }
    for name, (op, want) in cases.items():
        assert op.terms is not None, name
        assert _close(op.matrix, want), name
        assert abs(op.frobenius_norm() - np.linalg.norm(want)) \
            <= TOL * np.linalg.norm(want), name
    assert _close((Rj1 @ Rj2).matrix,
                  rho_j_sp1(fiber, e1 * e2).matrix)


def _unitary(rng, size: int) -> np.ndarray:
    Z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return np.linalg.qr(Z)[0]


def test_term_norm_keeps_a_small_difference(fiber2):
    # ||X (x) Y - (X + delta) (x) Y||_F with ||delta||_F = 1e-11: the
    # second term is written 2 (X + delta) (x) Y / 2, entry for entry the
    # same product, so the two terms differ in both slots and no merge
    # cancels them; the norm must come from the factors themselves
    rng = np.random.default_rng(2011)
    alg = fiber2.algebra
    X, Y = _unitary(rng, 16), _unitary(rng, 16)
    delta = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    delta *= 1e-11 / np.linalg.norm(delta)
    diff = (alg.kronecker([(X, Y)])
            - alg.kronecker([(2.0 * (X + delta), 0.5 * Y)]))
    assert len(diff.terms) == 2
    want = np.linalg.norm(np.kron(X, Y) - np.kron(X + delta, Y))
    assert abs(diff.frobenius_norm() - want) <= 1e-4 * want


def test_residual_keeps_a_small_difference(fiber2):
    # the same pair through rel_residual, whose one sweep forms no A - B:
    # once alone, and once as member 0 of a stack whose member 1 differs
    # by O(1), each member's residual against the dense one
    rng = np.random.default_rng(2011)
    alg = fiber2.algebra
    X, Y, Z = _unitary(rng, 16), _unitary(rng, 16), _unitary(rng, 16)
    delta = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    delta *= 1e-11 / np.linalg.norm(delta)

    def dense_residual(X2):
        return rel_residual(np.kron(X, Y), np.kron(X2, Y))

    got = rel_residual(alg.kronecker([(X, Y)]),
                       alg.kronecker([(2.0 * (X + delta), 0.5 * Y)]))
    want = dense_residual(X + delta)
    assert isinstance(got, float) and abs(got - want) <= 1e-4 * want
    got = rel_residual(
        alg.kronecker([(np.stack([X, X]), Y)]),
        alg.kronecker([(2.0 * np.stack([X + delta, Z]), 0.5 * Y)]))
    assert got.shape == (2,)
    assert abs(got[0] - want) <= 1e-4 * want
    assert abs(got[1] - dense_residual(Z)) <= 1e-13
    assert got[1] > 0.1


def test_stacked_term_operators_match_their_members(fiber2, rng):
    # kronecker_sum of a (3, 16, 16) factor: adjoint, gathered matrix and
    # norms per member against each member's own operator
    alg = fiber2.algebra
    F = rng.normal(size=(3, 16, 16)) + 1j * rng.normal(size=(3, 16, 16))
    for op in (alg.kronecker_sum([F, None]), alg.kronecker_sum([None, F])):
        members = [alg.kronecker_sum([F[z], None] if op.terms[0][0].ndim > 2
                                     else [None, F[z]]).matrix
                   for z in range(3)]
        assert [G.shape for G in op.adjoint().terms[0]] == [
            G.shape for G in op.terms[0]]
        assert op.matrix.shape == (3, 256, 256)
        adjoint, scaled = op.adjoint().matrix, (op * (0.5 - 2j)).matrix
        norms, (a, b, diff) = op.frobenius_norm(), op.residual_norms(
            alg.identity())
        for z, M in enumerate(members):
            assert np.array_equal(op.matrix[z], M)
            assert np.array_equal(adjoint[z], M.conj().T)
            assert np.array_equal(scaled[z], M * (0.5 - 2j))
            assert abs(norms[z] - np.linalg.norm(M)) <= TOL * norms[z]
            assert abs(a[z] - norms[z]) <= TOL * norms[z]
            assert abs(b[z] - 16.0) <= TOL * 16.0
            assert abs(diff[z] - np.linalg.norm(M - np.eye(256))) \
                <= TOL * diff[z]


def _member(op, z):
    """Member z of a stacked term operator's terms."""
    return [tuple(F[z] if F.ndim > 2 else F for F in t) for t in op.terms]


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_builders_match_single_samples(n):
    # each builder given a list of samples: member z of its factors is the
    # factor of the builder given sample z alone
    fiber = standard_fiber(n)
    rng = np.random.default_rng(60 + n)
    d = fiber.d
    zetas = [random_twistor_point(rng) for _ in range(3)]
    etas = [random_unit_quaternion(rng) for _ in range(3)]
    alphas = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(3)]
    forms = [kahler_form(fiber, z) for z in zetas]
    builders = {
        "clifford": lambda s: clifford(fiber, s(zetas), s(alphas)),
        "clifford at j": lambda s: clifford(fiber, ZETA_J, s(alphas)),
        "clifford_2form": lambda s: clifford_2form(fiber, s(zetas),
                                                   s(forms)),
        "rho_sp1": lambda s: rho_sp1(fiber, s(etas)),
        "rho_j_sp1": lambda s: rho_j_sp1(fiber, s(etas)),
        "wedge 1-form": lambda s: wedge_operator(fiber, s(alphas)),
        "wedge 2-form": lambda s: wedge_operator(fiber, s(forms)),
        "contraction": lambda s: contraction_operator(fiber, s(alphas)),
    }
    for name, build in builders.items():
        stacked = build(lambda samples: samples)
        assert stacked.matrix.shape == (3, fiber.dim, fiber.dim), name
        for z in range(3):
            single = build(lambda samples: samples[z])
            got, want = _member(stacked, z), single.terms
            assert len(got) == len(want), name
            for s, t in zip(got, want):
                for x, y in zip(s, t):
                    assert x.shape == y.shape == (16, 16), name
                    assert np.abs(x - y).max() <= 1e-15 * max(
                        1.0, np.abs(y).max()), name
            assert _close(stacked.matrix[z], single.matrix), name


@pytest.mark.parametrize("n", [1, 2])
def test_loop_checks_make_one_builder_call_per_loop(n, monkeypatch):
    # each loop of random samples is one stacked builder call; the axis
    # forms and chi(k) stay single calls
    fiber = standard_fiber(n)
    want = {
        "prop2.5-factor": {"clifford_2form": 1, "rho_j_sp1": 6},
        "prop2.6-equivariance": {"rho_sp1": 1, "clifford": 2},
        "lemma3.13-commute": {"clifford": 1, "wedge_operator": 2,
                              "contraction_operator": 1},
        "thm3.10-fiber": {"clifford": 2, "rho_sp1": 1, "rho_j_sp1": 1},
    }
    for cid in want:  # the fiber's derived data, formed before the spy
        verify_identity(cid, fiber, seed=3)
    calls = collections.Counter()

    def spy(name, builder):
        def counted(*args, **kwargs):
            calls[name] += 1
            return builder(*args, **kwargs)
        return counted

    for name in ("clifford", "clifford_2form", "rho_sp1", "rho_j_sp1",
                 "wedge_operator", "contraction_operator"):
        monkeypatch.setattr(symmetry, name, spy(name, getattr(symmetry,
                                                              name)))
    for cid, counts in want.items():
        calls.clear()
        assert verify_identity(cid, fiber, seed=3).verdict
        assert dict(calls) == counts, cid


def test_thm310_and_prop25_products_form_no_degree_block(fiber2,
                                                          monkeypatch):
    # the checks' Clifford products and representation pairs run on
    # Kronecker terms alone: no dense matrix is gathered from the terms
    # or scattered at the full width 2^d
    fiber = fiber2
    ck = chi_k(fiber)
    rng = np.random.default_rng(3)
    pairs = [(random_unit_quaternion(rng), random_unit_quaternion(rng))
             for _ in range(4)]
    minus_j = TwistorPoint(0.0, -1.0, 0.0)
    scatter = ExteriorAlgebra._dense

    def no_gather(*args, **kwargs):
        raise AssertionError("gathered a dense matrix")

    def no_full_scatter(self, *entries):
        if self.d == fiber.d:
            raise AssertionError("scattered a full-width matrix")
        return scatter(self, *entries)

    monkeypatch.setattr(ExteriorAlgebra, "quaternion_matrix", no_gather)
    monkeypatch.setattr(ExteriorAlgebra, "_dense", no_full_scatter)
    for a in range(fiber.d):
        e = np.eye(fiber.d)[a]
        assert rel_residual(ck @ clifford(fiber, ZETA_J, e),
                            clifford(fiber, minus_j, e) @ ck) < 1e-13
    for e1, e2 in pairs:
        assert rel_residual(rho_j_sp1(fiber, e1 * e2),
                            rho_j_sp1(fiber, e1) @ rho_j_sp1(fiber, e2)) \
            < 1e-13


def test_algebra_needs_quaternion_blocks():
    for d in (0, 2, 6, 9):
        with pytest.raises(ValueError, match="d = 4n"):
            ExteriorAlgebra(d)
    alg = ExteriorAlgebra(4)
    assert alg.quaternion_blocks == 1 and alg._quaternion is alg
    assert np.array_equal(alg.parts[:, 0], np.arange(16))


@pytest.mark.parametrize("n", [1, 2])
def test_in_block_builders_never_scatter_into_degree_blocks(n, monkeypatch):
    # the in-block builders and the twisted star return Kronecker terms and
    # scatter and gather only 16 x 16 factors: at n = 2 nothing is
    # scattered or gathered at the full width 2^d (at n = 1 the factors
    # are full width); the untwisted star is dense and is scattered at
    # full width
    fiber = standard_fiber(n)
    rng = np.random.default_rng(5)
    calls = []
    scatter = ExteriorAlgebra._dense
    gather = ExteriorAlgebra.quaternion_matrix

    def spy_scatter(self, *entries):
        if n > 1 and self.d == fiber.d:
            calls.append(("scatter", self.d))
        return scatter(self, *entries)

    def spy_gather(self, terms):
        if n > 1 and self.d == fiber.d:
            calls.append(("gather", self.d))
        return gather(self, terms)

    monkeypatch.setattr(ExteriorAlgebra, "_dense", spy_scatter)
    monkeypatch.setattr(ExteriorAlgebra, "quaternion_matrix", spy_gather)
    zeta, eta = random_twistor_point(rng), random_unit_quaternion(rng)
    alpha = rng.normal(size=fiber.d) + 1j * rng.normal(size=fiber.d)
    built = [*ten_operators(fiber).as_list(),
             clifford(fiber, zeta, alpha),
             clifford_2form(fiber, zeta, kahler_form(fiber, ZETA_K)),
             rho_sp1(fiber, eta), rho_j_sp1(fiber, eta),
             chi(fiber, eta, zeta), hodge_star_twisted(fiber)]
    assert calls == []
    assert all(op.terms is not None for op in built)
    assert fiber.algebra.hodge_star().terms is None
    assert calls == ([("scatter", fiber.d)] if n > 1 else [])
