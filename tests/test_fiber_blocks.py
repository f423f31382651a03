"""Degree-block arithmetic of FiberOperator against dense matrix arithmetic.

Operands are builder outputs of every block shape: the ten operators
(degree shifts -2, 0, +2), a Clifford action (+-1), the twisted star
(k -> 4n - k), chi(k) (several shifts) and a bidegree projector (one
diagonal block).
"""

import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hklab.fiber import FiberOperator, bidegree_projector, standard_fiber
from hklab.quaternions import random_twistor_point
from hklab.symmetry import (chi_k, clifford, hodge_star_twisted,
                            rel_residual, ten_operators)
from hklab.torus import (LatticeOperator, LatticeSpec, build_gauge_field,
                         lattice_dirac, lift_fiber)

from .oracles import dense_closure

TOL = 1e-13


def _close(A, B) -> bool:
    return float(np.abs(A - B).max()) <= TOL * max(1.0, float(np.abs(B).max()))


def _builder_outputs(n: int) -> dict[str, FiberOperator]:
    fiber = standard_fiber(n)
    rng = np.random.default_rng(31 + n)
    zeta = random_twistor_point(rng)
    alpha = rng.normal(size=fiber.d) + 1j * rng.normal(size=fiber.d)
    ops = {op.label: op for op in ten_operators(fiber).as_list()}
    ops["clifford"] = clifford(fiber, zeta, alpha)
    ops["star"] = hodge_star_twisted(fiber)
    ops["chi_k"] = chi_k(fiber)
    ops["P(1,1)"] = bidegree_projector(fiber, zeta, 1, 1)
    return ops


@pytest.fixture(scope="module", params=[1, 2], ids=["n1", "n2"])
def outputs(request):
    return _builder_outputs(request.param)


def test_block_shapes_cover_every_kind(outputs):
    def shifts(op):
        return {a - b for a, b in op.blocks}

    d = outputs["H"].dim.bit_length() - 1
    assert shifts(outputs["L_omegaI"]) == {2}
    assert shifts(outputs["Lambda_omegaJ"]) == {-2}
    assert shifts(outputs["ad(K)"]) == {0}
    assert shifts(outputs["clifford"]) == {-1, 1}
    assert {a + b for a, b in outputs["star"].blocks} == {d}
    assert len(shifts(outputs["chi_k"])) > 1
    assert len(outputs["P(1,1)"].blocks) == 1


def test_blocks_hold_every_nonzero(outputs):
    for op in outputs.values():
        rebuilt = FiberOperator._from_blocks(op._offsets, op.blocks, "")
        assert np.array_equal(rebuilt.matrix, op.matrix)


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
        assert abs(A.inner(B) - np.vdot(MA, MB)) \
            <= TOL * max(1.0, np.linalg.norm(MA) * np.linalg.norm(MB))
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
    # (1 + L) (1 + Lambda): each diagonal block sums a real product and
    # a complex one
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
        X = ops["chi_k"] @ ops["star"]
        dim = X.dim
        v = np.arange(dim) + 1j
        V = np.stack([v, 1.0 - 2j * v[::-1], np.ones(dim)], axis=1)
        want_v, want_V = X.matrix @ v, X.matrix @ V
        # a fresh operator, whose dense form the products must not assemble
        X = ops["chi_k"] @ ops["star"]
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
