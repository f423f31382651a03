import math

import numpy as np
import pytest

from hklab.fiber import holomorphic_symplectic, kahler_form
from hklab.quaternions import ZETA_J, random_twistor_point
from hklab.reptheory import (antiholomorphic_triple, irrep_operators,
                             irrep_sp1_eval, irrep_sp1_generator,
                             lefschetz_triple, phi_isomorphism,
                             primitive_decompose, primitive_space_dimension,
                             reconstruct)
from scipy.linalg import expm

from .oracles import (bidegree_projector, primitive_dimension,
                      sl2_joint_spectrum_prediction)


def test_irrep_m1_ladder():
    L, Lam, H = irrep_operators(1)
    # basis (y, x): L maps y -> x and kills x
    assert L[1, 0] == 1 and L[0, 1] == 0 and L[1, 1] == 0 and L[0, 0] == 0
    assert np.array_equal(H, np.diag([-1, 1]))


def test_irrep_m2_weights():
    _L, _A, H = irrep_operators(2)
    assert np.array_equal(np.diag(H), [-2, 0, 2])


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
def test_irrep_sl2_closure_exact(m):
    L, Lam, H = irrep_operators(m)
    assert np.array_equal(L @ Lam - Lam @ L, H)
    assert np.array_equal(H @ L - L @ H, 2 * L)
    assert np.array_equal(H @ Lam - Lam @ H, -2 * Lam)


@pytest.mark.parametrize("m", [0, 1, 2, 4, 7])
def test_irrep_group_elements_closed_forms(m):
    for gen in ("i", "j", "k"):
        closed = irrep_sp1_eval(m, gen)
        expd = expm((math.pi / 2) * irrep_sp1_generator(m, gen))
        assert np.abs(closed - expd).max() < 1e-12


def test_irrep_k_action_entries():
    M = irrep_sp1_eval(3, "k")
    for i in range(4):
        assert M[3 - i, i] == (-1.0) ** i
    Mj = irrep_sp1_eval(3, "j")
    for i in range(4):
        assert Mj[i, i] == 1j ** ((2 * i - 3) % 4)
    Mi = irrep_sp1_eval(3, "i")
    for i in range(4):
        assert Mi[3 - i, i] == 1j ** (3 % 4)


def test_antiholomorphic_weights(fiber1):
    """H of the conj(Omega) triple acts as (q - n) on the (., q) slices."""
    tri = antiholomorphic_triple(fiber1)
    assert tri.sl2_closed
    for q in range(3):
        P = sum(bidegree_projector(fiber1, ZETA_J, p, q).matrix
                for p in range(3))
        assert np.abs(tri.H.matrix @ P - (q - 1) * P).max() < 1e-12


def test_kahler_triples_degree_weights(fiber1, rng):
    """H of any omega_zeta triple acts as (k - 2n) on degree k."""
    z = random_twistor_point(rng)
    tri = lefschetz_triple(fiber1, kahler_form(fiber1, z))
    assert tri.sl2_closed
    degs = fiber1.algebra.degrees
    assert np.abs(tri.H.matrix - np.diag((degs - 2.0).astype(complex))).max() \
        < 1e-12


def test_phase_rotated_symplectic_triple(fiber1):
    """Replacing conj(Omega) by a phase rotation scales L and Lambda by
    conjugate phases and fixes H."""
    base = antiholomorphic_triple(fiber1)
    theta = 0.7342
    omb = holomorphic_symplectic(fiber1).conj()
    rotated = lefschetz_triple(fiber1, np.exp(-1j * theta) * omb)
    assert np.abs(rotated.L.matrix
                  - np.exp(-1j * theta) * base.L.matrix).max() < 1e-13
    assert np.abs(rotated.Lambda.matrix
                  - np.exp(+1j * theta) * base.Lambda.matrix).max() < 1e-13
    assert np.abs(rotated.H.matrix - base.H.matrix).max() < 1e-13


def test_incompatible_form_is_flagged(fiber1):
    # a decomposable form still closes an sl(2); a stretched one does not
    dec = np.zeros((4, 4), dtype=complex)
    dec[0, 1], dec[1, 0] = 1, -1  # e^01
    assert lefschetz_triple(fiber1, dec).sl2_closed
    bad = dec.copy()
    bad[2, 3], bad[3, 2] = 2, -2  # e^01 + 2 e^23
    assert not lefschetz_triple(fiber1, bad).sl2_closed


def test_ladder_constants_eq(fiber1, rng):
    tri = antiholomorphic_triple(fiber1)
    L, A = tri.L.matrix, tri.Lambda.matrix
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    for (q, _i, t) in primitive_decompose(fiber1, v, tri):
        m = fiber1.n - q
        rung = t
        for i in range(m):
            lhs = A @ (L @ rung)
            assert np.abs(lhs - (i + 1) * (m - i) * rung).max() \
                < 1e-11 * max(1.0, np.abs(rung).max())
            rung = L @ rung


def test_primitive_decompose_reconstruction_100(fiber1, rng):
    tri = antiholomorphic_triple(fiber1)
    for _ in range(100):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        comps = primitive_decompose(fiber1, v, tri)
        err = np.linalg.norm(reconstruct(tri, comps) - v) / np.linalg.norm(v)
        assert err < 1e-11
        for (q, _i, t) in comps:
            assert np.linalg.norm(tri.Lambda.matrix @ t) \
                < 1e-10 * np.linalg.norm(t)
            assert 0 <= q <= fiber1.n


@pytest.mark.parametrize("bad", [np.inf, complex(0.0, -np.inf)])
def test_primitive_decompose_rejects_non_finite(fiber1, bad):
    v = np.zeros(16, dtype=complex)
    v[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        primitive_decompose(fiber1, v, antiholomorphic_triple(fiber1))


def test_primitive_input_gives_single_term(fiber1, rng):
    tri = antiholomorphic_triple(fiber1)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    comps = primitive_decompose(fiber1, v, tri)
    t0 = next(t for (q, i, t) in comps if i == 0)
    again = primitive_decompose(fiber1, t0, tri)
    assert len(again) == 1
    q, i, t = again[0]
    assert i == 0 and np.allclose(t, t0, atol=1e-12)


def test_phi_isomorphism_values_and_equivariance(fiber1, rng):
    tri = antiholomorphic_triple(fiber1)
    L, A, H = tri.L.matrix, tri.Lambda.matrix, tri.H.matrix
    # a primitive element in the (., 0) slice; m = n - q = 1
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    s = next(t for (q, i, t) in primitive_decompose(fiber1, v, tri)
             if q == 0 and i == 0)
    m = 1
    assert np.allclose(phi_isomorphism(fiber1, m, 0, s, 0, tri), s)
    assert np.allclose(phi_isomorphism(fiber1, m, 0, s, m, tri),
                       L @ s / math.factorial(m))
    Lm, Am, Hm = (M.astype(complex) for M in irrep_operators(m))
    for i in range(m + 1):
        img = phi_isomorphism(fiber1, m, 0, s, i, tri)
        # L Phi(x^i y^{m-i} (x) s) = Phi(L_m x^i y^{m-i} (x) s)
        lhs = L @ img
        rhs = sum(Lm[j, i] * phi_isomorphism(fiber1, m, 0, s, j, tri)
                  for j in range(m + 1))
        assert np.abs(lhs - rhs).max() < 1e-11
        lhs = A @ img
        rhs = sum(Am[j, i] * phi_isomorphism(fiber1, m, 0, s, j, tri)
                  for j in range(m + 1))
        assert np.abs(lhs - rhs).max() < 1e-11
        assert np.abs(H @ img - (2 * i - m) * img).max() < 1e-11


def test_phi_rejects_non_primitive(fiber1, rng):
    tri = antiholomorphic_triple(fiber1)
    bad = tri.L.matrix @ (rng.normal(size=16) + 0j)
    bad[0] += 1.0
    with pytest.raises(ValueError):
        phi_isomorphism(fiber1, 1, 0, tri.L.matrix @ bad + bad, 0, tri)


@pytest.mark.parametrize("n", [1, 2])
def test_primitive_dimensions_and_total_count(n, fiber1, fiber2):
    fiber = fiber1 if n == 1 else fiber2
    tri = antiholomorphic_triple(fiber)
    total = 0
    for q in range(n + 1):
        dim = primitive_space_dimension(fiber, q, tri)
        assert dim == primitive_dimension(n, q)
        total += (n - q + 1) * dim
    assert total == 2 ** (4 * n)


def test_hard_lefschetz_bijection(fiber1, rng):
    z = random_twistor_point(rng)
    L = lefschetz_triple(fiber1, kahler_form(fiber1, z)).L.matrix
    alg = fiber1.algebra
    for k in (1, 2):
        Lk = np.linalg.matrix_power(L, k)
        src = alg.degree_projector(2 - k)
        cols = Lk @ src
        assert np.linalg.matrix_rank(cols, tol=1e-10) == \
            int(np.trace(src).real)


@pytest.mark.parametrize("n", [1, 2])
def test_joint_spectrum_matches_prediction(n, fiber1, fiber2):
    fiber = fiber1 if n == 1 else fiber2
    tri = antiholomorphic_triple(fiber)
    H = tri.H.matrix
    C = 2.0 * tri.casimir()
    wH, V = np.linalg.eigh(H)
    pairs = {}
    # Casimir commutes with H; diagonalize it inside each weight eigenspace
    for w in sorted(set(np.round(wH.real).astype(int))):
        cols = V[:, np.abs(wH - w) < 1e-8]
        block = cols.conj().T @ C @ cols
        for c in np.linalg.eigvalsh(block):
            key = (int(w), int(round(c.real)))
            pairs[key] = pairs.get(key, 0) + 1
    assert pairs == sl2_joint_spectrum_prediction(n)
