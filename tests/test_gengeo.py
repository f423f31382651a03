import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab.fiber import kahler_form, standard_fiber
from hklab.gengeo import (GCStructure, GeneralizedTangentSpace,
                          LinearBraneDatum, brane_condition, fiber_families,
                          gc_from_complex, gc_from_symplectic,
                          generalized_metric, ghc_from_holsymplectic,
                          ghc_from_hypercomplex, hyperbrane_condition)
from hklab.quaternions import (ZETA_I, ZETA_J, ZETA_K, axis_points,
                               fibonacci_sphere, random_twistor_point,
                               sample_zetas)


def _random_antisym(rng, d):
    A = rng.normal(size=(d, d))
    return A - A.T


def _standard_omega(d):
    w = np.zeros((d, d))
    for i in range(0, d, 2):
        w[i, i + 1] = 1.0
        w[i + 1, i] = -1.0
    return w


def test_pairing_signature():
    ts = GeneralizedTangentSpace(4)
    assert ts.signature() == (4, 4)
    P = ts.pairing()
    assert np.abs(P - P.T).max() == 0.0


def test_gc_from_symplectic_invariants(rng):
    for _ in range(5):
        w = _random_antisym(rng, 4)
        B = _random_antisym(rng, 4)
        J = gc_from_symplectic(w, B)
        assert J.square_residual() < 1e-13
        assert J.orthogonality_residual() < 1e-13
    base = gc_from_symplectic(_standard_omega(4)).matrix
    assert np.abs(base[:4, 4:] + np.linalg.inv(_standard_omega(4))).max() == 0.0
    assert np.abs(base[4:, :4] - _standard_omega(4)).max() == 0.0


def test_gc_from_symplectic_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        gc_from_symplectic(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="antisymmetric"):
        gc_from_symplectic(np.eye(4))


def test_gc_from_complex_matrix_and_rejection():
    f = standard_fiber(1)
    G = gc_from_complex(f.J)
    assert np.abs(G.matrix[:4, :4] + f.J).max() == 0.0
    assert np.abs(G.matrix[4:, 4:] - f.J.T).max() == 0.0
    assert G.square_residual() == 0.0
    with pytest.raises(ValueError):
        gc_from_complex(np.eye(4))


def test_symplectic_and_complex_types_need_not_commute():
    f = standard_fiber(1)
    A = gc_from_symplectic(_standard_omega(4)).matrix  # e^01 + e^23 pattern
    B = gc_from_complex(f.J).matrix
    assert np.abs(A @ B - B @ A).max() > 0.1


def test_hypercomplex_family_matches_printed_blocks():
    f = standard_fiber(1)
    fam = ghc_from_hypercomplex(f.I, f.J, f.K)
    for X, member in ((f.I, fam.Ji), (f.J, fam.Jj), (f.K, fam.Jk)):
        assert np.abs(member.matrix[:4, :4] - X).max() == 0.0
        assert np.abs(member.matrix[4:, 4:] + X.T).max() == 0.0
        assert np.abs(member.matrix[:4, 4:]).max() == 0.0
    assert fam.quaternion_residual() < 1e-13
    with pytest.raises(ValueError):
        ghc_from_hypercomplex(f.I, f.J, -f.K)


def test_holsymplectic_family_matches_printed_blocks():
    f = standard_fiber(1)
    wI = kahler_form(f, ZETA_I).real
    wK = kahler_form(f, ZETA_K).real
    fam = ghc_from_holsymplectic(f.J, wI, wK)
    assert np.abs(fam.Jj.matrix[:4, :4] - f.J).max() == 0.0
    assert np.abs(fam.Jj.matrix[4:, 4:] + f.J.T).max() == 0.0
    for w, member in ((wI, fam.Ji), (wK, fam.Jk)):
        assert np.abs(member.matrix[4:, :4] - w).max() < 1e-14
        assert np.abs(member.matrix[:4, 4:] + np.linalg.inv(w)).max() < 1e-13
    assert fam.quaternion_residual() < 1e-13
    with pytest.raises(ValueError):
        ghc_from_holsymplectic(f.J, wK, wI)  # swapped pair is incompatible


def test_twistor_combination_is_gc(rng):
    f = standard_fiber(1)
    for fam in fiber_families(f).values():
        for _ in range(10):
            z = random_twistor_point(rng)
            J = fam.at(z)
            assert J.square_residual() < 1e-12
            assert J.orthogonality_residual() < 1e-12


def test_aba_family_mixed_type_off_axis():
    f = standard_fiber(1)
    fam = fiber_families(f)["ABA"]
    for z in fibonacci_sphere(12):
        ur = fam.at(z).matrix[:4, 4:]
        if abs(z.zeta_J) < 1.0 - 1e-9:
            assert abs(np.linalg.det(ur)) > 1e-10
    assert np.abs(fam.at(ZETA_J).matrix[:4, 4:]).max() < 1e-14


def test_generalized_metric_properties(rng):
    for _ in range(5):
        A = rng.normal(size=(4, 4))
        g = A @ A.T + 4.0 * np.eye(4)
        B = _random_antisym(rng, 4)
        G = generalized_metric(g, B)
        assert np.abs(G @ G - np.eye(8)).max() < 1e-12
        P = GeneralizedTangentSpace(4).pairing()
        M = P @ G
        assert np.all(np.linalg.eigvalsh(0.5 * (M + M.T)) > 0)
    base = generalized_metric(np.eye(4))
    assert np.abs(base[:4, 4:] - np.eye(4)).max() == 0.0
    assert np.abs(base[4:, :4] - np.eye(4)).max() == 0.0
    with pytest.raises(ValueError):
        generalized_metric(-np.eye(4))


def test_generalized_metric_commutes_with_families():
    f = standard_fiber(1)
    G = generalized_metric(np.eye(4))
    for fam in fiber_families(f).values():
        for z in axis_points():
            M = fam.at(z).matrix
            assert np.abs(G @ M - M @ G).max() < 1e-12


# ----- brane conditions ------------------------------------------------------

def test_lagrangian_is_a_brane():
    S = np.zeros((2, 4))
    S[0, 0] = 1.0
    S[1, 2] = 1.0  # span(e0, e2): Lagrangian for the standard omega
    assert _standard_omega(4)[0, 2] == 0.0
    datum = LinearBraneDatum(S, np.zeros((2, 2)))
    ok, defect = brane_condition(datum, gc_from_symplectic(_standard_omega(4)))
    assert ok and defect < 1e-12
    # a symplectic 2-plane with flat bundle is not a brane
    S2 = np.zeros((2, 4))
    S2[0, 0] = 1.0
    S2[1, 1] = 1.0
    ok2, defect2 = brane_condition(LinearBraneDatum(S2, np.zeros((2, 2))),
                                   gc_from_symplectic(_standard_omega(4)))
    assert not ok2 and defect2 > 1e-3


def test_space_filling_with_compatible_flux_is_a_brane():
    f = standard_fiber(1)
    wJ = kahler_form(f, ZETA_J).real
    wI = kahler_form(f, ZETA_I).real
    # F with (omega^-1 F)^2 = -Id: omega_I^{-1} omega_J is a complex structure
    datum = LinearBraneDatum(np.eye(4), wJ)
    ok, defect = brane_condition(datum, gc_from_symplectic(wI))
    assert ok and defect < 1e-12
    J_infer = np.linalg.inv(wI) @ wJ
    assert np.abs(J_infer @ J_infer + np.eye(4)).max() < 1e-12


def test_complex_subspace_is_a_b_brane():
    f = standard_fiber(1)
    S = np.zeros((2, 4))
    S[0, 0] = 1.0
    S[1, 2] = 1.0  # span(e0, J e0)
    ok, defect = brane_condition(LinearBraneDatum(S, np.zeros((2, 2))),
                                 gc_from_complex(f.J))
    assert ok and defect < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_brane_condition_invariant_under_basis_change(seed):
    f = standard_fiber(1)
    rng = np.random.default_rng(seed)
    S = np.zeros((2, 4))
    S[0, 0] = 1.0
    S[1, 2] = 1.0
    F = np.array([[0.0, 0.7], [-0.7, 0.0]])
    g = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    while abs(np.linalg.det(g)) < 0.3:
        g = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    datum = LinearBraneDatum(S, F)
    moved = LinearBraneDatum(g @ S, g @ F @ g.T)
    J = gc_from_complex(f.J)
    ok1, d1 = brane_condition(datum, J)
    ok2, d2 = brane_condition(moved, J)
    assert ok1 == ok2
    assert abs(d1 - d2) < 1e-8


def test_hyperbrane_verdicts():
    f = standard_fiber(1)
    fams = fiber_families(f)
    samples = sample_zetas("full")
    wJ = kahler_form(f, ZETA_J).real
    # holomorphic-symplectic Lagrangian, J-invariant: an (A, B, A) object
    S = np.zeros((2, 4))
    S[0, 0] = 1.0
    S[1, 2] = 1.0
    ok, info = hyperbrane_condition(LinearBraneDatum(S, np.zeros((2, 2))),
                                    fams["ABA"], samples)
    assert ok and info["worst"] < 1e-12
    # the space-filling flux brane
    ok, info = hyperbrane_condition(LinearBraneDatum(np.eye(4), wJ),
                                    fams["ABA"], samples)
    assert ok and info["worst"] < 1e-12
    # a generic plane fails at some sampled zeta
    rng = np.random.default_rng(5)
    bad = LinearBraneDatum(rng.normal(size=(2, 4)), np.zeros((2, 2)))
    ok, info = hyperbrane_condition(bad, fams["ABA"], samples)
    assert not ok and info["worst"] > 1e-3
    # flat space-filling brane on the hypercomplex side
    ok, _ = hyperbrane_condition(LinearBraneDatum(np.eye(4), np.zeros((4, 4))),
                                 fams["BBB"], samples)
    assert ok


def test_brane_datum_validation():
    with pytest.raises(ValueError):
        LinearBraneDatum(np.eye(2, 4), np.ones((2, 2)))  # non-antisymmetric F
    with pytest.raises(ValueError):
        LinearBraneDatum(np.zeros((2, 4)), np.zeros((2, 2)))  # dependent rows
    with pytest.raises(ValueError):
        LinearBraneDatum(np.eye(2, 4), np.zeros((3, 3)))  # shape mismatch


def test_generalized_tangent_space_dimension(rng):
    for k in (1, 2, 3, 4):
        S = rng.normal(size=(k, 4))
        F = _random_antisym(rng, k)
        Q = LinearBraneDatum(S, F).generalized_tangent_basis()
        assert Q.shape == (8, 4)
        assert np.abs(Q.T @ Q - np.eye(4)).max() < 1e-12
