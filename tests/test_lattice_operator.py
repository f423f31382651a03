"""Kronecker-term lattice operators against their assembled matrices.

Every operator-identity residual the library takes from Gram norms is
recomputed here the assembled way: sites x fiber sparse matrices, sparse
products and `scipy.sparse.linalg.norm`.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hklab import cli
from hklab.fiber import (bidegree_projector, kahler_form, slice_basis,
                         zero_one_star_projector)
from hklab.quaternions import (QUAT_J, TwistorPoint, ZETA_J, adjoint_action,
                               hopf_section, random_twistor_point,
                               random_unit_quaternion)
from hklab.reptheory import antiholomorphic_triple
from hklab.symmetry import (chi, chi_k, clifford, clifford_2form,
                            exp_antihermitian, hodge_star_twisted, rho_j_sp1,
                            rho_sp1, ten_operators)
from hklab.torus import (LatticeOperator, LatticeSpec, build_gauge_field,
                         covariant_laplacian, dolbeault_pair,
                         exact_symmetry_details,
                         flux_fiber_matrix, flux_spectra, lattice_dirac,
                         dirac_index, dirac_vs_lichnerowicz,
                         lichnerowicz_laplacian, model_fiber,
                         theorem_1_1_details, theorem_3_10_details,
                         theorem_3_1_details)

from .oracles import (dense_site_factors, lift_fiber, restrict,
                      slice_isometry)

MINUS_J = TwistorPoint(0.0, -1.0, 0.0)
ABS_TOL = 1e-13


def _rel(M, scale) -> float:
    return float(spla.norm(M) / max(1.0, spla.norm(scale)))


def assembled_thm310(field) -> dict:
    fiber = model_fiber(field.spec.n)
    dj = lattice_dirac(field, ZETA_J).matrix
    dmj = lattice_dirac(field, MINUS_J).matrix
    tri = antiholomorphic_triple(fiber)
    X, S, L, A = (lift_fiber(field, op) for op in (
        chi_k(fiber), hodge_star_twisted(fiber), tri.L, tri.Lambda))
    ladder = lift_fiber(field, exp_antihermitian(
        tri.L.matrix - tri.Lambda.matrix, -np.pi / 2))
    towers = []
    for p in range(2 * fiber.n + 1):
        Pl = lift_fiber(field, sum(bidegree_projector(fiber, ZETA_J, p, q)
                                   .matrix for q in range(2 * fiber.n + 1)))
        towers.append(_rel(Pl @ dj @ Pl - dj @ Pl, dj))
    return {
        "chi_k_intertwine": _rel(X @ dj - dmj @ X, dj),
        "star_intertwine": _rel(S @ dj - dmj @ S, dj),
        "ladder_commute": _rel(ladder @ dmj - dmj @ ladder, dj),
        "L_commute": _rel(L @ dmj - dmj @ L, dj),
        "Lambda_commute": _rel(A @ dmj - dmj @ A, dj),
        "p_tower_preserved": max(towers),
    }


def _anchored(field, xi):
    fiber = model_fiber(field.spec.n)
    cw = clifford_2form(fiber, ZETA_J, kahler_form(fiber, xi))
    return (covariant_laplacian(field).matrix
            - (2j * np.pi * field.m) * lift_fiber(field, cw)).tocsr()


def assembled_exact_symmetry(field, zeta, eta) -> dict:
    fiber = model_fiber(field.spec.n)
    cov = covariant_laplacian(field).matrix
    lifts = [lift_fiber(field, op) for op in ten_operators(fiber).as_list()]
    R = lift_fiber(field, rho_sp1(fiber, hopf_section(zeta)))
    dz = lichnerowicz_laplacian(field, zeta).matrix
    mirrored = adjoint_action(QUAT_J, zeta)
    Rj = lift_fiber(field, rho_j_sp1(fiber, eta))
    rhs = _anchored(field, adjoint_action(eta, mirrored))
    return {
        "scalar_laplacian_commutes": max(_rel(cov @ L - L @ cov, cov)
                                         for L in lifts),
        "hopf_conjugation": _rel(R.getH() @ dz @ R
                                 - _anchored(field, mirrored), dz),
        "clifford_rotation": _rel(Rj @ _anchored(field, mirrored) @ Rj.getH()
                                  - rhs, rhs),
    }


def assembled_conjugation(op_z, op_zp, X) -> float:
    Xl = lift_fiber(op_z.spec, X)
    return _rel(Xl @ op_z.matrix - op_zp.matrix @ Xl, op_z.matrix)


def assembled_hermitian(op) -> float:
    return _rel(op.matrix - op.matrix.getH(), op.matrix)


def _close(structured: dict, assembled: dict) -> None:
    assert structured.keys() == assembled.keys()
    for key, want in assembled.items():
        assert abs(structured[key] - want) <= ABS_TOL, (key, structured[key],
                                                        want)


# ----- every residual, structured against assembled --------------------------

@pytest.mark.parametrize("N", [3, 4])
def test_thm310_residuals_match_assembled(N):
    field = build_gauge_field(LatticeSpec(1, N), 3)
    _close(theorem_3_10_details(field), assembled_thm310(field))


@pytest.mark.parametrize("N", [3, 4])
def test_exact_symmetry_residuals_match_assembled(N, rng):
    field = build_gauge_field(LatticeSpec(1, N), 1)
    zeta, eta = random_twistor_point(rng), random_unit_quaternion(rng)
    _close(exact_symmetry_details(field, zeta, eta),
           assembled_exact_symmetry(field, zeta, eta))


@pytest.mark.parametrize("N", [3, 4])
def test_conjugation_residuals_match_assembled(N, rng):
    fiber = model_fiber(1)
    zeta, eta = random_twistor_point(rng), random_unit_quaternion(rng)
    f1 = build_gauge_field(LatticeSpec(1, N), 1)
    det = theorem_1_1_details(f1, zeta, eta, k=4)
    want = assembled_conjugation(
        lichnerowicz_laplacian(f1, zeta),
        lichnerowicz_laplacian(f1, adjoint_action(eta, zeta)),
        chi(fiber, eta, zeta))
    assert abs(det["conjugation_residual"] - want) <= ABS_TOL
    f0 = build_gauge_field(LatticeSpec(1, N), 0)
    det = theorem_3_1_details(f0, [zeta], eta, k=4)
    half = lichnerowicz_laplacian(f0, zeta).matrix * 0.5
    R = lift_fiber(f0, rho_sp1(fiber, eta))
    want = _rel(R @ half - half @ R, half)
    assert abs(det["conjugation_residual"] - want) <= ABS_TOL


@pytest.mark.parametrize("N", [3, 4])
def test_hermitian_residual_matches_assembled(N, rng):
    field = build_gauge_field(LatticeSpec(1, N), 2)
    zeta = random_twistor_point(rng)
    dbar, dbar_star = dolbeault_pair(field, zeta)
    ops = [covariant_laplacian(field), lichnerowicz_laplacian(field, zeta),
           lattice_dirac(field, zeta), dbar, dbar_star]
    for i, op in enumerate(ops):
        assert abs(op.hermitian_residual()
                   - assembled_hermitian(op)) <= ABS_TOL, i
    # dbar is not Hermitian: both paths see the same O(1) defect
    assert dbar.hermitian_residual() > 0.1


def _planted_dirac(field, zeta, wrong):
    """lattice_dirac with c(e^0) taken at the wrong twistor point."""
    fiber = model_fiber(field.spec.n)
    D = lattice_dirac(field, zeta)
    (S, _), *rest = D.terms
    return LatticeOperator(
        ((S, clifford(fiber, wrong, np.eye(fiber.d)[0]).matrix), *rest),
        D.spec, D.fiber_dim, field)


def test_planted_defect_is_seen_by_both_paths(rng):
    field = build_gauge_field(LatticeSpec(1, 4), 3)
    fiber = model_fiber(1)
    dj, bad = lattice_dirac(field, ZETA_J), _planted_dirac(
        field, MINUS_J, random_twistor_point(rng))
    X = chi_k(fiber)
    structured = (X @ dj - bad @ X).frobenius_norm()
    Xl = lift_fiber(field, X)
    assembled = spla.norm(Xl @ dj.matrix - bad.matrix @ Xl)
    assert structured > 1.0
    assert abs(structured - assembled) <= 1e-12 * assembled
    # the Lichnerowicz family conjugated onto the wrong twistor point
    zeta, eta = random_twistor_point(rng), random_unit_quaternion(rng)
    X = chi(fiber, eta, zeta)
    dz = lichnerowicz_laplacian(field, zeta)
    wrong = lichnerowicz_laplacian(field, random_twistor_point(rng))
    structured = (X @ dz - wrong @ X).frobenius_norm()
    Xl = lift_fiber(field, X)
    assembled = spla.norm(Xl @ dz.matrix - wrong.matrix @ Xl)
    assert structured > 1.0
    assert abs(structured - assembled) <= 1e-12 * assembled


def test_n2_structured_norm_matches_assembled():
    """At n = 2 every full residual assembles >= 28M nonzeros, so two
    planted operators stand in: 1 (x) c_0(j) - 1 (x) c_0(-j), one site
    factor in two terms, and 1 (x) F.  The reference sums ~1e7 squares in
    BLAS order, so its own relative error is up to nnz * eps."""
    field = build_gauge_field(LatticeSpec(2, 3), 1)
    fiber = model_fiber(2)
    eye = sp.identity(field.spec.sites, dtype=complex, format="csr")
    c0 = [clifford(fiber, z, np.eye(fiber.d)[0]).matrix
          for z in (ZETA_J, MINUS_J)]
    for terms in (((eye, c0[0]), (eye, -c0[1])),
                  ((eye, flux_fiber_matrix(field, ZETA_J)),)):
        op = LatticeOperator(terms, field.spec, fiber.dim, field)
        want, nnz = spla.norm(op.matrix), op.matrix.nnz
        assert want > 1.0
        assert abs(op.frobenius_norm() - want) \
            <= nnz * np.finfo(float).eps * want


# ----- the algebra itself -----------------------------------------------------

def test_term_algebra_matches_assembled_algebra(rng):
    field = build_gauge_field(LatticeSpec(1, 3), 2)
    fiber = model_fiber(1)
    zeta = random_twistor_point(rng)
    D, delta = lattice_dirac(field, zeta), lichnerowicz_laplacian(field, zeta)
    X = chi(fiber, random_unit_quaternion(rng), zeta)
    Xl = lift_fiber(field, X)
    cases = [
        (D + delta, D.matrix + delta.matrix),
        (D - 0.5 * delta, D.matrix - 0.5 * delta.matrix),
        (X @ D, Xl @ D.matrix),
        (D @ X, D.matrix @ Xl),
        (X.matrix @ D @ X, Xl @ D.matrix @ Xl),
        ((X @ D).adjoint(), (Xl @ D.matrix).getH()),
    ]
    for op, want in cases:
        assert spla.norm(op.matrix - want) <= 1e-13 * spla.norm(want)
        assert abs(op.frobenius_norm() - spla.norm(want)) \
            <= 1e-13 * spla.norm(want)
    with pytest.raises(ValueError, match="different spaces"):
        D + lattice_dirac(build_gauge_field(LatticeSpec(1, 4), 2), zeta)


def test_gram_norm_of_generic_site_factors():
    """Complex site factors on one shared pattern: their Gram matrix is
    dense and complex, unlike the builders' (orthogonal or real) ones."""
    rng = np.random.default_rng(7)
    spec = LatticeSpec(1, 3)
    pattern = sp.random(spec.sites, spec.sites, density=0.1, random_state=3,
                        format="csr")
    terms = []
    for _ in range(3):
        S = pattern.copy().astype(complex)
        S.data = rng.normal(size=S.nnz) + 1j * rng.normal(size=S.nnz)
        terms.append((S, rng.normal(size=(16, 16))
                      + 1j * rng.normal(size=(16, 16))))
    op = LatticeOperator(tuple(terms), spec, 16)
    for A in (op, op - 0.5j * op.adjoint()):
        want = spla.norm(A.matrix)
        assert abs(A.frobenius_norm() - want) <= 1e-13 * want


def test_gram_norm_mixes_own_and_foreign_site_factors(rng):
    """The field's own factors beside foreign ones.  D0^H = -D0 and L^H = L
    merge into the own D0 and L; D1^H comes before D1, so D1 merges into
    that foreign copy.  Norms are taken twice, so the second reads the
    field's kept Gram entries."""
    field = build_gauge_field(LatticeSpec(1, 3), 1)
    spec = field.spec
    D0, D1 = field.differences[:2]
    foreign = sp.random(spec.sites, spec.sites, density=0.1, random_state=5,
                        format="csr") * (1.0 + 2.0j)
    eye = lichnerowicz_laplacian(field, ZETA_J).terms[1][0]
    sites = [foreign, D0, D1.getH(), field.laplacian, D0.getH(), eye,
             field.laplacian.getH(), D1]
    terms = tuple((S, rng.normal(size=(16, 16))
                   + 1j * rng.normal(size=(16, 16))) for S in sites)
    op = LatticeOperator(terms, spec, 16, field)
    for A in (op, op, op - 0.5j * op.adjoint()):
        want = spla.norm(A.matrix)
        assert abs(A.frobenius_norm() - want) <= 1e-13 * want
        # kept entries are the ones formed afresh, bit for bit
        assert A.frobenius_norm() == replace(A, field=None).frobenius_norm()


def test_nnz_counts_terms_without_assembly():
    field = build_gauge_field(LatticeSpec(1, 4), 1)
    op = lichnerowicz_laplacian(field, ZETA_J)
    assert op.nnz == field.laplacian.nnz + field.spec.sites + 2 * 16 * 16
    assert "matrix" not in vars(op)
    assert op.dim == op.matrix.shape[0] == field.spec.sites * 16


# ----- no assembly, no Lanczos ------------------------------------------------

def test_identity_checks_and_cli_spectrum_never_assemble(monkeypatch, tmp_path,
                                                         rng):
    import hklab.torus as torus

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a sites x fiber matrix")

    monkeypatch.setattr(torus.LatticeOperator, "matrix",
                        property(no_assembly))
    det = theorem_3_10_details(build_gauge_field(LatticeSpec(1, 4), 3))
    assert max(det.values()) < 1e-10
    det = exact_symmetry_details(build_gauge_field(LatticeSpec(1, 4), 1),
                                 random_twistor_point(rng),
                                 random_unit_quaternion(rng))
    assert max(det.values()) < 1e-10
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--N", "4", "--m", "1", "--k", "8",
                     "--zetas", "axes", "--workers", "1",
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6 * 8


def _gauge_transformed(N, m, rng):
    """A field with no plane-separated form: a random gauge transform."""
    field = build_gauge_field(LatticeSpec(1, N), m)
    return field.gauge_transformed(
        np.exp(2j * np.pi * rng.random(field.spec.sites)))


def test_slice_paths_never_assemble_the_full_fiber(monkeypatch, rng):
    """D^2 slices, the D^2 - Delta residual and the non-separable spectrum
    and index assemble sites x slice matrices only."""
    import hklab.torus as torus

    assemble = torus.LatticeOperator.matrix.func

    def slice_only(op):
        if op.fiber_dim == 1 << op.spec.d:
            raise AssertionError("assembled a sites x fiber matrix")
        return assemble(op)

    monkeypatch.setattr(torus.LatticeOperator, "matrix", property(slice_only))
    field = build_gauge_field(LatticeSpec(1, 3), 1)
    with pytest.raises(AssertionError, match="sites x fiber"):
        lattice_dirac(field, ZETA_J).matrix
    det = theorem_1_1_details(field, random_twistor_point(rng),
                              random_unit_quaternion(rng), k=12)
    assert max(det["conjugation_residual"], det["spectral_deviation"],
               det["dirac_square_deviation"]) < 1e-9
    r = dirac_vs_lichnerowicz(build_gauge_field(LatticeSpec(1, 4), 1),
                              ZETA_J, num_modes=10)
    assert 5.0 < r < 10.0
    g = _gauge_transformed(4, 1, rng)
    zeta = random_twistor_point(rng)
    [(w, dim)] = flux_spectra(
        g, zeta, [zero_one_star_projector(model_fiber(1), zeta)], 8)
    assert len(w) == 8 and dim == g.spec.sites * 4
    res = dirac_index(g, zeta)
    assert res.determinate and res.value == 1


@pytest.mark.parametrize("N", [3, 4])
def test_on_slice_matches_dense_restriction(N, rng):
    field = _gauge_transformed(N, 1, rng)
    fiber = model_fiber(1)
    zeta = random_twistor_point(rng)
    P = zero_one_star_projector(fiber, zeta)
    Q, V = slice_basis(fiber, P), slice_isometry(field, fiber, P)
    D = lattice_dirac(field, zeta)
    for op in (lichnerowicz_laplacian(field, zeta), D):
        on = op.on_slice(Q)
        assert (on.fiber_dim, on.spec, on.field) == (4, field.spec, field)
        assert abs(on.matrix - restrict(op, V)).max() <= 1e-12
    Dq = D.on_slice(Q).matrix
    want = V.getH() @ (D.matrix @ D.matrix) @ V
    assert abs(Dq @ Dq - want).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_actions_preserve_the_zero_star_slice(n, fiber1, fiber2,
                                                       rng):
    """(1 - Q Q^H) c_zeta(e^a) Q = 0: why the slice of D^2 is the square
    of D's slice."""
    fiber = fiber1 if n == 1 else fiber2
    for zeta in (ZETA_J, random_twistor_point(rng)):
        Q = slice_basis(fiber, zero_one_star_projector(fiber, zeta))
        out = np.eye(fiber.dim) - Q @ Q.conj().T
        for a in range(fiber.d):
            c = clifford(fiber, zeta, np.eye(fiber.d)[a]).matrix
            assert np.linalg.norm(out @ c @ Q) <= 1e-13


def test_theorem_3_1_runs_on_the_separable_engine(monkeypatch, rng):
    """At N = 6 the slices exceed the dense limit; the assembled path would
    call Lanczos on them."""
    import hklab.torus as torus

    def no_lanczos(*args, **kwargs):
        raise AssertionError("Lanczos on a build_gauge_field field")

    monkeypatch.setattr(spla, "eigsh", no_lanczos)
    monkeypatch.setattr(torus.LatticeOperator, "matrix",
                        property(no_lanczos))
    f0 = build_gauge_field(LatticeSpec(1, 6), 0)
    zetas = [random_twistor_point(rng) for _ in range(3)]
    det = theorem_3_1_details(f0, zetas, random_unit_quaternion(rng))
    assert det["harmonic_counts"] == [1, 2, 1]
    assert det["conjugation_residual"] < 1e-12
    assert det["spectral_deviation"] < 1e-10


def test_scalar_laplacian_is_shared_per_field(rng):
    field = build_gauge_field(LatticeSpec(1, 3), 1)
    assert lichnerowicz_laplacian(field, ZETA_J).terms[0][0] is \
        covariant_laplacian(field).terms[0][0] is field.laplacian
    zeta = TwistorPoint(0.6, 0.0, 0.8)
    for op in (lattice_dirac(field, ZETA_J), lattice_dirac(field, zeta),
               dolbeault_pair(field, zeta)[0]):
        assert all(S is T for (S, _), T in zip(op.terms, field.differences,
                                                strict=True))
    # the shared factors are the links' Laplacian and differences
    fields = [build_gauge_field(LatticeSpec(1, N), m)
              for N in (3, 4) for m in (0, 2)]
    fields.append(fields[-1].gauge_transformed(
        np.exp(2j * np.pi * rng.random(fields[-1].spec.sites))))
    for f in fields:
        lap, diffs = dense_site_factors(f)
        assert np.array_equal(f.laplacian.toarray(), lap)
        for S, T in zip(f.differences, diffs, strict=True):
            assert np.array_equal(S.toarray(), T)


def test_repeated_identity_checks_form_no_site_products(monkeypatch, rng):
    """A field's own site Gram entries are formed once: a second pass of
    the thm. 3.10 and exact-symmetry checks multiplies no site matrices."""
    fields = [build_gauge_field(LatticeSpec(1, 4), m) for m in (3, 1)]
    zeta, eta = random_twistor_point(rng), random_unit_quaternion(rng)

    def both():
        return (theorem_3_10_details(fields[0]),
                exact_symmetry_details(fields[1], zeta, eta))

    first = both()
    products = []
    multiply = sp.csr_matrix.multiply

    def spy(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(sp.csr_matrix, "multiply", spy)
    assert both() == first
    assert products == []


def test_distinct_own_site_factors_are_never_compared(monkeypatch, rng):
    """Two distinct own site factors of a field never merge, so the merge
    of a norm's terms compares none of them entry by entry; the results
    are those of the comparing merge."""
    import hklab.torus as torus

    field = build_gauge_field(LatticeSpec(1, 4), 2)
    zeta, eta = random_twistor_point(rng), random_unit_quaternion(rng)
    first = (theorem_3_10_details(field),
             exact_symmetry_details(field, zeta, eta))
    own = field.own_factors()
    assert field.laplacian is own[1] and len(own) == 2 + field.spec.d
    site_sign = torus._site_sign

    def spy(A, B):
        if A is not B and any(A is X for X in own) \
                and any(B is X for X in own):
            raise AssertionError("compared two distinct own site factors")
        return site_sign(A, B)

    monkeypatch.setattr(torus, "_site_sign", spy)
    again = (theorem_3_10_details(field),
             exact_symmetry_details(field, zeta, eta))
    assert again == first


@pytest.mark.parametrize("batch", [None, 40])
def test_one_pass_assembly_equals_termwise_sum(batch, monkeypatch, rng):
    # the old assembly: each term's Kronecker product added on its own
    import hklab.torus as torus

    if batch is not None:  # several batches of site rows
        monkeypatch.setattr(torus, "ASSEMBLY_BATCH", batch)
    field = build_gauge_field(LatticeSpec(1, 3), 2)
    zeta = random_twistor_point(rng)
    dj, dmj = lattice_dirac(field, ZETA_J), lattice_dirac(field, MINUS_J)
    # three terms on one site factor, generic values: the summation order
    # shows in the last bits, and the first two cancel exactly
    S = dj.terms[0][0]
    f = rng.normal(size=(3, 16, 16)) + 1j * rng.normal(size=(3, 16, 16))
    f[:, rng.random((16, 16)) < 0.5] = 0.0
    ops = [dj, dj - dmj, lichnerowicz_laplacian(field, zeta),
           LatticeOperator((dj.terms[0], (dj.terms[0][0], -dmj.terms[0][1])),
                           field.spec, dj.fiber_dim, field),
           2.0 * dolbeault_pair(field, zeta)[1],
           LatticeOperator(((S, f[0]), (S, f[1]), (S, f[2])),
                           field.spec, 16, field),
           LatticeOperator(((S, f[0]), (S, -f[0]), (S, f[2])),
                           field.spec, 16, field)]
    for op in ops:
        want = sp.csr_matrix((op.dim, op.dim), dtype=complex)
        for S, f in op.terms:
            want = want + sp.kron(S, sp.csr_matrix(f), format="csr")
        got = op.matrix
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
