import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab.exterior import ExteriorAlgebra
from hklab.fiber import complex_structure, kahler_form, slice_basis
from hklab.quaternions import (QUAT_K, TwistorPoint, UnitQuaternion, ZETA_J,
                               axis_points, fibonacci_sphere,
                               random_twistor_point, random_unit_quaternion,
                               sample_zetas)
from hklab.torus import (THEOREMS, LatticeGaugeField, LatticeOperator,
                         LatticeSpec, _flux_term, build_gauge_field,
                         corollary_1_2_details, covariant_laplacian,
                         dirac_index, dirac_vs_lichnerowicz, dolbeault_pair,
                         flux_fiber_matrix, flux_spectra, flux_sweep,
                         lattice_dirac, lichnerowicz_laplacian,
                         lowest_eigenvalues, model_fiber, near_zero_cluster,
                         plane_laplacians, separable_spectra,
                         theorem_1_1_details,
                         theorem_3_10_details, theorem_3_1_details,
                         verify_theorem)

from .oracles import (DenseExterior, bidegree_projector, chern_weil_index,
                      flux_slice_spectrum, flux_zero_one_star_spectrum,
                      free_mode_energy, hermitian_residual, hodge_numbers,
                      landau_ground, lift_fiber, restrict, slice_isometry,
                      theta_ground_count, zero_one_star_projector)

MINUS_J = TwistorPoint(0.0, -1.0, 0.0)


# ----- gauge field -----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError, match="N >= 3"):
        LatticeSpec(1, 2)
    with pytest.raises(ValueError):
        LatticeSpec(0, 4)


def test_flat_field_is_trivial():
    f0 = build_gauge_field(LatticeSpec(1, 4), 0)
    assert np.abs(f0.links - 1.0).max() == 0.0


def test_plaquette_holonomies_m1_N4():
    f1 = build_gauge_field(LatticeSpec(1, 4), 1)
    assert np.abs(f1.plaquettes(0, 2) - np.exp(-2j * np.pi / 16)).max() < 1e-14
    assert np.abs(f1.plaquettes(1, 3) - np.exp(+2j * np.pi / 16)).max() < 1e-14
    for (a, b) in ((0, 1), (0, 3), (1, 2), (2, 3)):
        assert np.abs(f1.plaquettes(a, b) - 1.0).max() < 1e-14


def test_flux_sum_is_minus_two_pi():
    f1 = build_gauge_field(LatticeSpec(1, 4), 1)
    c = f1.coords()
    mask = (c[:, 1] == 0) & (c[:, 3] == 0)
    total = np.angle(f1.plaquettes(0, 2)[mask]).sum()
    assert abs(total + 2.0 * np.pi) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_flux_integrality(m):
    f = build_gauge_field(LatticeSpec(1, 4), m)
    F = f.flux_integers()
    expected = np.zeros((4, 4), dtype=int)
    expected[0, 2] = -m
    expected[2, 0] = m
    expected[1, 3] = m
    expected[3, 1] = -m
    assert np.array_equal(F, expected)


def test_one_field_per_spec_and_flux():
    """`build_gauge_field` returns one shared field per (spec, m), numpy
    integers included; another spec or m, or a gauge transform, is another
    field."""
    spec = LatticeSpec(1, 4)
    f = build_gauge_field(spec, 2)
    assert build_gauge_field(spec, 2) is f
    assert build_gauge_field(LatticeSpec(1, 4), np.int64(2)) is f
    assert type(f.m) is int
    others = [build_gauge_field(spec, 1),
              build_gauge_field(LatticeSpec(1, 5), 2),
              build_gauge_field(LatticeSpec(2, 3), 2),
              f.gauge_transformed(np.ones(spec.sites))]
    assert all(g is not f for g in others)
    assert len({id(g) for g in others}) == len(others)


@pytest.mark.parametrize("m", [1.5, 2.0, np.float64(1.0), "1", None])
def test_flux_must_be_an_integer(m):
    """A non-integer flux breaks the seam's uniform holonomy (1.5 gave
    flux_integers row [0, 0, -1, 0]) and an integral float broke
    `dirac_index`'s k window: neither builds a field, hits a cached
    integer one or is accepted by a hand-built field."""
    spec = LatticeSpec(1, 4)
    links = build_gauge_field(spec, 1).links.copy()
    build_gauge_field(spec, 2)
    with pytest.raises(ValueError, match="flux m must be an integer"):
        build_gauge_field(spec, m)
    with pytest.raises(ValueError, match="flux m must be an integer"):
        LatticeGaugeField(spec, m, links)
    assert type(LatticeGaugeField(spec, np.int8(1), links).m) is int


def test_gauge_transformation_preserves_spectrum(rng):
    f1 = build_gauge_field(LatticeSpec(1, 4), 1)
    phases = np.exp(2j * np.pi * rng.random(f1.spec.sites))
    f2 = f1.gauge_transformed(phases)
    w1 = np.linalg.eigvalsh(f1.laplacian.toarray())
    w2 = np.linalg.eigvalsh(f2.laplacian.toarray())
    assert np.abs(w1 - w2).max() < 1e-10
    with pytest.raises(ValueError):
        f1.gauge_transformed(2.0 * phases)


# ----- covariant Laplacian ---------------------------------------------------

def test_covariant_laplacian_flat_kernel():
    f0 = build_gauge_field(LatticeSpec(1, 4), 0)
    lap = covariant_laplacian(f0)
    assert hermitian_residual(lap) < 1e-12
    v = np.ones(lap.dim, dtype=complex)
    assert np.linalg.norm(lap.matrix @ v) < 1e-10
    fiber = model_fiber(1)
    Q = slice_basis(fiber, ZETA_J, (0,))
    w = lowest_eigenvalues(lap.on_slice(Q), 2)
    assert abs(w[0]) < 1e-10
    assert abs(w[1] - free_mode_energy(4, [1])) < 1e-9


def test_landau_ground_five_percent_by_N8():
    f1 = build_gauge_field(LatticeSpec(1, 8), 1)
    w = lowest_eigenvalues(f1.laplacian, 1)
    assert abs(w[0] - landau_ground(1)) < 0.05 * landau_ground(1)


def test_positive_semidefinite():
    f1 = build_gauge_field(LatticeSpec(1, 4), 1)
    w = lowest_eigenvalues(f1.laplacian, 1)
    assert w[0] > -1e-10


# ----- Dirac operator and Dolbeault pair -------------------------------------

def test_dirac_hermitian_and_parity(rng):
    f1 = build_gauge_field(LatticeSpec(1, 3), 1)
    z = random_twistor_point(rng)
    D = lattice_dirac(f1, z)
    assert hermitian_residual(D) < 1e-12
    fiber = model_fiber(1)
    even = slice_isometry(f1, fiber, z, (0, 2))
    odd = slice_isometry(f1, fiber, z, (1,))
    # D maps the even tower into the odd tower
    block = (even.getH() @ D.matrix @ even)
    assert spla.norm(block) < 1e-11
    cross = (odd.getH() @ D.matrix @ even)
    assert spla.norm(cross) > 1.0


def test_dirac_preserves_p_towers(rng):
    f1 = build_gauge_field(LatticeSpec(1, 3), 2)
    z = random_twistor_point(rng)
    D = lattice_dirac(f1, z).matrix
    fiber = model_fiber(1)
    for p in range(3):
        P = sum(bidegree_projector(fiber, z, p, q).matrix for q in range(3))
        Pl = lift_fiber(f1, P)
        assert spla.norm(Pl @ D @ Pl - D @ Pl) / spla.norm(D) < 1e-11


def test_free_dirac_square_dispersion():
    """On the flat bundle D^2 matches the central-difference dispersion."""
    N = 6
    f0 = build_gauge_field(LatticeSpec(1, N), 0)
    D = lattice_dirac(f0, ZETA_J).matrix
    c = f0.coords()
    for ks in ([1, 0, 0, 0], [1, 2, 0, 1]):
        phase = np.exp(2j * np.pi * (c @ np.array(ks)) / N)
        v = np.kron(phase, np.eye(16, dtype=complex)[:, 0])
        disp = sum(N * N * np.sin(2 * np.pi * k / N) ** 2 for k in ks)
        assert np.linalg.norm(D @ (D @ v) - disp * v) < 1e-8 * np.linalg.norm(v)


def test_eq33_dirac_equals_dolbeault_pair(rng):
    f1 = build_gauge_field(LatticeSpec(1, 3), 1)
    z = random_twistor_point(rng)
    D = lattice_dirac(f1, z).matrix
    db, dbs = dolbeault_pair(f1, z)
    r = spla.norm(math.sqrt(2.0) * (db.matrix + dbs.matrix) - D)
    assert r / spla.norm(D) < 1e-11
    lap = (db.matrix + dbs.matrix) @ (db.matrix + dbs.matrix)
    assert spla.norm(lap - 0.5 * D @ D) / spla.norm(lap) < 1e-11


def test_dbar_squares_to_zero_flat(rng):
    f0 = build_gauge_field(LatticeSpec(1, 3), 0)
    z = random_twistor_point(rng)
    db, _ = dolbeault_pair(f0, z)
    assert spla.norm(db.matrix @ db.matrix) < 1e-11


def test_dbar_square_curvature_only_at_pm_j():
    f1 = build_gauge_field(LatticeSpec(1, 3), 1)
    for z, flat in ((ZETA_J, True), (MINUS_J, True),
                    (TwistorPoint(1.0, 0.0, 0.0), False)):
        db, _ = dolbeault_pair(f1, z)
        r = spla.norm(db.matrix @ db.matrix)
        assert (r < 1e-10) == flat


# ----- Lichnerowicz Laplacian ------------------------------------------------

def test_lichnerowicz_slice_shifts():
    f1 = build_gauge_field(LatticeSpec(1, 3), 1)
    fiber = model_fiber(1)
    delta = lichnerowicz_laplacian(f1, ZETA_J)
    cov = covariant_laplacian(f1)
    for q, shift in ((0, -4 * np.pi), (1, 0.0), (2, +4 * np.pi)):
        V = slice_isometry(f1, fiber, ZETA_J, (q,))
        M = restrict(delta, V) - restrict(cov, V)
        eye = np.eye(M.shape[0])
        assert np.abs(M.toarray() - shift * eye).max() < 1e-10


def test_lichnerowicz_flat_equals_covariant():
    f0 = build_gauge_field(LatticeSpec(1, 3), 0)
    d = lichnerowicz_laplacian(f0, ZETA_J).matrix \
        - covariant_laplacian(f0).matrix
    assert spla.norm(d) == 0.0


def test_spectrum_matches_plane_separated_oracle():
    """Both library paths against the independent oracle: the separable
    engine (`flux_spectra`) and the assembled sparse operator on the slice
    (`on_slice`, solved densely), on every (0, q) slice and on the whole
    (0, *) slice."""
    N, m = 4, 1
    f1 = build_gauge_field(LatticeSpec(1, N), m)
    fiber = model_fiber(1)
    delta = lichnerowicz_laplacian(f1, ZETA_J)
    cases = [((q,), 8, flux_slice_spectrum(N, m, q, 8)) for q in range(3)]
    cases.append((range(3), 12, flux_zero_one_star_spectrum(N, m, 12)))
    for degrees, k, oracle in cases:
        [(w, dim)] = flux_spectra(f1, ZETA_J, [degrees], k)
        M = delta.on_slice(slice_basis(fiber, ZETA_J, degrees))
        P = zero_one_star_projector(fiber, ZETA_J, degrees)
        for got, got_dim in ((w, dim),
                             (lowest_eigenvalues(M, k), M.shape[0])):
            assert got_dim == f1.spec.sites * round(np.trace(P.matrix).real)
            assert np.abs(got - oracle).max() < 1e-9


def _parity_oracle(N: int, m: int, parity: str, count: int) -> np.ndarray:
    qs = (0, 2) if parity == "even" else (1,)
    w = np.concatenate([flux_slice_spectrum(N, m, q, count) for q in qs])
    return np.sort(w)[:count]


@pytest.mark.parametrize("N,m,zeta,k", [
    (6, 0, ZETA_J, 8),
    (8, 2, fibonacci_sphere(20)[0], 14),
])
def test_index_eigenvalues_have_exact_multiplicities(N, m, zeta, k):
    """Windows that end inside a degenerate Landau level hold every copy
    below their top; an iterative solver may return fewer."""
    res = dirac_index(build_gauge_field(LatticeSpec(1, N), m), zeta, k=k)
    for parity, w in (("even", res.even_eigenvalues),
                      ("odd", res.odd_eigenvalues)):
        assert len(w) == k
        assert np.abs(w - _parity_oracle(N, m, parity, k)).max() < 1e-9
    if m == 0:  # 0, 0, 36 x 6
        assert np.allclose(res.even_eigenvalues, [0.0] * 2 + [36.0] * 6)


@settings(max_examples=12, deadline=None)
@given(N=st.sampled_from([3, 4]), m=st.integers(0, 3),
       zeta_seed=st.integers(0, 2**16), k=st.integers(1, 40),
       part=st.sampled_from(["all", "even", "odd", 0, 1, 2]))
def test_separable_spectrum_equals_assembled_dense(N, m, zeta_seed, k, part):
    f = build_gauge_field(LatticeSpec(1, N), m)
    z = random_twistor_point(np.random.default_rng(zeta_seed))
    fiber = model_fiber(1)
    degrees = {"all": range(3), "even": (0, 2), "odd": (1,)}.get(part, (part,))
    [(w, dim)] = flux_spectra(f, z, [degrees], k)
    M = lichnerowicz_laplacian(f, z).on_slice(slice_basis(fiber, z, degrees))
    assert dim == M.shape[0]
    assert np.abs(w - lowest_eigenvalues(M, k)).max() < 1e-9


def test_separable_engine_never_assembles(monkeypatch):
    import hklab.torus as torus

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled the sites x fiber operator")

    f = build_gauge_field(LatticeSpec(1, 6), 1)
    monkeypatch.setattr(torus, "lichnerowicz_laplacian", no_assembly)
    assert dirac_index(f, ZETA_J).value == 1
    det = corollary_1_2_details(f, [ZETA_J, MINUS_J])
    assert det["deviation"] < 1e-9


def test_non_separable_field_takes_assembled_path(monkeypatch, rng,
                                                  plane_solves):
    import hklab.torus as torus

    f = build_gauge_field(LatticeSpec(1, 4), 2)
    g = f.gauge_transformed(np.exp(2j * np.pi * rng.random(f.spec.sites)))
    assert len(plane_laplacians(f)) == 2
    assert plane_laplacians(g) is None
    assembled = []
    on_slice = torus.LatticeOperator.on_slice

    def spy(op, Q):
        assembled.append(op.field)
        return on_slice(op, Q)

    monkeypatch.setattr(torus.LatticeOperator, "on_slice", spy)
    [(a, dim_a)] = flux_spectra(f, ZETA_J, [range(3)], 12)
    assert assembled == []
    [(b, dim_b)] = flux_spectra(g, ZETA_J, [range(3)], 12)
    assert [x is g for x in assembled] == [True] and dim_a == dim_b
    assert np.abs(a - b).max() < 1e-9
    res_f, res_g = dirac_index(f, ZETA_J), dirac_index(g, ZETA_J)
    assert res_f.value == res_g.value == 4
    assert np.abs(res_f.even_eigenvalues
                  - res_g.even_eigenvalues).max() < 1e-9
    # the separability test ran once per field, and None was kept
    assert plane_solves == [f, g] and g.plane_spectra is None
    assert [x is g for x in assembled] == [True, True, True]


@pytest.mark.parametrize("n", [1, 2])
def test_each_field_solves_its_planes_once(rng, plane_solves, n):
    """`dirac_index` at j and at a generic zeta (both parities each) share
    one plane solve of the field; the kept spectra are the planes' own
    eigenvalues, read-only."""
    f = build_gauge_field(LatticeSpec(n, 4), 1)
    for z in (ZETA_J, random_twistor_point(rng)):
        assert dirac_index(f, z).value == 1
    assert plane_solves == [f]
    planes = plane_laplacians(f)
    assert len(f.plane_spectra) == len(planes) == 2 * n
    for w, H in zip(f.plane_spectra, planes):
        assert np.array_equal(w, np.linalg.eigvalsh(H))
        assert not w.flags.writeable


def test_theorem_1_1_solves_the_planes_once(rng, plane_solves):
    """Thm. 1.1's spectra at zeta and eta zeta eta^-1 share one plane
    solve."""
    f = build_gauge_field(LatticeSpec(1, 3), 1)
    det = theorem_1_1_details(f, random_twistor_point(rng),
                              random_unit_quaternion(rng), k=10)
    assert det["spectral_deviation"] < 1e-10
    assert plane_solves == [f]


def _flux_scatter(field, zeta):
    """-2 pi i m c_zeta(omega_J) scattered entry by entry at this zeta."""
    return _flux_term(field, zeta, kahler_form(model_fiber(field.spec.n),
                                               ZETA_J))


@pytest.mark.parametrize("n", [1, 2])
def test_flux_polynomial_equals_the_scatter(n):
    """`flux_fiber_matrix` evaluates c_zeta(omega_J)'s ten coefficients:
    bit for bit the per-zeta scatter at the six axis points, and within
    1e-14 relative of it and of the dense reference elsewhere."""
    f = build_gauge_field(LatticeSpec(n, 3), 2)
    fiber, ref = model_fiber(n), DenseExterior(4 * n)
    wJ = kahler_form(fiber, ZETA_J)
    for z in axis_points():
        assert np.array_equal(flux_fiber_matrix(f, z).matrix,
                              _flux_scatter(f, z).matrix)
    rng = np.random.default_rng(27)
    zetas = sample_zetas("full") + [random_twistor_point(rng)
                                    for _ in range(5)]
    for z in zetas:
        got = flux_fiber_matrix(f, z).matrix
        dense = -(2j * np.pi * f.m) * ref.clifford_2form(
            complex_structure(fiber, z), wJ)
        for want in (_flux_scatter(f, z).matrix, dense):
            assert (np.linalg.norm(got - want)
                    <= 1e-14 * np.linalg.norm(want))


@pytest.mark.parametrize("n", [1, 2])
def test_flux_spectra_match_the_scatter_spectra(n):
    """Even and odd slice spectra of `flux_spectra` against those of the
    scattered F, through the same separable fold (a stack of one block)."""
    f = build_gauge_field(LatticeSpec(n, 3), 1)
    fiber = model_fiber(n)
    qs = range(2 * n + 1)
    rng = np.random.default_rng(127)
    for z in axis_points()[:2] + [random_twistor_point(rng)
                                  for _ in range(3)]:
        got = flux_spectra(f, z, [qs[::2], qs[1::2]], 12)
        for degrees, (w, dim) in zip((qs[::2], qs[1::2]), got):
            Q = slice_basis(fiber, z, degrees)
            block = Q.conj().T @ (_flux_scatter(f, z) @ Q)
            [want], want_dim = separable_spectra(f.plane_spectra,
                                                 block[None], 12)
            assert dim == want_dim
            assert np.abs(w - want).max() <= 1e-12


def _bits(rows):
    """A sweep's result, each eigenvalue list as its bytes."""
    return [[(w.tobytes(), dim) for w, dim in row] for row in rows]


@pytest.mark.parametrize("n,N,m", [(1, 4, 2), (1, 5, 3), (1, 6, 1),
                                   (2, 3, 1)])
def test_flux_sweep_equals_single_calls_wherever_it_is_cut(n, N, m):
    """One sweep over the 26 points of `full` gives each zeta the bits of
    its own one-point call, and so does the sweep cut in two anywhere;
    at n = 1 the (0, *) spectra are the oracle's."""
    f = build_gauge_field(LatticeSpec(n, N), m)
    zetas = sample_zetas("full")
    qs = range(2 * n + 1)
    slices = [qs, qs[::2], qs[1::2]]
    whole = _bits(flux_sweep(f, zetas, slices, 16))
    assert whole == _bits(flux_spectra(f, z, slices, 16) for z in zetas)
    for cut in (1, 7, 13, 25):
        assert whole == _bits(flux_sweep(f, zetas[:cut], slices, 16)
                              + flux_sweep(f, zetas[cut:], slices, 16))
    if n == 1:
        oracle = flux_zero_one_star_spectrum(N, m, 16)
        for [(w, _dim), *_parities] in flux_sweep(f, zetas, slices, 16):
            assert np.abs(w - oracle).max() < 1e-9


@pytest.fixture()
def eigensolves(monkeypatch):
    """The shapes handed to np.linalg.eigh and eigvalsh, by name."""
    calls = {"eigh": [], "eigvalsh": []}
    for name, log in calls.items():
        def spy(a, *args, _solve=getattr(np.linalg, name), _log=log,
                **kwargs):
            _log.append(np.shape(a))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_sweep_batches_bound_the_stack_not_the_result(monkeypatch,
                                                      eigensolves):
    """With batches of 3 zetas (SWEEP_BATCH basis entries, 64 a zeta at
    n = 1) the sweep forms its blocks batch by batch and returns the same
    bits, still from one frame eigh and one eigvalsh a slice set."""
    import hklab.torus as torus

    f = build_gauge_field(LatticeSpec(1, 4), 2)
    zetas = sample_zetas("full")
    slices = [range(3), (0, 2), (1,)]
    whole = _bits(flux_sweep(f, zetas, slices, 12))
    monkeypatch.setattr(torus, "SWEEP_BATCH", 3 * 64)
    for log in eigensolves.values():
        log.clear()
    assert _bits(flux_sweep(f, zetas, slices, 12)) == whole
    assert eigensolves["eigh"] == [(26, 4, 4)]
    assert [s[0] for s in eigensolves["eigvalsh"]] == [26] * 3


def test_sweep_takes_one_frame_and_one_eigensolve_a_slice_set(eigensolves):
    """Whatever the number of zetas, a sweep takes one stacked eigh (every
    zeta's (0, 1)-frame) and one stacked eigvalsh per slice set (every
    zeta's fiber block); the field's planes were solved before."""
    f = build_gauge_field(LatticeSpec(1, 4), 1)
    assert f.plane_spectra is not None
    slices = [range(3), (0, 2), (1,)]
    for zetas in (sample_zetas("j"), sample_zetas("axes"),
                  sample_zetas("full")):
        for log in eigensolves.values():
            log.clear()
        flux_sweep(f, zetas, slices, 8)
        assert eigensolves["eigh"] == [(len(zetas), 4, 4)]
        assert [s[0] for s in eigensolves["eigvalsh"]] == [len(zetas)] * 3


def test_dirac_index_takes_one_frame_for_both_parities(eigensolves):
    f = build_gauge_field(LatticeSpec(2, 4), 1)
    assert f.plane_spectra is not None
    eigensolves["eigvalsh"].clear()
    assert dirac_index(f, random_twistor_point(
        np.random.default_rng(28))).value == 1
    assert eigensolves["eigh"] == [(1, 8, 8)]
    assert eigensolves["eigvalsh"] == [(1, 8, 8)] * 2


def test_flux_sweep_scatters_only_the_ten_coefficients(monkeypatch):
    """A cold fiber builds its ten coefficient operators once, one
    `ExteriorAlgebra.quadratic` scatter each; a second 20-zeta sweep
    scatters nothing."""
    scatters = []
    quadratic = ExteriorAlgebra.quadratic

    def spy(alg, *args):
        scatters.append(alg)
        return quadratic(alg, *args)

    monkeypatch.delitem(model_fiber(1).derived, "flux", raising=False)
    monkeypatch.setattr(ExteriorAlgebra, "quadratic", spy)
    f = build_gauge_field(LatticeSpec(1, 4), 1)
    zetas = sample_zetas("fibonacci")
    assert len(zetas) == 20
    for expected in (10, 0):
        scatters.clear()
        for z in zetas:
            flux_spectra(f, z, [range(3)], 8)
        assert len(scatters) <= expected


def test_library_does_not_import_tests():
    src = Path(__file__).resolve().parent.parent / "src" / "hklab"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "tests" or n.startswith("tests.")
                           for n in names), (path.name, names)


def test_cross_solver_agreement(monkeypatch):
    import hklab.torus as torus
    f1 = build_gauge_field(LatticeSpec(1, 4), 1)
    fiber = model_fiber(1)
    V = slice_isometry(f1, fiber, ZETA_J, range(3))
    M = restrict(lichnerowicz_laplacian(f1, ZETA_J), V)
    dense = lowest_eigenvalues(M, 15)
    monkeypatch.setattr(torus, "DENSE_LIMIT", 0)  # force the Lanczos path
    lanczos = lowest_eigenvalues(M, 10)
    assert np.abs(dense[:10] - lanczos).max() < 1e-9
    # raw Ritz vectors inside the 4-fold level at 8-11 are up to 0.1 from
    # orthonormal; the solver returns an orthonormal basis
    w, V = lowest_eigenvalues(M, 15, vectors=True)
    assert np.abs(V.conj().T @ V - np.eye(15)).max() < 1e-12
    assert np.linalg.norm(M @ V - V * w, 2) < 1e-9
    assert np.abs(w - dense).max() < 1e-9


def test_lowest_eigenvalues_rejects_non_hermitian():
    A = np.triu(np.ones((6, 6)))
    for M in (A, sp.csr_matrix(A)):
        with pytest.raises(ValueError, match="not Hermitian"):
            lowest_eigenvalues(M, 2)


def test_lowest_eigenvalues_checks_every_block_of_a_stack():
    """A stack of dense blocks is solved block by block in one call; one
    non-Hermitian block anywhere in it is rejected."""
    rng = np.random.default_rng(28)
    X = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    H = X + X.conj().swapaxes(-1, -2)
    w = lowest_eigenvalues(H, 4)
    assert w.shape == (5, 4)
    for block, got in zip(H, w):
        assert np.array_equal(got, lowest_eigenvalues(block, 4))
    for bad in (0, 3):
        M = H.copy()
        M[bad, 0, 1] += 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            lowest_eigenvalues(M, 4)
    # a defect above 1e-10 in absolute terms but not relative to its block
    M = 1e6 * H
    M[:, 0, 1] += 1e-5
    assert lowest_eigenvalues(M, 4).shape == (5, 4)
    # a small block's defect counts against its own norm, not the stack's
    M = H.copy()
    M[0] *= 1e12
    M[3, 0, 1] += 1e-7
    with pytest.raises(ValueError, match="not Hermitian"):
        lowest_eigenvalues(M, 4)


def test_lowest_eigenvalues_rejects_non_finite_input():
    """A NaN entry fails the Hermitian check instead of reaching LAPACK or
    ARPACK."""
    A = np.eye(6)
    A[2, 2] = np.nan
    for M in (A, sp.csr_matrix(A)):
        with pytest.raises(ValueError, match="not Hermitian"):
            lowest_eigenvalues(M, 2)


def test_lowest_eigenvalues_rejects_k_below_one():
    # a negative k would slice the top of the spectrum off instead
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            lowest_eigenvalues(np.diag([3.0, 1.0, 2.0]), k)
    field = build_gauge_field(LatticeSpec(1, 4), 1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        flux_spectra(field, ZETA_J, [range(3)], -2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        dirac_index(field, ZETA_J, k=-3)


@pytest.mark.filterwarnings("ignore:the matrix subclass")
def test_lowest_eigenvalues_solves_dense_arrays_densely():
    """A dense array is never handed to Lanczos, whatever its size; a
    sparse request for all but one eigenvalue is solved densely too.  An
    ndarray subclass counts as dense and a sparse array as sparse."""
    X = np.random.default_rng(3).normal(size=(1300, 1300))
    A = X + X.T
    w = lowest_eigenvalues(A, 4)
    assert np.array_equal(w, np.linalg.eigvalsh(A)[:4])
    assert np.array_equal(lowest_eigenvalues(np.matrix(A), 4), w)
    D = sp.diags(np.arange(5.0))
    assert np.array_equal(lowest_eigenvalues(D, 4), np.arange(4.0))
    assert np.array_equal(lowest_eigenvalues(sp.csr_array(D), 4),
                          lowest_eigenvalues(sp.csr_matrix(D), 4))


def test_eigensolves_only_in_lowest_eigenvalues():
    """Every eigensolve of torus.py goes through `lowest_eigenvalues`."""
    path = (Path(__file__).resolve().parent.parent / "src" / "hklab"
            / "torus.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", None)
                if name in ("eigsh", "eigvalsh"):
                    callers.add(getattr(top, "name", "<module>"))
    assert callers == {"lowest_eigenvalues"}


def test_spectrum_determinism_and_truncation(rng):
    f1 = build_gauge_field(LatticeSpec(1, 3), 1)
    g = f1.gauge_transformed(np.exp(2j * np.pi * rng.random(f1.spec.sites)))
    P = (0,)
    [(a, _)] = flux_spectra(g, ZETA_J, [P], 4, seed=5)
    [(b, _)] = flux_spectra(g, ZETA_J, [P], 4, seed=5)
    assert np.array_equal(a, b)
    with pytest.warns(UserWarning, match="truncated"):
        flux_spectra(g, ZETA_J, [P], 10**6)


def test_lichnerowicz_conjugation_exact(rng):
    """The chi intertwiner conjugates the flux Laplacian family exactly."""
    f1 = build_gauge_field(LatticeSpec(1, 3), 1)
    det = theorem_1_1_details(f1, random_twistor_point(rng),
                              random_unit_quaternion(rng), k=10)
    assert det["conjugation_residual"] < 1e-12
    assert det["spectral_deviation"] < 1e-10


def test_spectral_sp1_invariance_k32():
    f1 = build_gauge_field(LatticeSpec(1, 4), 1)
    base = None
    for z in fibonacci_sphere(20):
        [(w, _dim)] = flux_spectra(f1, z, [range(3)], 32)
        if base is None:
            base = w
        else:
            assert np.abs(w - base).max() < 1e-9


# ----- theorem wrappers ------------------------------------------------------

def test_verify_theorem_1_1(rng):
    f1 = build_gauge_field(LatticeSpec(1, 4), 1)
    res = verify_theorem("thm1.1", f1, random_twistor_point(rng),
                         random_unit_quaternion(rng), 20)
    assert res.verdict
    res_id = verify_theorem("thm1.1", f1, ZETA_J, UnitQuaternion.identity(),
                            8)
    assert res_id.residual < 1e-12


def test_verify_theorem_3_1(rng):
    f0 = build_gauge_field(LatticeSpec(1, 4), 0)
    zetas = [random_twistor_point(rng) for _ in range(5)]
    res = verify_theorem("thm3.1", f0, zetas, random_unit_quaternion(rng))
    assert res.verdict
    det = theorem_3_1_details(f0, [ZETA_J], UnitQuaternion.identity())
    assert det["harmonic_counts"] == hodge_numbers(1)
    with pytest.raises(ValueError):
        theorem_3_1_details(build_gauge_field(LatticeSpec(1, 3), 1),
                            [ZETA_J], UnitQuaternion.identity())


def test_verify_corollary_1_2_and_flat_control(rng):
    f1 = build_gauge_field(LatticeSpec(1, 4), 1)
    zetas = [ZETA_J, MINUS_J, random_twistor_point(rng)]
    res = verify_theorem("cor1.2", f1, zetas)
    assert res.verdict
    # flat bundle control: harmonic odd forms exist, vanishing must fail
    f0 = build_gauge_field(LatticeSpec(1, 4), 0)
    det0 = corollary_1_2_details(f0, [ZETA_J])
    assert det0["min_gap"] < 1e-8
    assert not verify_theorem("cor1.2", f0, [ZETA_J]).verdict


def test_cor12_gap_bound_is_a_quarter_of_the_continuum_gap_for_any_sign():
    """The vanishing bound is pi max(|m|, 1), a quarter of 4 pi |m|: a gap
    of 1.5 pi fails at m = -2 and passes at m = 1."""
    reduce = THEOREMS["cor1.2"][3]
    det = {"min_gap": 1.5 * np.pi, "deviation": 0.0}
    spec = LatticeSpec(1, 3)
    assert reduce(det, build_gauge_field(spec, -2)) == np.inf
    assert reduce(det, build_gauge_field(spec, 1)) == 0.0


def test_verify_theorem_3_10_generic_bundle():
    f3 = build_gauge_field(LatticeSpec(1, 3), 3)
    res = verify_theorem("thm3.10", f3)
    assert res.verdict
    det = theorem_3_10_details(f3)
    for key, val in det.items():
        assert val < 1e-10, (key, val)
    # the runner's tolerance override and params
    res = verify_theorem("thm3.10", f3, seed=4, tolerance=0.0)
    assert not res.verdict and res.tolerance == 0.0
    assert res.params == {"n": 1, "N": 3, "m": 3, "seed": 4}
    with pytest.raises(KeyError, match="thm9.9"):
        verify_theorem("thm9.9", f3)


# ----- index -----------------------------------------------------------------

@pytest.mark.parametrize("m,expected", [(0, 0), (1, 1), (2, 4)])
def test_index_against_oracles(m, expected, fiber1):
    f = build_gauge_field(LatticeSpec(1, 6), m)
    res = dirac_index(f, ZETA_J)
    assert res.determinate
    assert res.value == expected
    assert res.value == chern_weil_index(fiber1, m)
    if m > 0:
        assert res.value == theta_ground_count(f)
    else:
        h = hodge_numbers(1)
        assert res.even_count == h[0] + h[2] and res.odd_count == h[1]


@pytest.mark.parametrize("m", [0, 1])
def test_index_on_T8(m, fiber2):
    """First T^8 (n = 2) index: 0 and 1 at N = 4, on the j axis and a
    generic point, against the curvature integral and the theta count."""
    f = build_gauge_field(LatticeSpec(2, 4), m)
    for z in (ZETA_J, fibonacci_sphere(20)[0]):
        res = dirac_index(f, z, k=16)
        assert res.determinate
        assert res.value == m == chern_weil_index(fiber2, m)
        if m > 0:
            assert res.value == theta_ground_count(f)
        else:
            assert (res.even_count, res.odd_count) == (8, 8)


@pytest.mark.parametrize("m", [0, 1])
def test_index_default_window_on_T8(m):
    """Without k the window grows with n: 2^{2n+1} = 32 per parity at
    N = 4, enough to pass the 8 + 8 flux-free zero modes."""
    f = build_gauge_field(LatticeSpec(2, 4), m)
    res = dirac_index(f, ZETA_J)
    assert res.determinate and res.value == m
    assert len(res.even_eigenvalues) == len(res.odd_eigenvalues) == 32


def test_index_default_window_n1_unchanged():
    for m in range(4):
        res = dirac_index(build_gauge_field(LatticeSpec(1, 4), m), ZETA_J)
        assert len(res.even_eigenvalues) == max(8, 2 * m * m + 6)


def test_index_zeta_independence():
    f = build_gauge_field(LatticeSpec(1, 6), 1)
    vals = {dirac_index(f, z).value for z in sample_zetas("axes")}
    assert vals == {1}


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cluster_rule_equally_spaced_ladder(sign):
    # free m = 0 spectrum at N = 6: the 0 -> 36 and 36 -> 72 jumps tie
    jitter = sign * 1e-13 * np.array([1.0, -1.0, 0.5, -0.5])
    w = np.concatenate([jitter, 36.0 + 1e-13 * sign * np.arange(10),
                        [72.0 - sign * 1e-13, 72.0]])
    c = near_zero_cluster(w)
    assert c.size == 4
    assert abs(c.gap - 36.0) < 1e-9
    assert c.ratio < 1e-12
    assert c.top < c.threshold(0.5) < c.gap


def test_cluster_rule_negative_cluster():
    # m = 2-like lattice ground level sits below zero
    w = np.array([-1.08] * 4 + [21.9] * 8 + [42.8] * 2)
    c = near_zero_cluster(w)
    assert (c.size, c.gap) == (4, 21.9)
    assert c.top < c.threshold(0.5) < c.gap


def test_cluster_rule_undecided():
    # the list ends inside its zero cluster, or below the dominating jump
    assert near_zero_cluster(np.array([1e-13, -2e-13, 5e-14, 3e-13])) is None
    assert near_zero_cluster(np.array([-1.08] * 4 + [5.0])) is None
    assert near_zero_cluster(np.array([0.0])) is None
    # tau * gap outside the open gap gives no threshold
    c = near_zero_cluster(np.array([0.0, 0.0, 36.0]))
    assert c.threshold(1.0) is None and c.threshold(0.0) is None


def test_index_explains_determinacy():
    f = build_gauge_field(LatticeSpec(1, 4), 2)
    res = dirac_index(f, ZETA_J)
    assert res.determinate and res.value == 4
    assert res.cluster_size == 4 and res.cluster_ratio < 1.0 / 6.0
    assert "cluster of 4" in res.reason
    # the even list ends inside the cluster: its count could be short
    res = dirac_index(f, ZETA_J, k=4)
    assert not res.determinate and res.value is None
    assert res.even_count is None and "even" in res.reason
    # zero modes only: no gap was returned
    res = dirac_index(build_gauge_field(LatticeSpec(1, 4), 0), ZETA_J, k=2)
    assert not res.determinate and res.cluster_size is None
    assert math.isnan(res.gap) and "no gap" in res.reason


def test_dirac_vs_lichnerowicz_is_basis_free(monkeypatch):
    # the 4-fold level at indices 8-11 is cut by num_modes = 10
    import hklab.torus as torus
    f = build_gauge_field(LatticeSpec(1, 4), 1)
    dense = dirac_vs_lichnerowicz(f, ZETA_J, num_modes=10)
    assert abs(dense - dirac_vs_lichnerowicz(f, ZETA_J, num_modes=12)) < 1e-12
    monkeypatch.setattr(torus, "DENSE_LIMIT", 0)  # force the Lanczos path
    for seed in (0, 5):
        lanczos = dirac_vs_lichnerowicz(f, ZETA_J, num_modes=10, seed=seed)
        assert abs(dense - lanczos) < 1e-9


def test_exact_symmetry_invariants(rng):
    """Hopf and Clifford conjugations of the flux family hold at machine
    precision independently of lattice size."""
    from hklab.torus import exact_symmetry_details
    for N in (3, 4):
        f = build_gauge_field(LatticeSpec(1, N), 1)
        det = exact_symmetry_details(f, random_twistor_point(rng),
                                     random_unit_quaternion(rng))
        for key, val in det.items():
            assert val < 1e-10, (N, key, val)


def test_sliced_spectrum_gauge_invariance(rng):
    f = build_gauge_field(LatticeSpec(1, 3), 1)
    g = f.gauge_transformed(np.exp(2j * np.pi * rng.random(f.spec.sites)))
    [(a, _)] = flux_spectra(f, ZETA_J, [range(3)], 12)
    [(b, _)] = flux_spectra(g, ZETA_J, [range(3)], 12)
    assert np.abs(a - b).max() < 1e-10


def test_theorem_1_1_dirac_square_deviation(rng):
    f = build_gauge_field(LatticeSpec(1, 3), 1)
    det = theorem_1_1_details(f, random_twistor_point(rng),
                              random_unit_quaternion(rng), k=12)
    assert det["dirac_square_deviation"] < 1e-9


def test_convergence_rate_pair():
    r4 = dirac_vs_lichnerowicz(build_gauge_field(LatticeSpec(1, 4), 1),
                               ZETA_J, num_modes=6)
    r8 = dirac_vs_lichnerowicz(build_gauge_field(LatticeSpec(1, 8), 1),
                               ZETA_J, num_modes=6)
    assert r8 < r4 / 2.5  # consistent with 1/N^2 up to subleading terms
