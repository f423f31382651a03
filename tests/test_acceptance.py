"""Acceptance suite: every criterion at its stated size and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here, not configurable.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from hklab.fiber import standard_fiber
from hklab.gengeo import (GeneralizedTangentSpace, LinearBraneDatum,
                          fiber_families, generalized_metric,
                          hyperbrane_condition)
from hklab.fiber import kahler_form, wedge_operator
from hklab.quaternions import (UnitQuaternion, ZETA_I, ZETA_J, ZETA_K,
                               axis_points, fibonacci_sphere,
                               random_twistor_point, random_unit_quaternion,
                               sample_zetas)
from hklab.symmetry import check_ids, verify_identity
from hklab.torus import (LatticeSpec, build_gauge_field, corollary_1_2_details,
                         dirac_index, dirac_vs_lichnerowicz,
                         theorem_1_1_details, theorem_3_10_details,
                         theorem_3_1_details)

from .oracles import (chern_weil_index, fit_inverse_square, hodge_numbers,
                      landau_ground, theta_ground_count)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_fiber_identity_suite():
    detail = []
    ok = True
    for n, budget in ((1, 10.0), (2, 180.0)):
        fiber = standard_fiber(n)
        t0 = time.monotonic()
        worst = 0.0
        for cid in check_ids():
            res = verify_identity(cid, fiber, seed=7)
            worst = max(worst, res.residual)
            ok &= res.residual < 1e-10
        dt = time.monotonic() - t0
        ok &= dt < budget
        detail.append(f"n={n}: worst residual {worst:.2e}, {dt:.1f}s")
    _report("criterion 1 (fiber identity suite, n = 1 and 2)", ok,
            "; ".join(detail))


def test_criterion_2_sp1_intertwined_laplacians():
    rng = np.random.default_rng(101)
    field = build_gauge_field(LatticeSpec(1, 4), 1)
    t0 = time.monotonic()
    worst_conj = worst_spec = worst_dirac = 0.0
    for _ in range(10):
        det = theorem_1_1_details(field, random_twistor_point(rng),
                                  random_unit_quaternion(rng), k=20)
        worst_conj = max(worst_conj, det["conjugation_residual"])
        worst_spec = max(worst_spec, det["spectral_deviation"])
        worst_dirac = max(worst_dirac, det["dirac_square_deviation"])
    dt = time.monotonic() - t0
    ok = (worst_conj < 1e-10 and worst_spec < 1e-9
          and worst_dirac < 1e-9 and dt < 120.0)
    _report("criterion 2 (flux Laplacian intertwining, m=1 N=4)", ok,
            f"conjugation {worst_conj:.2e}, spectra {worst_spec:.2e}, "
            f"Dirac-square spectra {worst_dirac:.2e}, {dt:.1f}s")


def test_criterion_3_odd_kernel_vanishing():
    zetas = sample_zetas("full")
    t0 = time.monotonic()
    gaps = {}
    ok = True
    for N in (4, 6, 8):
        det = corollary_1_2_details(build_gauge_field(LatticeSpec(1, N), 1),
                                    zetas)
        gaps[N] = det
        ok &= det["min_gap"] > 0.0
        ok &= det["deviation"] < 1e-9
    target = landau_ground(1)
    ok &= abs(gaps[8]["min_gap"] - target) < 0.05 * target
    ok &= abs(gaps[8]["min_gap"] - target) < abs(gaps[4]["min_gap"] - target)
    dt = time.monotonic() - t0
    ok &= dt < 1200.0
    _report("criterion 3 (odd-kernel vanishing, N in {4,6,8})", ok,
            f"gap(8) = {gaps[8]['min_gap']:.4f} vs 4 pi = {target:.4f}, "
            f"zeta deviation {max(g['deviation'] for g in gaps.values()):.2e}, "
            f"{dt:.1f}s")


def test_criterion_4_flux_free_rotation_invariance():
    rng = np.random.default_rng(202)
    field = build_gauge_field(LatticeSpec(1, 4), 0)
    zetas = [random_twistor_point(rng) for _ in range(5)]
    t0 = time.monotonic()
    det = theorem_3_1_details(field, zetas, random_unit_quaternion(rng), k=16)
    dt = time.monotonic() - t0
    ok = (det["spectral_deviation"] < 1e-10
          and det["conjugation_residual"] < 1e-10
          and det["harmonic_counts"] == hodge_numbers(1)
          and dt < 120.0)
    _report("criterion 4 (flux-free Dolbeault invariance, m=0 N=4)", ok,
            f"spectra {det['spectral_deviation']:.2e}, harmonic "
            f"{det['harmonic_counts']}, {dt:.1f}s")


def test_criterion_5_pm_j_dirac_intertwining():
    field = build_gauge_field(LatticeSpec(1, 4), 3)
    det = theorem_3_10_details(field)
    worst = max(det.values())
    ok = worst < 1e-10
    _report("criterion 5 (+-J Dirac intertwining, m=3 N=4)", ok,
            "; ".join(f"{k} {v:.1e}" for k, v in det.items()))


def test_criterion_6_index_values_and_stability():
    fiber = standard_fiber(1)
    expected = {0: 0, 1: 1, 2: 4}
    t0 = time.monotonic()
    ok = True
    detail = []
    # values at N = 8 against the curvature-integral oracle
    fields8 = {m: build_gauge_field(LatticeSpec(1, 8), m) for m in expected}
    for m, want in expected.items():
        res = dirac_index(fields8[m], ZETA_J)
        ok &= res.determinate and res.value == want
        ok &= chern_weil_index(fiber, m) == want
        if m > 0:
            ok &= theta_ground_count(fields8[m]) == want
        detail.append(f"m={m}: {res.value}")
    h = hodge_numbers(1)
    res0 = dirac_index(fields8[0], ZETA_J)
    ok &= res0.even_count == h[0] + h[2] and res0.odd_count == h[1]
    # m = 1 across every sampled zeta at N = 8
    vals = {dirac_index(fields8[1], z).value for z in sample_zetas("full")}
    ok &= vals == {1}
    detail.append(f"26 zetas at N=8: {sorted(vals)}")
    # stability across N in {6, 8, 12} on two sampled zetas
    probes = [ZETA_J, fibonacci_sphere(20)[0]]
    for m, want in expected.items():
        for N in (6, 12):
            f = build_gauge_field(LatticeSpec(1, N), m)
            for z in probes:
                res = dirac_index(f, z)
                ok &= res.determinate and res.value == want
    dt = time.monotonic() - t0
    detail.append(f"stable over N in {{6,8,12}}, {dt:.1f}s")
    _report("criterion 6 (index 0/1/4 with oracles)", ok, "; ".join(detail))


def test_criterion_7_discretization_convergence():
    Ns = (4, 6, 8, 12)
    t0 = time.monotonic()
    residuals = [dirac_vs_lichnerowicz(build_gauge_field(LatticeSpec(1, N), 1),
                                       ZETA_J, num_modes=10) for N in Ns]
    C, r2 = fit_inverse_square(Ns, residuals)
    dt = time.monotonic() - t0
    ok = r2 > 0.99
    _report("criterion 7 (Dirac-square vs flux Laplacian, 1/N^2)", ok,
            f"residuals {['%.3f' % r for r in residuals]}, C = {C:.1f}, "
            f"R^2 = {r2:.5f}, {dt:.1f}s")


def test_criterion_8_generalized_geometry_suite():
    t0 = time.monotonic()
    fiber = standard_fiber(1)
    fams = fiber_families(fiber)
    ok = True
    worst = 0.0
    for fam in fams.values():
        worst = max(worst, fam.quaternion_residual())
        for z in axis_points() + fibonacci_sphere(20):
            J = fam.at(z)
            worst = max(worst, J.square_residual(),
                        J.orthogonality_residual())
    G = generalized_metric(np.eye(4))
    worst = max(worst, float(np.abs(G @ G - np.eye(8)).max()))
    P = GeneralizedTangentSpace(4).pairing()
    M = P @ G
    ok &= bool(np.all(np.linalg.eigvalsh(0.5 * (M + M.T)) > 0))
    for fam in fams.values():
        for z in axis_points():
            Jz = fam.at(z).matrix
            worst = max(worst, float(np.abs(G @ Jz - Jz @ G).max()))
    ok &= worst < 1e-12
    # hyperbrane verdicts: two true, one false
    samples = sample_zetas("full")
    wJ = kahler_form(fiber, ZETA_J).real
    S = np.zeros((2, 4))
    S[0, 0] = 1.0
    S[1, 2] = 1.0
    v1, _ = hyperbrane_condition(LinearBraneDatum(S, np.zeros((2, 2))),
                                 fams["ABA"], samples)
    v2, _ = hyperbrane_condition(LinearBraneDatum(np.eye(4), wJ),
                                 fams["ABA"], samples)
    rng = np.random.default_rng(5)
    v3, _ = hyperbrane_condition(
        LinearBraneDatum(rng.normal(size=(2, 4)), np.zeros((2, 2))),
        fams["ABA"], samples)
    ok &= v1 and v2 and not v3
    dt = time.monotonic() - t0
    ok &= dt < 5.0
    _report("criterion 8 (generalized-geometry suite)", ok,
            f"worst structural residual {worst:.2e}, verdicts "
            f"({v1}, {v2}, {v3}), {dt:.1f}s")


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "hklab.cli", *args],
                          capture_output=True, text=True)


def test_criterion_9_artifact_determinism(tmp_path):
    t0 = time.monotonic()
    snapshots = []
    for tag in ("first", "second"):
        csv = tmp_path / f"{tag}.csv"
        rep = tmp_path / f"{tag}.json"
        idx = tmp_path / f"{tag}_idx.json"
        dec = tmp_path / f"{tag}_dec.json"
        assert _cli("spectrum", "--N", "4", "--m", "1", "--k", "12",
                    "--zetas", "axes", "--seed", "3",
                    "--out", str(csv)).returncode == 0
        assert _cli("verify", "--suite", "fiber", "--seed", "3",
                    "--out", str(rep)).returncode == 0
        assert _cli("index", "--N", "4", "--m", "2", "--seed", "3",
                    "--zetas", "j", "--out", str(idx)).returncode == 0
        src = tmp_path / "element.txt"
        fiber = standard_fiber(1)
        from hklab.fiber import holomorphic_symplectic
        # conj(Omega) as an element of the algebra: wedged with 1
        v = wedge_operator(fiber,
                           holomorphic_symplectic(fiber).conj()).matrix[:, 0]
        src.write_text("\n".join(str(complex(c)) for c in v))
        assert _cli("decompose", "--n", "1", "--input", str(src),
                    "--out", str(dec)).returncode == 0
        snapshots.append((csv.read_bytes(), rep.read_bytes(),
                          idx.read_bytes(), dec.read_bytes()))
    ok = snapshots[0] == snapshots[1]
    dt = time.monotonic() - t0
    _report("criterion 9 (byte-identical artifacts)", ok,
            f"4 artifact kinds compared, {dt:.1f}s")
