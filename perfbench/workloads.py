"""The four hklab benchmark workloads.

Each workload's ``setup(seed, outdir)`` imports hklab, builds the lazy state
its operations need (fibers, exterior algebras, gauge fields) and returns the
timed units of one pass.  The seed generates every random zeta and eta, the
check seeds of the identity registry and the CLI's ``--seed``; the library
receives only the generated values.  ``dirac_index`` keeps its default
start-vector seed, as ``hklab index`` does.  Every unit carries the
correctness check of its operations; the checks run outside the timed
region, and every operation of every workload is expected to pass.

Why these four: ``fiber-registry`` loads the dense exterior-algebra half of
the paper alone and ``index-ladder`` the sparse Lanczos half alone, so an
optimisation of one half shows on one workload and predicts no change on the
other.  ``zeta-sweep`` shares one gauge field across 20 twistor points
(work a cache across zeta would reuse) and runs the CLI, report writer and
worker pool.  ``torus-identities`` assembles, lifts and takes norms with no
eigensolve, the path the operator-identity checks keep in any case.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

TOL = 1e-10
SPECTRUM_TOL = 1e-9
CHECK_IDS = ("prop2.1-closure", "eq2.4", "prop2.5-factor",
             "prop2.6-equivariance", "lemma3.11-weil", "lemma3.13-commute",
             "thm3.10-fiber")
# N = 10 would add about 23 s a pass on one core, more than a run's
# --seconds, so the ladder stops at N = 8.  m = 0 runs at N = 8 only: at
# N = 6 the free spectrum 0, 36, 72 makes the index's gap choice a tie
# that float noise decides, so its verdict is wrong or indeterminate
# (a known dirac_index defect, left out of a benchmark whose operations
# must all pass).  At N = 8 the 16 lowest eigenvalues hold two levels only.
LADDER = tuple((N, m) for N in (6, 8) for m in (0, 1, 2)
               if (N, m) != (6, 0))
SWEEP = {"N": 6, "m": 1, "k": 16, "zetas": "fibonacci", "count": 20,
         "workers": 1}


@dataclass
class Unit:
    """One timed call; ``check`` returns one verdict per operation."""

    name: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], list[bool]]


def _seeds(seed: int):
    import numpy as np
    return np.random.default_rng(seed)


def _zeta(rng):
    from hklab.quaternions import TwistorPoint
    v = rng.normal(size=3)
    return TwistorPoint.from_array(v / math.sqrt(float(v @ v)))


def _eta(rng):
    from hklab.quaternions import UnitQuaternion
    v = rng.normal(size=4)
    return UnitQuaternion(*(v / math.sqrt(float(v @ v))))


# -- fiber-registry ----------------------------------------------------------

def fiber_registry(seed: int, outdir: str, smallest: bool = False) -> list[Unit]:
    from hklab.fiber import standard_fiber
    from hklab.symmetry import verify_identity

    rng = _seeds(seed)
    fibers = {n: standard_fiber(n) for n in (2, 1)}
    plan = [(1, "thm3.10-fiber")] if smallest else \
        [(n, cid) for n in (2, 1) for cid in CHECK_IDS]
    units = []
    for n, cid in plan:
        check_seed = int(rng.integers(2**31))
        units.append(Unit(
            f"n{n}/{cid}", 1,
            partial(verify_identity, cid, fibers[n], check_seed, TOL),
            lambda r: [r.residual <= TOL]))
    return units


# -- index-ladder ------------------------------------------------------------

def index_ladder(seed: int, outdir: str, smallest: bool = False) -> list[Unit]:
    from hklab.quaternions import ZETA_J
    from hklab.torus import (LatticeSpec, build_gauge_field, dirac_index,
                             model_fiber)

    generic = _zeta(_seeds(seed))
    model_fiber(1)
    plan = [(6, 1, "j")] if smallest else \
        [(N, m, z) for N, m in LADDER for z in ("j", "generic")]
    fields = {(N, m): build_gauge_field(LatticeSpec(1, N), m)
              for (N, m, _z) in plan}
    units = []
    for N, m, z in plan:
        zeta = ZETA_J if z == "j" else generic
        # closed form: the index on T^4 with flux m omega_J is m^2
        units.append(Unit(
            f"N{N}/m{m}/{z}", 1,
            partial(dirac_index, fields[N, m], zeta),
            lambda r, want=m * m: [r.determinate and r.value == want]))
    return units


# -- zeta-sweep --------------------------------------------------------------

class _SweepCheck:
    """Oracle, zeta-independence and pass-to-pass byte identity of the CSV."""

    def __init__(self, count: int):
        self.count = count
        self.digest = None
        self.oracle = None

    def __call__(self, result) -> list[bool]:
        import numpy as np

        rc, data = result
        if self.oracle is None:
            from tests.oracles import flux_zero_one_star_spectrum
            self.oracle = flux_zero_one_star_spectrum(SWEEP["N"], SWEEP["m"],
                                                      SWEEP["k"])
        blocks: dict[tuple[str, ...], list[float]] = {}
        for line in data.decode("utf-8").splitlines()[1:]:
            cols = line.split(",")
            blocks.setdefault(tuple(cols[:3]), []).append(float(cols[5]))
        spectra = [np.array(b) for b in blocks.values()]
        verdicts = []
        for w in spectra:
            verdicts.append(
                rc == 0 and len(w) == SWEEP["k"]
                and float(np.abs(w - self.oracle).max()) <= SPECTRUM_TOL
                and float(np.abs(w - spectra[0]).max()) <= SPECTRUM_TOL)
        verdicts += [False] * (self.count - len(verdicts))
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        else:
            verdicts.append(digest == self.digest)
        return verdicts


def zeta_sweep(seed: int, outdir: str, smallest: bool = False) -> list[Unit]:
    from hklab import cli
    from hklab.torus import LatticeSpec, build_gauge_field, model_fiber

    rng = _seeds(seed)
    lib_seed = int(rng.integers(2**31))
    model_fiber(1)
    build_gauge_field(LatticeSpec(1, SWEEP["N"]), SWEEP["m"])
    zetas, count = ("j", 1) if smallest else (SWEEP["zetas"], SWEEP["count"])
    path = os.path.join(outdir, f"zeta-sweep-{os.getpid()}.csv")
    argv = ["spectrum", "--N", str(SWEEP["N"]), "--m", str(SWEEP["m"]),
            "--k", str(SWEEP["k"]), "--zetas", zetas,
            "--workers", str(SWEEP["workers"]), "--seed", str(lib_seed),
            "--out", path]

    def run():
        try:
            rc = cli.main(argv)
            with open(path, "rb") as fh:
                return rc, fh.read()
        finally:
            if os.path.exists(path):
                os.remove(path)

    return [Unit("spectrum-cli", count, run, _SweepCheck(count))]


# -- torus-identities --------------------------------------------------------

def _residuals_ok(details: dict) -> list[bool]:
    return [float(v) <= TOL for v in details.values()]


def torus_identities(seed: int, outdir: str,
                     smallest: bool = False) -> list[Unit]:
    from hklab.torus import (LatticeSpec, build_gauge_field,
                             exact_symmetry_details, model_fiber,
                             theorem_3_10_details)

    rng = _seeds(seed)
    zeta, eta = _zeta(rng), _eta(rng)
    model_fiber(1)
    spec = LatticeSpec(1, 8)
    exact = Unit("exact-symmetry/N8m1", 3,
                 partial(exact_symmetry_details, build_gauge_field(spec, 1),
                         zeta, eta), _residuals_ok)
    if smallest:
        return [exact]
    thm = Unit("thm3.10/N8m3", 6,
               partial(theorem_3_10_details, build_gauge_field(spec, 3)),
               _residuals_ok)
    return [thm, exact]


WORKLOADS = {
    "fiber-registry": fiber_registry,
    "index-ladder": index_ladder,
    "zeta-sweep": zeta_sweep,
    "torus-identities": torus_identities,
}
