"""Command-line front end: verify | spectrum | index | decompose | brane-check.

Each setting's type, default, check and help is stated once in `_SETTINGS`;
a subcommand registers and checks only the settings `_READS` names for it,
plus `--out` and `--config`.  A shared config file may hold any known key.

Exit codes: 0 success, 1 check failure, 2 configuration (input) error,
3 indeterminate index.  Only ConfigError maps to 2; any other exception is
a program fault and propagates.  Identical configuration and seed produce
byte-identical artifacts; timings are printed to stderr only.

The parser is built once per process, on the first `main`; `main` then
looks its `cmd_*` function up by the subcommand's name, so a `cmd_*` (or
a name it reads) replaced at run time is the one called.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, NamedTuple

import numpy as np

from .fiber import standard_fiber
from .gengeo import LinearBraneDatum, fiber_families, hyperbrane_condition
from .quaternions import TwistorPoint, sample_zetas, random_twistor_point, \
    random_unit_quaternion
from .report import (FLOAT_FMT, CheckResult, SPECTRUM_CSV_HEADER,
                     report_json, spectrum_csv_rows, write_text)
from .reptheory import antiholomorphic_triple, primitive_decompose, \
    reconstruct
from .symmetry import DEFAULT_TOL, check_ids, verify_identity
from .torus import (THEOREMS, LatticeSpec, build_gauge_field, dirac_index,
                    flux_sweep, verify_theorem)


class ConfigError(Exception):
    pass


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _write(text: str, path: str | None = None, echo: bool = False) -> None:
    """`write_text`, an unwritable output path being a configuration error."""
    try:
        write_text(text, path, echo)
    except OSError as exc:
        if exc.filename is None:  # stdout, not the --out path
            raise
        raise ConfigError(f"cannot write output: {exc}") from exc


def _parse_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return out


def _check_writable(path: str) -> None:
    """Reject an --out path that cannot be written before any work is done.

    `_write` still maps an OSError of the write itself to ConfigError.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "is a directory"
    elif not os.path.isdir(parent):
        problem = "is in a missing directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        problem = "is not writable"
    else:
        return
    raise ConfigError(f"cannot write output: {path!r} {problem}")


def _require(ok: Callable[[Any], bool], message: str) -> Callable[[Any], None]:
    def check(value: Any) -> None:
        if not ok(value):
            raise ConfigError(message)
    return check


class _Setting(NamedTuple):
    type: Callable[[str], Any]
    default: Any
    help: str
    check: Callable[[Any], None] | None = None  # not run on a None value
    choices: tuple[str, ...] | None = None


_SUITES = ("fiber", "torus", "all")

# every flag and config key, in the order they are checked
_SETTINGS = {
    "workers": _Setting(int, None, "worker threads; spectrum splits its "
                        "zetas into one contiguous chunk a worker (env "
                        "HKLAB_WORKERS)",
                        _require(lambda v: v >= 1, "workers >= 1 required")),
    "seed": _Setting(int, 0, "seed of the random samples (default 0)",
                     _require(lambda v: v >= 0, "seed >= 0 required")),
    "n": _Setting(int, 1, "quaternionic dimension of the fiber",
                  _require(lambda v: v >= 1, "n >= 1 required")),
    "N": _Setting(int, 4, "lattice sites per axis",
                  _require(lambda v: v >= 3, "N >= 3 required")),
    "m": _Setting(int, 1, "flux multiplier of the gauge field"),
    "k": _Setting(int, 16, "number of eigenvalues per slice",
                  _require(lambda v: v >= 1, "k >= 1 required")),
    "zetas": _Setting(str, "axes", "axes | fibonacci | j | full (axes + 20 "
                      "fibonacci) | list:a,b,c;..."),
    "suite": _Setting(str, "all", "check suite (default all)",
                      _require(lambda v: v in _SUITES,
                               f"suite must be one of {', '.join(_SUITES)}"),
                      _SUITES),
    "tau": _Setting(float, 0.5, "kernel threshold fraction of the first gap",
                    _require(lambda v: 0.0 < v < 1.0,
                             "tau must lie in (0, 1)")),
    "tol": _Setting(float, None, "tolerance override for checks",
                    _require(lambda v: v >= 0.0, "tol must be >= 0")),
    "out": _Setting(str, None, "artifact output path", _check_writable),
}

# the settings each subcommand reads; every one reads `out` as well
_READS = {
    "verify": ("suite", "n", "N", "m", "k", "seed", "tol"),
    "spectrum": ("n", "N", "m", "k", "zetas", "seed", "workers"),
    "index": ("n", "N", "m", "k", "zetas", "seed", "tau"),
    "decompose": ("n",),
    "brane-check": ("tol",),
}


def _resolve(args: argparse.Namespace, **defaults) -> dict:
    """Merge flags > config file > defaults (`defaults` override the table's)
    for the settings `args.command` reads, then check them."""
    keys = (*_READS[args.command], "out")
    cfg = {key: defaults.get(key, _SETTINGS[key].default) for key in keys}
    if args.config:
        fromfile = _parse_config_file(args.config)
        unknown = set(fromfile) - set(_SETTINGS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in fromfile.items():
            if key in cfg:  # a key this subcommand does not read is ignored
                try:
                    cfg[key] = _SETTINGS[key].type(val)
                except ValueError as exc:
                    raise ConfigError(f"config key {key}: {exc}") from exc
    for key in keys:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if "workers" in cfg and cfg["workers"] is None:  # HKLAB_WORKERS or CPUs
        try:
            cfg["workers"] = int(os.environ.get("HKLAB_WORKERS",
                                                os.cpu_count() or 1))
        except ValueError as exc:
            raise ConfigError(f"HKLAB_WORKERS: {exc}") from exc
    for key, setting in _SETTINGS.items():
        if setting.check and cfg.get(key) is not None:
            setting.check(cfg[key])
    return cfg


def _zeta_list(spec: str) -> list[TwistorPoint]:
    if spec.startswith("list:"):
        pts = []
        for chunk in spec[5:].split(";"):
            try:
                vals = [float(x) for x in chunk.split(",")]
            except ValueError as exc:
                raise ConfigError(f"zeta {chunk!r}: {exc}") from exc
            if len(vals) != 3:
                raise ConfigError("zeta list entries need three components")
            # scaled by the largest |component| first, so that no square
            # underflows or overflows; nan propagates and fails the test
            scale = np.abs(vals).max()
            if not 0.0 < scale < np.inf:
                raise ConfigError(f"zeta {chunk!r} must be a finite non-zero "
                                  "vector")
            v = np.array(vals) / scale
            pts.append(TwistorPoint.from_array(v / np.linalg.norm(v)))
        if not pts:
            raise ConfigError("empty zeta list")
        return pts
    try:
        return sample_zetas(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    suite = cfg["suite"]
    torus_suite = suite in ("torus", "all")
    if torus_suite and cfg["m"] == 0:
        raise ConfigError("the torus suite needs flux m != 0 (thm3.1 "
                          "already covers m = 0)")
    results: list[CheckResult] = []
    rng = np.random.default_rng(cfg["seed"])

    def timed(check, cid, *inputs, **kw) -> CheckResult:
        t = time.perf_counter()
        result = check(cid, *inputs, **kw)
        _log(f"check {cid} n={cfg['n']}: "
             f"{1e3 * (time.perf_counter() - t):.1f} ms")
        return result

    t0 = time.time()
    if suite in ("fiber", "all"):
        fiber = standard_fiber(cfg["n"])
        tol = DEFAULT_TOL if cfg["tol"] is None else cfg["tol"]
        results.extend(timed(verify_identity, cid, fiber, cfg["seed"], tol)
                       for cid in check_ids())
    if torus_suite:
        spec = LatticeSpec(cfg["n"], cfg["N"])
        zeta = random_twistor_point(rng)
        eta = random_unit_quaternion(rng)
        zetas5 = [random_twistor_point(rng) for _ in range(5)]
        field_m = build_gauge_field(spec, cfg["m"])
        inputs = {
            "thm1.1": (field_m, zeta, eta, cfg["k"]),
            "thm3.1": (build_gauge_field(spec, 0), zetas5, eta, cfg["k"]),
            "cor1.2": (field_m, sample_zetas("axes")),
            "thm3.10": (build_gauge_field(spec, 3),),
        }
        results.extend(timed(verify_theorem, cid, *inputs[cid],
                             seed=cfg["seed"], tolerance=cfg["tol"])
                       for cid in THEOREMS)
    _log(f"verify suite={suite} ran in {time.time() - t0:.1f}s")
    for r in results:
        print(r.summary_line())
    _write(report_json(results), cfg["out"])
    failures = [r.check_id for r in results if not r.verdict]
    if failures:
        print("failed checks: " + ", ".join(failures))
        return 1
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    zetas = _zeta_list(cfg["zetas"])
    field = build_gauge_field(LatticeSpec(cfg["n"], cfg["N"]), cfg["m"])
    zero_star = range(2 * cfg["n"] + 1)
    t0 = time.time()

    def sweep(chunk: list[TwistorPoint]) -> list[str]:
        spectra = flux_sweep(field, chunk, [zero_star], cfg["k"],
                             seed=cfg["seed"])
        return [row for z, [(w, _dim)] in zip(chunk, spectra)
                for row in spectrum_csv_rows(z, "0*", w)]

    # one contiguous chunk of zetas a worker, so none is left empty
    size = -(-len(zetas) // cfg["workers"])
    chunks = [zetas[i:i + size] for i in range(0, len(zetas), size)]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        blocks = list(pool.map(sweep, chunks))
    rows = [row for block in blocks for row in block]
    _log(f"spectrum over {len(zetas)} zetas in {time.time() - t0:.1f}s")
    _write("\n".join([SPECTRUM_CSV_HEADER, *rows, ""]), cfg["out"])
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    # k stays None unless a flag or the config file sets it, so dirac_index
    # keeps its own default rule
    cfg = _resolve(args, k=None)
    zetas = _zeta_list(cfg["zetas"])
    field = build_gauge_field(LatticeSpec(cfg["n"], cfg["N"]), cfg["m"])
    t0 = time.time()
    results = [dirac_index(field, z, tau=cfg["tau"], k=cfg["k"],
                           seed=cfg["seed"]) for z in zetas]
    _log(f"index over {len(zetas)} zetas in {time.time() - t0:.1f}s")
    payload = {
        "params": {"n": cfg["n"], "N": cfg["N"], "m": cfg["m"],
                   "seed": cfg["seed"], "tau": FLOAT_FMT % cfg["tau"]},
        "per_zeta": [
            {
                "zeta": [FLOAT_FMT % c for c in z.as_array()],
                "index": r.value,
                "even_count": r.even_count,
                "odd_count": r.odd_count,
                "threshold": FLOAT_FMT % r.threshold,
                "gap": FLOAT_FMT % r.gap,
                "determinate": r.determinate,
            }
            for z, r in zip(zetas, results)
        ],
    }
    text = json.dumps(payload, indent=2) + "\n"
    if cfg["out"]:
        _write(text, cfg["out"])
    if any(not r.determinate for r in results):
        print("indeterminate at this N")
        return 3
    values = {r.value for r in results}
    if len(values) > 1:
        print(f"index disagrees across zetas: {sorted(values)}")
        return 1
    r0 = results[0]
    print(values.pop())
    print(f"even kernel count: {r0.even_count}, odd kernel count: "
          f"{r0.odd_count}, threshold: {r0.threshold:.6e}")
    if not cfg["out"]:
        _write(text)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    fiber = standard_fiber(cfg["n"])
    try:
        with open(args.input, encoding="utf-8") as fh:
            tokens = fh.read().split()
        vec = np.array([complex(t) for t in tokens])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse fiber element: {exc}") from exc
    if not np.isfinite(vec).all():
        raise ConfigError("fiber element has non-finite coefficients")
    if len(vec) != fiber.dim:
        raise ConfigError(
            f"expected {fiber.dim} coefficients for n={cfg['n']}, "
            f"got {len(vec)}")
    triple = antiholomorphic_triple(fiber)
    comps = primitive_decompose(fiber, vec, triple)
    residual = float(np.linalg.norm(reconstruct(triple, comps) - vec)
                     / max(1.0, np.linalg.norm(vec)))
    payload = {
        "components": [
            {"q": q, "i": i, "norm": FLOAT_FMT % float(np.linalg.norm(t))}
            for (q, i, t) in comps
        ],
        "reconstruction_residual": FLOAT_FMT % residual,
    }
    _write(json.dumps(payload, indent=2) + "\n", cfg["out"], echo=True)
    return 0


def _parse_brane_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the subspace basis, a line 'F', then the F matrix rows."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh
                     if ln.strip() and not ln.strip().startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read brane file: {exc}") from exc
    if "F" not in lines:
        raise ConfigError("brane file needs an 'F' separator line")
    split = lines.index("F")
    try:
        basis = np.array([[float(x) for x in ln.split()]
                          for ln in lines[:split]])
        F = np.array([[float(x) for x in ln.split()]
                      for ln in lines[split + 1:]])
    except ValueError as exc:
        raise ConfigError(f"cannot parse brane file: {exc}") from exc
    if basis.ndim != 2 or F.ndim != 2:
        raise ConfigError("brane file must contain two rectangular blocks")
    if not (np.isfinite(basis).all() and np.isfinite(F).all()):
        raise ConfigError("brane file has non-finite entries")
    return basis, F


def cmd_brane_check(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    basis, F = _parse_brane_file(args.input)
    if basis.shape[1] % 4 != 0:
        raise ConfigError("ambient dimension must be a multiple of 4")
    n = basis.shape[1] // 4
    fiber = standard_fiber(n)
    families = fiber_families(fiber)
    if args.family not in families:
        raise ConfigError("family must be BBB or ABA")
    try:
        datum = LinearBraneDatum(basis, F)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    samples = sample_zetas("full")
    tol = 1e-10 if cfg["tol"] is None else cfg["tol"]
    verdict, info = hyperbrane_condition(datum, families[args.family],
                                         samples, tol=tol)
    payload = {
        "family": args.family,
        "hyperbrane": verdict,
        "worst_defect": FLOAT_FMT % info["worst"],
        "defects": [
            {"zeta": [FLOAT_FMT % c for c in z],
             "defect": FLOAT_FMT % dv}
            for z, dv in sorted(info["defects"].items())
        ],
    }
    _write(json.dumps(payload, indent=2) + "\n", cfg["out"], echo=True)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hklab",
        description="spectral laboratory for flat hyperkahler fibers and "
                    "constant-flux torus Dirac operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, about):
        p = sub.add_parser(name, help=about)
        for key in (*_READS[name], "out"):
            setting = _SETTINGS[key]
            p.add_argument(f"--{key}", type=setting.type,
                           choices=setting.choices, help=setting.help)
        p.add_argument("--config", help="flat key=value config file")
        return p

    add("verify", "run identity and theorem checks")
    add("spectrum", "eigenvalue sweep over twistor points")
    add("index", "even/odd kernel index of the flux Dirac")
    p = add("decompose", "primitive decomposition of a fiber element file")
    p.add_argument("--input", required=True)
    p = add("brane-check", "hyperbrane condition for a "
                           "subspace/field-strength file")
    p.add_argument("--input", required=True)
    p.add_argument("--family", choices=("BBB", "ABA"), required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
