"""hklab benchmark: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

With ``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it times every unit untraced and then traced, back to back, and
reports the per-layer split and the tracing overhead.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A results file (environment record, per-unit times, failures) and, when
traced, the span file go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread and one pool worker, so pool threads x BLAS threads stays
# within nproc on any machine.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

from tracer import Tracer, summarize  # noqa: E402
from workloads import CHECK_IDS, SWEEP, WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 10
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "passed_frac": "frac"}


class Tally:
    """Operation verdicts over a run; timings go to caller-owned dicts."""

    def __init__(self, units):
        self.units = units
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def times(self) -> dict[str, list[float]]:
        return {u.name: [] for u in self.units}

    def run(self, u, label: str, times: dict,
            tracer: Tracer | None = None) -> float:
        """Time one unit, then check it outside the timed region."""
        if tracer is not None:
            tracer.op = f"{label}/{u.name}"
        t0 = time.perf_counter()
        try:
            result, error = u.run(), None
        except Exception:  # an operation that raises counts as failed
            result, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        times[u.name].append(dt)
        if error is None:
            try:
                verdicts = u.check(result)
            except Exception:
                verdicts, error = [False] * u.ops, traceback.format_exc()
        else:
            verdicts = [False] * u.ops
        if error is not None:
            print(f"{label}/{u.name} raised:\n{error}", file=sys.stderr)
        bad = sum(1 for v in verdicts if not v)
        self.attempted += len(verdicts)
        self.failed += bad
        if bad:
            self.failures.append(f"{label}/{u.name}: {bad} of "
                                 f"{len(verdicts)} failed")
        return dt


def wall(times: dict[str, list[float]]) -> float:
    """Steady-state pass time: the sum of per-unit median times."""
    return sum(statistics.median(t) for t in times.values())


def _setup(workload: str, seed: int):
    t0 = time.perf_counter()
    import hklab  # noqa: F401  (the import is part of set-up)
    units = WORKLOADS[workload](seed, str(OUT))
    return time.perf_counter() - t0, units


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return out
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = int(fn())
                break
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    threads = _blas_threads()
    nproc = len(os.sched_getaffinity(0))
    workers = SWEEP["workers"]
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "blas_vendor": vendor,
        "blas_threads": threads,
        "pool_workers": workers,
        "pool_x_blas_within_nproc":
            workers * max(threads.values(), default=1) <= nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_pinning": None,
        "page_cache_dropped": False,
        "notes": "other processes on the machine may share the cores",
    }


def _write_json(name: str, payload: dict) -> None:
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def measure(workload: str, seed: int,
            seconds: float) -> tuple[Tally, dict, dict]:
    start = time.perf_counter()
    setup_main, units = _setup(workload, seed)
    setups = [setup_main]

    def probe_until(share: float) -> None:
        """Fresh-interpreter set-up samples, spread between the passes."""
        while len(setups) - 1 < SETUP_PROBES * min(share, 1.0):
            setups.append(_probe_setup(workload, seed))

    tally = Tally(units)
    times = tally.times()
    passes = 0
    while True:
        pass_s = sum(tally.run(u, f"pass{passes}", times) for u in units)
        passes += 1
        probe_until((time.perf_counter() - start) / seconds)
        if (passes >= MIN_PASSES
                and time.perf_counter() - start + pass_s > seconds):
            break
    probe_until(1.0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": wall(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "passed_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    detail = {"passes": passes, "unit_times_s": times,
              "setup_samples_s": setups}
    return tally, metrics, detail


def measure_traced(workload: str, seed: int,
                   seconds: float) -> tuple[Tally, dict, dict]:
    """Each unit runs untraced and then traced, back to back, every pass."""
    import hklab  # noqa: F401
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        _t, units = _setup(workload, seed)
        tally = Tally(units)
        plain, traced = tally.times(), tally.times()
        start = time.perf_counter()
        passes = 0
        while True:
            pass_s = 0.0
            for u in units:
                tracer.enabled = False
                pass_s += tally.run(u, f"pass{passes}", plain)
                tracer.enabled = True
                pass_s += tally.run(u, f"pass{passes}", traced, tracer)
            tracer.enabled = False
            passes += 1
            if time.perf_counter() - start + pass_s > seconds:
                break
    finally:
        tracer.enabled = False
        tracer.uninstall()
    metrics = summarize(tracer, passes, list(CHECK_IDS))
    metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    detail = {"passes": passes, "unit_times_s": plain,
              "traced_unit_times_s": traced}
    return tally, metrics, detail


def selftest() -> int:
    """Smallest operation of every workload, untraced and traced, checked."""
    import hklab  # noqa: F401
    tracer = Tracer()
    tracer.install()
    ok = True
    try:
        for name, build in WORKLOADS.items():
            units = build(0, str(OUT), smallest=True)
            tally = Tally(units)
            times = tally.times()
            for u in units:
                tally.run(u, "plain", times)
                tracer.enabled = True
                tally.run(u, "traced", times, tracer)
                tracer.enabled = False
            good = tally.failed == 0 and tally.attempted > 0
            ok = ok and good
            print(f"{'ok' if good else 'FAIL'} {name}: "
                  f"{tally.attempted - tally.failed}/{tally.attempted} "
                  f"operations pass ({', '.join(u.name for u in units)})")
    finally:
        tracer.uninstall()
    per_layer = summarize(tracer, 1, list(CHECK_IDS))
    spans_ok = per_layer["torus.eigensolve_calls"] > 0
    print(f"{'ok' if spans_ok else 'FAIL'} tracer: {len(tracer.spans)} spans")
    return 0 if ok and spans_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hklab" / "__init__.py").is_file():
        print(f"no hklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        secs, _units = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": secs}))
        return 0
    run = measure_traced if args.trace else measure
    tally, metrics, detail = run(args.workload, args.seed, args.seconds)
    env = environment()
    print("environment " + json.dumps(env), file=sys.stderr)
    _write_json(f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
                ".json",
                {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "environment": env,
                 "metrics": metrics, "failures": tally.failures, **detail})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name == "reptheory.s":
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac"):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
