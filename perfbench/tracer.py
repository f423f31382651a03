"""Outside-in span tracer for the hklab benchmark.

The tracer wraps the public functions of the measured hklab modules at every
module-level binding: the defining module and every module that imported the
function by name (``hklab.torus.zero_one_star_projector``,
``hklab.cli.dirac_index``, ...).  Nothing under ``src/`` changes.  Spans
(name, start, end, parent, operation id) are kept in memory and written out
when the run ends; ``summarize`` turns them into the per-layer metrics.

A span's self time is its duration minus the part of that interval covered
by its child spans.  Every wrapped function belongs to one layer group, so
the group self times partition the traced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

MEASURED_MODULES = ("exterior", "fiber", "reptheory", "symmetry", "torus",
                    "cli", "report")

# Public functions with a named layer; every other public function of a
# measured module falls into DEFAULT_GROUP[module].
GROUP_OF = {
    "fiber.bidegree_projector": "fiber.projector",
    "fiber.bidegree_projectors": "fiber.projector",
    "fiber.zero_one_star_projector": "fiber.projector",
    "fiber.slice_basis": "fiber.projector",
    "symmetry.exp_antihermitian": "symmetry.fiberops",
    "symmetry.rho_sp1": "symmetry.fiberops",
    "symmetry.rho_j_sp1": "symmetry.fiberops",
    "symmetry.chi": "symmetry.fiberops",
    "symmetry.chi_k": "symmetry.fiberops",
    "symmetry.clifford": "symmetry.fiberops",
    "symmetry.clifford_2form": "symmetry.fiberops",
    "symmetry.ten_operators": "symmetry.fiberops",
    "symmetry.verify_identity": "symmetry.check",
    "torus.build_gauge_field": "torus.assembly",
    "torus.scalar_covariant_laplacian": "torus.assembly",
    "torus.covariant_laplacian": "torus.assembly",
    "torus.central_differences": "torus.assembly",
    "torus.lichnerowicz_laplacian": "torus.assembly",
    "torus.lattice_dirac": "torus.assembly",
    "torus.dolbeault_pair": "torus.assembly",
    "torus.slice_isometry": "torus.restrict",
    "torus.restrict": "torus.restrict",
    # spectrum's own body is the inline slice restriction and Hermitian check
    "torus.spectrum": "torus.restrict",
    "torus.lowest_eigenvalues": "torus.eigensolve",
    "torus.lowest_eigenpairs": "torus.eigensolve",
    "torus.dirac_index": "torus.index",
    "torus.lift_fiber": "torus.lift",
    "torus.theorem_1_1_details": "torus.identity",
    "torus.verify_theorem_1_1": "torus.identity",
    "torus.theorem_3_1_details": "torus.identity",
    "torus.verify_theorem_3_1": "torus.identity",
    "torus.corollary_1_2_details": "torus.identity",
    "torus.verify_corollary_1_2": "torus.identity",
    "torus.theorem_3_10_details": "torus.identity",
    "torus.verify_theorem_3_10": "torus.identity",
    "torus.exact_symmetry_details": "torus.identity",
    "torus.dirac_vs_lichnerowicz": "torus.identity",
}
DEFAULT_GROUP = {
    "exterior": "exterior.other",
    "fiber": "fiber.other",
    "reptheory": "reptheory",
    "symmetry": "symmetry.other",
    "torus": "torus.other",
    "cli": "cli",
    "report": "report.write",
}
# Lanczos runs through ARPACK; an eigensolve with an eigsh call below it ran
# the Lanczos backend, one without ran a dense solve.
LANCZOS = ("scipy.sparse.linalg", "eigsh")
EIGEN_ENTRY = {"torus.lowest_eigenvalues", "torus.lowest_eigenpairs",
               "scipy.sparse.linalg.eigsh"}


class Span:
    __slots__ = ("sid", "name", "group", "t0", "t1", "parent", "op",
                 "thread", "attrs")

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "group": self.group,
                "start": self.t0, "end": self.t1, "parent": self.parent,
                "op": self.op, "thread": self.thread, "attrs": self.attrs}


def _nnz(obj) -> int:
    """Stored entries of an assembled operator, field or list of them."""
    if hasattr(obj, "nnz"):
        return int(obj.nnz)
    if hasattr(obj, "matrix") and hasattr(obj.matrix, "nnz"):
        return int(obj.matrix.nnz)
    if isinstance(obj, (list, tuple)):
        return sum(_nnz(x) for x in obj)
    return 0


def _dense_bytes(obj) -> int:
    """Bytes of the arrays an object holds as attributes (one level deep)."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            total += int(getattr(item, "nbytes", 0) or 0)
            data = getattr(item, "data", None)
            if hasattr(item, "nnz") and data is not None:
                total += int(data.nbytes)
    return total


class Tracer:
    """Wraps hklab's public functions and records spans while enabled."""

    def __init__(self):
        self.enabled = False
        self.op = "setup"
        self.spans: list[Span] = []
        self.algebras: list = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import hklab  # noqa: F401  (loads every submodule)

        wrappers = {}
        for short in MEASURED_MODULES:
            mod = importlib.import_module(f"hklab.{short}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = f"{short}.{name}"
                group = GROUP_OF.get(key, DEFAULT_GROUP[short])
                wrappers[obj] = self._wrap(obj, key, group)
        for _name, mod in list(_hklab_modules()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        spla = importlib.import_module(LANCZOS[0])
        eigsh = getattr(spla, LANCZOS[1])
        self._patch(spla, LANCZOS[1],
                    self._wrap(eigsh, ".".join(LANCZOS), "torus.eigensolve"))
        exterior = importlib.import_module("hklab.exterior")
        cls = exterior.ExteriorAlgebra
        self._patch(cls, "__init__",
                    self._wrap(cls.__init__, "exterior.ExteriorAlgebra",
                               "exterior.build"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, key: str, group: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = key
            if key == "symmetry.verify_identity":
                cid = args[0] if args else kwargs.get("check_id")
                name = f"symmetry.check.{cid}"
            span = tracer._open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                tracer._stack().pop()
            tracer._annotate(span, args, kwargs, result)
            return result

        return traced

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, group: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            # a pool thread works on behalf of the main thread's open call
            parent = self._main_stack[-1].sid
        else:
            parent = None
        span = Span()
        span.name, span.group, span.parent = name, group, parent
        span.op, span.thread, span.attrs = self.op, threading.get_ident(), {}
        span.t1 = None
        with self._lock:
            span.sid = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _annotate(self, span: Span, args, kwargs, result) -> None:
        a = span.attrs
        if span.name in EIGEN_ENTRY:
            M = args[0] if args else kwargs.get("M", kwargs.get("A"))
            a["dim"] = int(M.shape[0])
            a["nnz"] = _nnz(M) or int(getattr(M, "size", 0))
            w = result[0] if isinstance(result, tuple) else result
            a["k"] = int(len(w))
        elif span.group == "torus.assembly":
            a["nnz"] = _nnz(result)
        elif span.name == "torus.dirac_index":
            import numpy as np
            w = np.sort(np.concatenate([result.even_eigenvalues,
                                        result.odd_eigenvalues]))
            # the near-zero cluster plus the gap eigenvalue decide the index
            a["useful"] = int(min(len(w), np.searchsorted(w, result.gap) + 1))
        elif span.name == "torus.spectrum":
            a["useful"] = int(len(result.eigenvalues))
        elif span.name == "exterior.ExteriorAlgebra":
            self.algebras.append(args[0])

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _hklab_modules():
    import sys
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "hklab" or name.startswith("hklab.")):
            yield name, mod


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(tracer: Tracer, passes: int, check_ids: list[str]) -> dict:
    """Per-layer metrics: times and counts per traced pass.

    ``exterior.*`` describe set-up (the algebras are built there) and are
    totals for the run rather than per pass.
    """
    spans = [s for s in tracer.spans if s.t1 is not None]
    by_id = {s.sid: s for s in spans}
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    own = {s.sid: (s.t1 - s.t0) - _union_length(
        [(c.t0, c.t1) for c in kids.get(s.sid, [])], s.t0, s.t1)
        for s in spans}

    def outermost(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].group == s.group:
                return False
            p = by_id[p].parent
        return True

    def lanczos_below(s: Span) -> bool:
        return s.name == ".".join(LANCZOS) or any(
            lanczos_below(c) for c in kids.get(s.sid, []))

    timed = [s for s in spans if s.op != "setup"]
    per = 1.0 / max(passes, 1)
    group_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in timed:
        group_s[s.group] = group_s.get(s.group, 0.0) + own[s.sid]
        if outermost(s):
            calls[s.group] = calls.get(s.group, 0) + 1

    eig = [s for s in timed if s.group == "torus.eigensolve" and outermost(s)]
    k_sum = sum(s.attrs.get("k", 0) for s in eig)
    useful = sum(s.attrs.get("useful", 0) for s in timed)
    asm = [s for s in timed if s.group == "torus.assembly" and outermost(s)]
    builds = [s for s in spans if s.group == "exterior.build"]

    m = {
        "exterior.build_s": sum(s.t1 - s.t0 for s in builds),
        "exterior.dense_bytes": sum(_dense_bytes(a) for a in
                                    {id(a): a for a in tracer.algebras}
                                    .values()),
    }
    for cid in check_ids:
        name = f"symmetry.check.{cid}"
        m[f"{name}_s"] = per * sum(s.t1 - s.t0 for s in timed
                                   if s.name == name)
    m.update({
        "symmetry.fiberops_s": per * group_s.get("symmetry.fiberops", 0.0),
        "symmetry.fiberops_calls": per * calls.get("symmetry.fiberops", 0),
        "symmetry.check_self_s": per * group_s.get("symmetry.check", 0.0),
        "symmetry.other_s": per * group_s.get("symmetry.other", 0.0),
        "fiber.projector_s": per * group_s.get("fiber.projector", 0.0),
        "fiber.projector_calls": per * calls.get("fiber.projector", 0),
        "fiber.other_s": per * group_s.get("fiber.other", 0.0),
        "reptheory.s": per * group_s.get("reptheory", 0.0),
        "torus.assembly_s": per * group_s.get("torus.assembly", 0.0),
        "torus.assembly_calls": per * len(asm),
        "torus.assembly_nnz": per * sum(s.attrs.get("nnz", 0) for s in asm),
        "torus.restrict_s": per * group_s.get("torus.restrict", 0.0),
        "torus.eigensolve_s": per * group_s.get("torus.eigensolve", 0.0),
        "torus.eigensolve_calls": per * len(eig),
        "torus.eigensolve_dim_max": max((s.attrs.get("dim", 0) for s in eig),
                                        default=0),
        "torus.eigensolve_nnz_sum": per * sum(s.attrs.get("nnz", 0)
                                              for s in eig),
        "torus.eigensolve_k_sum": per * k_sum,
        "torus.eigensolve_lanczos_calls":
            per * sum(1 for s in eig if lanczos_below(s)),
        "torus.eigensolve_dense_calls":
            per * sum(1 for s in eig if not lanczos_below(s)),
        "torus.eigensolve_useful_frac": useful / k_sum if k_sum else 0.0,
        "torus.index_s": per * group_s.get("torus.index", 0.0),
        "torus.identity_s": per * group_s.get("torus.identity", 0.0),
        "torus.lift_s": per * group_s.get("torus.lift", 0.0),
        "torus.other_s": per * group_s.get("torus.other", 0.0),
        "cli.self_s": per * group_s.get("cli", 0.0),
        "report.write_s": per * group_s.get("report.write", 0.0),
    })
    return m
