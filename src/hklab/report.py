"""Check results and deterministic report serialization.

All floating output is fixed at %.12e so that artifacts written with the
same seed are byte-identical across runs.  Wall-clock timings are therefore
not stored in artifacts; the runtime_ms field is pinned to 0 and live
timings go to stderr.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

FLOAT_FMT = "%.12e"


@dataclass
class CheckResult:
    """Outcome of one named identity or theorem check."""

    check_id: str
    citation: str
    residual: float
    tolerance: float
    params: dict = field(default_factory=dict)
    runtime_ms: int = 0

    @property
    def verdict(self) -> bool:
        return self.residual <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "citation": self.citation,
            "params": dict(sorted(self.params.items())),
            "residual": FLOAT_FMT % self.residual,
            "tolerance": FLOAT_FMT % self.tolerance,
            "verdict": "pass" if self.verdict else "fail",
            "runtime_ms": self.runtime_ms,
        }

    def summary_line(self) -> str:
        word = "pass" if self.verdict else "FAIL"
        return (f"[{word}] {self.check_id}: residual {self.residual:.3e} "
                f"(tol {self.tolerance:.1e})")


def report_json(results: list[CheckResult]) -> str:
    return json.dumps([r.to_json_dict() for r in results], indent=2) + "\n"


def spectrum_csv_rows(zeta, slice_label: str, eigenvalues) -> list[str]:
    """Rows of the spectrum CSV: zeta_i,zeta_j,zeta_k,slice,rank,eigenvalue.

    The zeta_i,zeta_j,zeta_k,slice prefix is formatted once for all rows."""
    if "," in slice_label:
        raise ValueError("slice label must not contain commas")
    prefix = ",".join([*(FLOAT_FMT % c for c in zeta.as_array().tolist()),
                       slice_label])
    values = np.asarray(eigenvalues, dtype=float).tolist()
    return [f"{prefix},{rank},{FLOAT_FMT % ev}"
            for rank, ev in enumerate(values)]


SPECTRUM_CSV_HEADER = "zeta_i,zeta_j,zeta_k,slice,rank,eigenvalue"


def write_text(text: str, path: str | None = None, echo: bool = False) -> None:
    """Write an artifact to path (LF newlines); stdout if no path or echo."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if echo or not path:
        sys.stdout.write(text)
