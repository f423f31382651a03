"""The benchmark's workloads run against this tree: every workload's
smallest units pass their own checks, so a change that breaks what the
benchmark calls (a module, function, CLI flag or result it reads) fails
here rather than only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    """perfbench/workloads.py, loaded from its file without writing
    bytecode beside it."""
    spec = importlib.util.spec_from_file_location("_hklab_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_units_pass_their_checks(tmp_path, name):
    """Each unit runs twice, as a benchmark pass does, so the zeta sweep's
    byte-identity check compares two outputs."""
    units = workloads.WORKLOADS[name](0, str(tmp_path), smallest=True)
    assert units
    for unit in units:
        for _ in range(2):
            verdicts = unit.check(unit.run())
            assert verdicts and all(verdicts), (unit.name, verdicts)
    assert not list(tmp_path.iterdir())
