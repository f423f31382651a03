import os
from pathlib import Path

import numpy as np
import pytest

from hklab.fiber import standard_fiber

# CLI tests start `python -m hklab.cli` in subprocesses; let them import the
# same src/ tree as this process when the suite runs without PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def fiber1():
    return standard_fiber(1)


@pytest.fixture(scope="session")
def fiber2():
    return standard_fiber(2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def plane_solves(monkeypatch):
    """The fields of every library call of `plane_laplacians`, in order.

    Fields built before are dropped from `build_gauge_field`'s cache, so a
    field the test builds solves its planes while the spy watches."""
    from hklab import torus

    torus._gauge_field.cache_clear()
    calls = []
    planes = torus.plane_laplacians

    def spy(field):
        calls.append(field)
        return planes(field)

    monkeypatch.setattr(torus, "plane_laplacians", spy)
    return calls
