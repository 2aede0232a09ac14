"""Fixtures shared by the test modules."""

import pytest

from euleralign import grid as grid_module


@pytest.fixture
def two_cpus(monkeypatch):
    """Split large passes in two even where this process has one CPU."""
    monkeypatch.setattr(grid_module, "_CPUS", max(grid_module._CPUS, 2))
