"""Shared fixtures: one full scenario simulated once per test session,
and a Ctrl-C in the middle of a serial sweep."""

import pytest

from repro import ScenarioConfig, simulate


@pytest.fixture(scope="session")
def scenario():
    """A full 13-letter scenario, sized to run in a few seconds."""
    return simulate(ScenarioConfig(seed=7, n_stubs=500, n_vps=900))


@pytest.fixture(scope="session")
def dataset(scenario):
    """The scenario's (uncleaned) Atlas dataset."""
    return scenario.atlas


@pytest.fixture
def interrupt_second_cell(monkeypatch):
    """Call it to make a sweep's second cell raise
    ``KeyboardInterrupt``, as a Ctrl-C would; every other cell runs as
    usual."""
    from .sweep.cell_faults import inject

    return lambda: inject(monkeypatch, 1, "raise", error=KeyboardInterrupt)
