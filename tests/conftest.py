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
    """Call it to make the second cell a sweep then simulates raise
    ``KeyboardInterrupt``, as a Ctrl-C would; every other cell runs as
    usual."""
    from repro.sweep import worker

    def arm():
        real = worker.simulate
        calls = []

        def simulate(config, substrate=None):
            calls.append(config.seed)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(config, substrate)

        monkeypatch.setattr(worker, "simulate", simulate)

    return arm
