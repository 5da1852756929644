"""The per-bin executor as a reference for the batched engine.

``simulate()`` runs every scenario, controllers included, through
:func:`repro.scenario.batch.run_batched`.  :func:`simulate_per_bin`
runs the same scenario one bin at a time through
:func:`repro.scenario.engine._run_bin` -- the path only fault bins
take inside ``run_batched`` -- so tests can diff the two executors
array by array.
"""

import pytest

from repro.scenario import batch
from repro.scenario.engine import _run_bin, simulate


def _run_per_bin(state):
    for b in range(state.grid.n_bins):
        _run_bin(state, b)


def simulate_per_bin(config):
    """``simulate(config)`` on the per-bin path."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(batch, "run_batched", _run_per_bin)
        return simulate(config)
