"""Pinned controller decisions.

Two controller scenarios must keep producing exactly the outputs
recorded below: every ``result_arrays`` array (digested like
``perfbench/workloads.py`` digests a cell) and each letter's count of
route changes.  The batched-vs-per-bin tests compare two executors of
the same controller code, so they cannot see a change in what a
controller decides; these pins can.  The literals are regenerated only
for an intentional change to controller or engine semantics, exactly
as the golden fixture is.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.defense import GreedyShedController, OracleController
from repro.rootdns import ATTACKED_LETTERS
from repro.scenario.arrays import result_arrays

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

from check_determinism import FAULT_PLAN  # noqa: E402


def oracle_config():
    """Three-site oracle searches beside the six-fault plan."""
    letters = ("E", "F", "H", "K")
    return ScenarioConfig(
        seed=7, n_stubs=100, n_vps=60, letters=letters, include_nl=True,
        faults=FAULT_PLAN,
        controllers={
            letter: OracleController(max_withdrawals=3)
            for letter in letters
        },
    )


def greedy_config():
    """An eager GreedyShed on every attacked letter."""
    return ScenarioConfig(
        seed=7, n_stubs=100, n_vps=60, include_nl=True,
        controllers={
            letter: GreedyShedController(calm_bins=2, safety=1.1)
            for letter in ATTACKED_LETTERS
        },
    )


#: scenario -> (digest of every output array, route changes per letter)
PINS = {
    "oracle": (
        oracle_config,
        "8ee16ecc33b97f12",
        {"E": 28, "F": 0, "H": 1, "K": 8},
    ),
    "greedy": (
        greedy_config,
        "40fd530139648fb7",
        {
            "A": 0, "B": 0, "C": 4, "D": 0, "E": 44, "F": 40, "G": 12,
            "H": 1, "I": 44, "J": 44, "K": 42, "L": 0, "M": 0,
        },
    ),
}


def digest_arrays(arrays):
    """Hex digest of named arrays: names, dtypes, shapes and bytes."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINS))
def test_controller_outputs_are_pinned(name):
    make_config, digest, route_changes = PINS[name]
    result = simulate(make_config())
    assert {
        letter: sum(
            1 for record in result.deployments[letter].actions
            if record.changed_asns
        )
        for letter in result.letters
    } == route_changes
    assert digest_arrays(result_arrays(result)) == digest
