"""One equality for sweep results: outputs and run state."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

from check_determinism import compare_runs  # noqa: E402


def assert_same_run(got, want):
    """Equal outputs and run state: arrays, records, quality, RSSAC
    dates, announcement and site states (``compare_runs``), and each
    letter's current routing table, route for route."""
    assert compare_runs(got, want) == []
    for letter in want.letters:
        assert (
            got.deployments[letter].routing().routes()
            == want.deployments[letter].routing().routes()
        )
