"""The analyses decode observation matrices only through
``LetterObservations``.

Its ``site_index`` is the one site-code lookup, so every analysis that
takes a site code fails the same way on a code its letter does not
have; and no ``repro.core`` module reads the response sentinels, the
site-code list or the server matrix itself.
"""

import pathlib

import pytest

import repro.core
from repro.core import (
    answering_servers_per_bin,
    flip_destinations,
    server_reachability,
    server_rtt_series,
    shed_detected,
    site_rtt_figure,
    site_rtt_series,
    vp_timelines,
)
from repro.util import EVENT_1

#: Every analysis that takes a site code, called on K with *site*.
SITE_ANALYSES = {
    "flip_destinations": lambda ds, site: flip_destinations(
        ds, "K", site, (6.8, 9.5)
    ),
    "vp_timelines": lambda ds, site: vp_timelines(
        ds, "K", ["LHR", site], EVENT_1
    ),
    "site_rtt_series": lambda ds, site: site_rtt_series(ds, "K", site),
    "site_rtt_figure": lambda ds, site: site_rtt_figure(
        ds, "K", ["AMS", site]
    ),
    "server_rtt_series": lambda ds, site: server_rtt_series(ds, "K", site),
    "server_reachability": lambda ds, site: server_reachability(
        ds, "K", site
    ),
    "answering_servers_per_bin": lambda ds, site: answering_servers_per_bin(
        ds, "K", site
    ),
    "shed_detected": lambda ds, site: shed_detected(
        ds, "K", site, (6.8, 9.5)
    ),
}

#: Modules allowed to read the encoding: cleaning's hijack detection
#: reads bogus replies, and binning writes the matrices.
ENCODING_MODULES = {"cleaning.py", "binning.py"}


@pytest.mark.parametrize("analysis", sorted(SITE_ANALYSES))
def test_unknown_site_raises(dataset, analysis):
    with pytest.raises(KeyError, match="K-Root has no site 'ZZZ'"):
        SITE_ANALYSES[analysis](dataset, "ZZZ")


def test_core_reads_matrices_through_observations():
    core = pathlib.Path(repro.core.__file__).parent
    offenders = [
        f"{path.name}: {needle}"
        for path in sorted(core.glob("*.py"))
        if path.name not in ENCODING_MODULES
        for needle in ("RESP_", "site_codes.index(", "np.unique(obs.server")
        if needle in path.read_text(encoding="utf-8")
    ]
    assert not offenders
