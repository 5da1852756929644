"""The letter registry's site-code picking against the per-site loop.

``_pick_codes`` draws every missing site's region with one
``rng.choice`` call and keeps the taken codes in a set.  The loop it
replaced (``letters_reference.pick_codes``) makes one scalar draw per
site and rescans the chosen list.  Hypothesis draws regional profiles
(including a region with no airports), counts from 0 to past the
airport table, pinned and excluded codes and seeds; both must pick the
same codes or raise the same error, and leave the generator in the
same state.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rootdns import letters
from repro.rootdns.letters import LETTERS_SPEC, _pick_codes
from repro.util.airports import AIRPORTS

from .letters_reference import pick_codes

CODES = sorted(AIRPORTS)
#: Every airport region, plus one that has no airport at all.
REGIONS = sorted({ap.region for ap in AIRPORTS.values()}) + ["XX"]

profiles = st.dictionaries(
    st.sampled_from(REGIONS),
    st.floats(min_value=0.01, max_value=1.0),
    min_size=1,
)
code_lists = st.lists(st.sampled_from(CODES + ["ZZZ"]), max_size=8)


def _outcome(pick, seed, profile, count, must_include, exclude):
    rng = np.random.default_rng(seed)
    try:
        codes = pick(rng, profile, count, must_include, exclude)
    except ValueError as exc:
        codes = f"ValueError: {exc}"
    return codes, rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    profile=profiles,
    count=st.integers(0, len(AIRPORTS) + 10),
    must_include=code_lists,
    exclude=code_lists,
)
# A one-region profile that runs out of its region's airports.
@example(
    seed=1, profile={"OC": 1.0}, count=20, must_include=[], exclude=[]
)
# A region with no airports: every draw falls back.
@example(
    seed=2, profile={"XX": 1.0}, count=5, must_include=[], exclude=[]
)
# The table runs out part-way through the draws.
@example(
    seed=3, profile={"EU": 0.5, "NA": 0.5}, count=len(AIRPORTS) + 1,
    must_include=["FRA", "AMS"], exclude=["LHR"],
)
def test_pick_codes_matches_the_per_site_loop(
    seed, profile, count, must_include, exclude
):
    args = (seed, profile, count, tuple(must_include), tuple(exclude))
    assert _outcome(_pick_codes, *args) == _outcome(pick_codes, *args)


def test_exhausted_region_falls_back_to_other_regions():
    oceania = [c for c in CODES if AIRPORTS[c].region == "OC"]
    codes = _pick_codes(np.random.default_rng(1), {"OC": 1.0}, 20)
    assert sorted(codes[: len(oceania)]) == oceania
    assert all(AIRPORTS[c].region != "OC" for c in codes[len(oceania):])


def test_registry_equals_the_reference_registry(monkeypatch):
    monkeypatch.setattr(letters, "_pick_codes", pick_codes)
    assert letters._build_letters() == LETTERS_SPEC
