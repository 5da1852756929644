"""The route delta between two tables does not depend on their backing.

``RoutingTable.changes_from`` reports the ASes whose best route differs
between two announcement states -- the update activity a collector
peer sees when a site flaps.  It compares two array-backed kernel
tables elementwise and falls back to a per-route dict walk whenever
either side is dict-backed (a :mod:`repro.netsim.bgp_reference`
table); both paths, and every mixed pairing, must report the changed
set the reference pair reports.  Hypothesis draws the topology, an
origin pool with unique sites and the withdrawn site.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import bgp_reference
from repro.netsim.bgp import propagate

from .test_anycast_edit_chain import graph_and_origins


class TestDeltaMatchesFull:
    @settings(max_examples=60, deadline=None)
    @given(data=graph_and_origins(), edits=st.data())
    def test_changes_from_cross_backing(self, data, edits):
        # changes_from must agree whichever implementation produced
        # either side: kernel-vs-kernel, kernel-vs-reference both ways,
        # and the reference pair must all report the same changed set.
        graph, pool = data
        announced = {o.site: o for o in pool}
        # Canonical (site-sorted) order on both sides: announcement
        # order decides tie-breaks, so the kernel- and
        # reference-produced "before" tables must agree on it for the
        # changed-set comparison to be apples-to-apples.
        before = [announced[s] for s in sorted(announced)]
        site = edits.draw(st.sampled_from(sorted(announced)), label="flap")
        after = [o for o in before if o.site != site]
        kernel_before = propagate(graph, before)
        kernel_after = propagate(graph, after)
        ref_before = bgp_reference.propagate(graph, before)
        ref_after = bgp_reference.propagate(graph, after)
        expected = ref_after.changes_from(ref_before)
        assert kernel_after.changes_from(kernel_before) == expected
        assert kernel_after.changes_from(ref_before) == expected
        assert ref_after.changes_from(kernel_before) == expected
        assert ref_after.changes_from(kernel_after) == set()
        assert kernel_after.changes_from(ref_after) == set()
