"""Catchment shares conserve traffic at every announcement epoch.

The engine splits both legitimate and attack traffic across sites by
catchment share.  Conservation is the invariant the paper's load
accounting rests on: over the sources that *have* a route, shares sum
to exactly 1; sources without a route contribute nothing (their
traffic drops in transit, section 2.2), so totals never exceed 1.
The withdrawal sequence walks the prefix through a series of
announcement epochs -- exactly what the simulated controllers do --
and checks conservation at each one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.botnet import Botnet
from repro.attack.workload import legit_share_vector
from repro.netsim.topology import TopologyConfig, build_topology
from repro.rootdns.deployment import ActionKind, build_deployments
from repro.rootdns.letters import LETTERS_SPEC
from repro.util.rng import component_rng

#: K mixes global and local (IXP-peered) sites, so catchments include
#: the NO_EXPORT scopes where no-route sources actually occur.
LETTER = "K"


def _deployment(seed: int, n_stubs: int):
    topology = build_topology(
        TopologyConfig(n_stubs=n_stubs), component_rng(seed, "topology")
    )
    deployment = build_deployments(
        topology, letters={LETTER: LETTERS_SPEC[LETTER]}
    )[LETTER]
    return topology, deployment


def _assert_conserved(table, topology, deployment):
    stub_asns = topology.stub_asns
    vector, total = legit_share_vector(
        table, stub_asns, deployment.site_index
    )
    routed = sum(
        1 for asn in stub_asns if table.site_of(asn) is not None
    )
    # The vector and the scalar total are two views of one dict.
    assert vector.sum() == pytest.approx(total, abs=1e-12)
    # Each routed stub contributes exactly 1/N; nothing else does.
    assert total == pytest.approx(routed / len(stub_asns), abs=1e-12)
    assert (vector >= 0.0).all()
    assert total <= 1.0 + 1e-12
    if routed == len(stub_asns):
        assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stubs=st.integers(20, 50),
    data=st.data(),
)
def test_legit_shares_sum_to_one_per_epoch(seed, n_stubs, data):
    topology, deployment = _deployment(seed, n_stubs)
    order = data.draw(
        st.permutations(deployment.site_order), label="withdrawal order"
    )
    # Epoch 0: everything announced.  A global site is always up, so
    # every stub has a route and shares sum to exactly 1.
    table = deployment.prefix.routing()
    _assert_conserved(table, topology, deployment)
    assert legit_share_vector(
        table, topology.stub_asns, deployment.site_index
    )[1] == pytest.approx(1.0, abs=1e-12)
    # Subsequent epochs: withdraw one site at a time, as the policy
    # controllers do, and re-check conservation in each state.
    for epoch, code in enumerate(order, start=1):
        deployment.act(code, ActionKind.WITHDRAW, float(epoch), "policy")
        _assert_conserved(
            deployment.prefix.routing(), topology, deployment
        )


@settings(max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stubs=st.integers(20, 50),
    data=st.data(),
)
def test_botnet_shares_sum_to_routed_weight(seed, n_stubs, data):
    topology, deployment = _deployment(seed, n_stubs)
    withdrawn = data.draw(
        st.sets(st.sampled_from(deployment.site_order)),
        label="withdrawn sites",
    )
    for code in sorted(withdrawn):
        deployment.act(code, ActionKind.WITHDRAW, 0.0, "policy")
    table = deployment.prefix.routing()

    member_asns = data.draw(
        st.lists(
            st.sampled_from(topology.stub_asns),
            min_size=1, max_size=8, unique=True,
        ),
        label="botnet ASNs",
    )
    weights = data.draw(
        st.lists(
            st.floats(0.01, 10.0),
            min_size=len(member_asns), max_size=len(member_asns),
        ),
        label="botnet weights",
    )
    botnet = Botnet(np.array(member_asns), np.array(weights))

    shares = botnet.load_shares_by_site(table)
    routed_mask = np.array(
        [table.site_of(int(asn)) is not None for asn in botnet.asns]
    )
    routed_weight = float(botnet.weights[routed_mask].sum())
    assert all(share >= 0.0 for share in shares.values())
    total = sum(shares.values())
    # Bots with no route drop their traffic: the per-site shares sum
    # to exactly the routed weight, never more than 1.
    assert total == pytest.approx(routed_weight, abs=1e-12)
    assert total <= 1.0 + 1e-12
