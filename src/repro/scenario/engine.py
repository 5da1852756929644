"""The simulation engine: two days of Root DNS under attack.

For every ten-minute bin the engine:

1. computes each letter's per-site offered load -- attack volume routed
   by the botnet's catchments plus legitimate traffic (baseline +
   letter-flip retries from the previous bin);
2. evaluates facility spillover (collateral damage) across co-located
   services;
3. evaluates each site's overload (loss fraction, queueing delay);
4. samples every vantage point's observation of every letter;
5. accumulates RSSAC-002 counters and the .nl series;
6. runs each letter's policy loop (withdraw / partial withdraw /
   recover / standby), whose routing effects apply from the next bin.

Afterwards it derives the BGPmon route-change series from each
prefix's change log and packages everything into a
:class:`ScenarioResult`.

The expensive pre-loop artifacts -- the AS topology (with the site
host ASes wired in), the letter deployments, the Atlas VP population,
the botnet placement, and the BGPmon collector peers -- are bundled
into a :class:`Substrate`.  :func:`simulate` builds one on the fly,
but callers running *many* scenarios that share those artifacts (the
sweep engine, :mod:`repro.sweep`) build it once via
:func:`build_substrate` and pass it back in: the substrate is
:meth:`~Substrate.reset` to its post-construction state before every
run, which is proven bit-identical to a fresh build by
``tests/scenario/test_substrate.py`` and the sweep golden tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..atlas.probing import LetterProber, SiteBinConditions
from ..devtools import sanitize
from ..atlas.vps import build_vps
from ..attack.botnet import Botnet, build_botnet
from ..attack.events import active_event, attack_rate
from ..attack.workload import (
    BaselineWorkload,
    legit_share_vector,
    retry_spill,
)
from ..bgpmon.collector import BgpCollectors, build_collectors
from ..datasets.observations import AtlasDataset, VantagePointTable
from ..dns.message import make_query
from ..faults.quality import DataQuality
from ..faults.runtime import FaultRuntime
from ..netsim.topology import Topology, build_topology
from ..rootdns.deployment import LetterDeployment, build_deployments
from ..rootdns.facility import FacilityRegistry
from ..rootdns.letters import LETTERS_SPEC, LetterSpec
from ..rssac.reports import (
    DayAccumulator,
    DailyReport,
    build_baseline_report,
    build_daily_report,
)
from ..util.rng import RngFactory
from ..util.timegrid import Interval, TimeGrid
from .config import ScenarioConfig
from .nl import NlService, register_nl_nodes

if TYPE_CHECKING:
    from ..defense.controllers import Controller
    from ..netsim.bgp import RoutingTable

#: Utilisation above which a site counts as overloaded for server-
#: behaviour purposes (shedding, skew).
OVERLOAD_RHO = 1.05

#: Shared facility ingress relative to tenant capacity (section 3.6);
#: facilities are sized for normal loads, not 100x events.
FACILITY_INGRESS_FACTOR = 0.1

#: Dates of the canonical simulated window and its baseline week.
EVENT_DATES = ("2015-11-30", "2015-12-01")
BASELINE_DATES = (
    "2015-11-23", "2015-11-24", "2015-11-25", "2015-11-26",
    "2015-11-27", "2015-11-28", "2015-11-29",
)


def window_dates(
    grid: TimeGrid, baseline_days: int = 7
) -> tuple[list[str], list[str]]:
    """(day dates, baseline dates) of the RSSAC reports for *grid*.

    Day *i* is the 24 h starting *i* days after ``grid.start``; a
    trailing partial day gets its own report, so every bin falls in
    exactly one day.  The *baseline_days* dates precede the window,
    oldest first.
    """
    import datetime as _dt

    start = _dt.datetime.fromtimestamp(grid.start, tz=_dt.timezone.utc)
    days = [
        (start + _dt.timedelta(days=i)).strftime("%Y-%m-%d")
        for i in range(-(-grid.seconds // 86_400))
    ]
    baseline = [
        (start - _dt.timedelta(days=i)).strftime("%Y-%m-%d")
        for i in range(baseline_days, 0, -1)
    ]
    return days, baseline


@dataclass(slots=True)
class _EpochData:
    """Per-(letter, routing epoch) precomputed arrays.

    Everything here depends only on the routing table, so it is
    computed once per distinct announcement state a letter visits
    (:meth:`AnycastPrefix.state_key`) and reused by every bin of that
    epoch; the per-bin work in pass 1 reduces to scalar-times-vector
    arithmetic.
    """

    epoch: int                # index into LetterTruth.stub_site_by_epoch
    bot_share: np.ndarray     # attack share per site (site order)
    legit_share: np.ndarray   # legitimate share per site (site order)
    legit_total: float        # routed legitimate share (<= 1)


@dataclass(slots=True)
class LetterTruth:
    """Ground-truth per-bin site series for one letter (site order).

    ``epoch_of_bin``/``stub_site_by_epoch`` record the routing history
    at stub-AS granularity: bin *b*'s catchment for stub *i* is
    ``stub_site_by_epoch[epoch_of_bin[b], i]`` (site index, -1 for no
    route).  The recursive-resolver layer replays queries against this.
    """

    site_codes: list[str]
    offered_qps: np.ndarray   # (n_bins, n_sites)
    loss: np.ndarray          # (n_bins, n_sites)
    delay_ms: np.ndarray      # (n_bins, n_sites)
    announced: np.ndarray     # bool (n_bins, n_sites)
    legit_offered_qps: np.ndarray = None  # (n_bins,)
    legit_served_qps: np.ndarray = None   # (n_bins,)
    epoch_of_bin: np.ndarray = None       # (n_bins,) int
    stub_site_by_epoch: np.ndarray = None # (n_epochs, n_stubs) int16

    def stub_site(self, bin_index: int, stub_index: int) -> int:
        """Site index serving stub *stub_index* in bin *bin_index*."""
        epoch = int(self.epoch_of_bin[bin_index])
        return int(self.stub_site_by_epoch[epoch, stub_index])


@dataclass(slots=True)
class ScenarioResult:
    """Everything the analysis pipeline consumes."""

    config: ScenarioConfig
    grid: TimeGrid
    topology: Topology
    deployments: dict[str, LetterDeployment]
    facilities: FacilityRegistry
    botnet: Botnet
    collectors: BgpCollectors
    atlas: AtlasDataset
    rssac: dict[str, tuple[DailyReport, ...]]
    route_changes: dict[str, np.ndarray]
    truth: dict[str, LetterTruth]
    nl: NlService | None
    duplicate_ratio: float = 0.0
    letters: list[str] = field(default_factory=list)
    #: What degraded in this run (injected faults, missing reports);
    #: empty means full fidelity.
    quality: DataQuality = field(default_factory=DataQuality)

    def vps(self) -> VantagePointTable:
        return self.atlas.vps

    def event_intervals(self) -> tuple[Interval, ...]:
        """The attack intervals of this scenario's events."""
        return tuple(e.interval for e in self.config.events)

    def event_mask(self) -> np.ndarray:
        """Boolean per-bin mask over this scenario's own events."""
        return self.grid.event_mask(self.event_intervals())


def _site_flags(dep: LetterDeployment) -> tuple[list[bool], list[bool]]:
    """Each site's ``(announced, partial)`` flags in site order, as a
    controller observes them; only control actions and faults change
    them."""
    return (
        [dep.prefix.is_announced(code) for code in dep.site_order],
        [dep.states[code].partial for code in dep.site_order],
    )


def _run_controller(
    controller: Controller,
    dep: LetterDeployment,
    bin_index: int,
    capacity: np.ndarray,
    offered: np.ndarray,
    loss: np.ndarray,
    flags: tuple[list[bool], list[bool]],
    timestamp: float,
) -> bool:
    """Drive one defense controller for one letter-bin.

    *offered* and *loss* are the bin's per-site rows (site order),
    *flags* the letter's :func:`_site_flags`.  Returns whether the
    controller issued any action.
    """
    from ..defense.controllers import Action, ActionKind, OracleController
    from ..defense.observation import LetterObservation, SiteObservation

    codes = dep.site_order
    announced, partial = flags
    sites = tuple(
        SiteObservation(
            code=code,
            capacity_qps=cap,
            accepted_qps=accepted,
            dropped_qps=dropped,
            announced=up,
            partial=part,
        )
        for code, cap, accepted, dropped, up, part in zip(
            codes,
            capacity.tolist(),
            (offered * (1.0 - loss)).tolist(),
            (offered * loss).tolist(),
            announced,
            partial,
        )
    )
    observation = LetterObservation(
        letter=dep.letter, bin_index=bin_index, sites=sites
    )
    if isinstance(controller, OracleController):
        controller.set_truth(dict(zip(codes, offered.tolist())))
    acted = False
    for action in controller.decide(observation):
        if not isinstance(action, Action):
            raise TypeError(f"controller returned {action!r}")
        acted = True
        if action.kind is ActionKind.WITHDRAW:
            dep.prefix.withdraw(action.site, timestamp)
        elif action.kind is ActionKind.ANNOUNCE:
            dep.prefix.announce(action.site, timestamp)
        elif action.kind is ActionKind.PARTIAL:
            dep.set_partial(action.site, True, timestamp)
        elif action.kind is ActionKind.RESTORE:
            dep.set_partial(action.site, False, timestamp)
    return acted


@dataclass(slots=True)
class _RunState:
    """Everything the bin loop reads and mutates, bundled.

    Shared by the per-bin path (:func:`_run_bin`, which runs the bins
    a fault perturbs) and the segment-batched executor
    (:mod:`repro.scenario.batch`, which runs every other bin, with or
    without controllers), so both operate on literally the same state
    objects and interleave freely.
    """

    config: ScenarioConfig
    #: The config's pluggable controllers that actually decide; letters
    #: not listed run the deployment's built-in ``apply_policies``.
    controllers: dict[str, Controller]
    grid: TimeGrid
    topology: Topology
    facilities: FacilityRegistry
    deployments: dict[str, LetterDeployment]
    letters: list[str]
    botnet: Botnet
    nl: NlService | None
    faults: FaultRuntime | None
    probers: dict[str, LetterProber]
    workloads: dict[str, BaselineWorkload]
    truth: dict[str, LetterTruth]
    epoch_catchments: dict[str, list[np.ndarray]]
    epoch_cache: dict[tuple[str, tuple], _EpochData]
    accumulators: dict[str, dict[str, DayAccumulator]]
    day_dates: list[str]
    buffer_caps: dict[str, np.ndarray]
    qname_sizes: dict[str, int]
    #: Letter-flip retry feedback: extra legitimate load per letter in
    #: the *next* bin, updated at the end of every bin.
    spill: dict[str, float]


def _epoch_for(
    state: _RunState, letter: str
) -> tuple["RoutingTable", _EpochData]:
    """The letter's current routing table and per-epoch arrays.

    Cache misses append the epoch's stub catchment and assign the next
    epoch index, so epoch numbering follows each letter's first-visit
    order.  Epochs are keyed on the announcement state, not on
    ``table.version``: a state the routing-table LRU evicted and
    recomputed comes back under a new version, and keying on that
    would number one state twice.  So no cache bound can change
    ``epoch_of_bin`` or ``stub_site_by_epoch``.
    """
    dep = state.deployments[letter]
    table = dep.routing()
    key = (letter, dep.prefix.state_key())
    ed = state.epoch_cache.get(key)
    if ed is None:
        legit_share, legit_total = legit_share_vector(
            table, state.topology.stub_asns, dep.site_index
        )
        ed = _EpochData(
            epoch=len(state.epoch_catchments[letter]),
            bot_share=state.botnet.site_share_vector(
                table, dep.site_index
            ),
            legit_share=legit_share,
            legit_total=legit_total,
        )
        state.epoch_catchments[letter].append(
            table.sites_of(state.topology.stub_asns, dep.site_index)
        )
        state.epoch_cache[key] = ed
    return table, ed


def _run_bin(state: _RunState, b: int) -> None:
    """One bin of the reference per-bin path (passes 1-3)."""
    config = state.config
    grid = state.grid
    letters = state.letters
    deployments = state.deployments
    faults = state.faults
    nl = state.nl
    truth = state.truth
    spill = state.spill

    ts = grid.bin_start(b)
    tc = ts + grid.bin_seconds / 2.0
    date = state.day_dates[b * grid.bin_seconds // 86_400]
    event = active_event(config.events, tc)

    # Incidental failures scheduled for this bin (session resets
    # flap announcements before the routing tables are read).
    if faults is not None:
        faults.apply_routing(b, float(ts))

    # --- Pass 1: offered load per site, across all letters. -------
    offered_by_label: dict[str, float] = {}
    per_letter: dict[str, dict] = {}
    for letter in letters:
        dep = deployments[letter]
        table, ed = _epoch_for(state, letter)
        truth[letter].epoch_of_bin[b] = ed.epoch

        attack_qps = attack_rate(config.events, letter, tc)
        legit_qps = state.workloads[letter].rate_at(tc)
        spill_qps = spill[letter]

        attack_site = attack_qps * ed.bot_share
        legit_site = (legit_qps + spill_qps) * ed.legit_share
        offered = attack_site + legit_site
        labels = dep.site_labels
        for i in np.flatnonzero(offered > 0):
            offered_by_label[labels[i]] = float(offered[i])
        per_letter[letter] = {
            "table": table,
            "ed": ed,
            "attack_site": attack_site,
            "legit_site": legit_site,
            "offered": offered,
            "attack_qps": attack_qps,
            "legit_qps": legit_qps,
            "spill_qps": spill_qps,
        }

    nl_offered: dict[str, float] | None = None
    if nl is not None:
        nl_offered = nl.node_offered(tc)
        offered_by_label.update(nl_offered)

    # --- Pass 2: facility spillover. -------------------------------
    facility_extra = state.facilities.spillover(offered_by_label)

    # --- Pass 3: per-letter outcomes, probing, policies. -----------
    new_spill_sources: dict[str, float] = {}
    for letter in letters:
        dep = deployments[letter]
        data = per_letter[letter]
        capacity = dep.capacity_vector
        if faults is not None:
            capacity = faults.capacity(letter, b, capacity)
        offered = data["offered"]
        rho, loss, delay = config.overload.evaluate(offered, capacity)
        delay = np.minimum(delay, state.buffer_caps[letter])

        extra = np.array(
            [
                facility_extra.get(label, 0.0)
                for label in dep.site_labels
            ]
        )
        combined_loss = 1.0 - (1.0 - loss) * (1.0 - extra)
        overloaded = rho > OVERLOAD_RHO

        conditions = SiteBinConditions(
            loss=combined_loss,
            delay_ms=delay,
            overloaded=overloaded,
        )
        state.probers[letter].record_bin(b, data["table"], conditions)

        t = truth[letter]
        t.offered_qps[b] = offered
        t.loss[b] = combined_loss
        t.delay_ms[b] = delay
        t.announced[b] = dep.announced_mask()

        # RSSAC accumulation: what the servers accepted.
        accepted_frac = 1.0 - combined_loss
        attack_accepted = float(
            (data["attack_site"] * accepted_frac).sum()
        )
        legit_accepted = float(
            (data["legit_site"] * accepted_frac).sum()
        )
        legit_offered = data["legit_qps"] + data["spill_qps"]
        t.legit_offered_qps[b] = legit_offered
        t.legit_served_qps[b] = legit_accepted
        if legit_offered > 0:
            spill_fraction = data["spill_qps"] / legit_offered
        else:
            spill_fraction = 0.0
        acc = state.accumulators[letter][date]
        qname_payload = None
        resp_payload = None
        if event is not None and data["attack_qps"] > 0:
            qname_payload = state.qname_sizes.get(event.qname)
            if qname_payload is None:
                qname_payload = make_query(0, event.qname).wire_size
                state.qname_sizes[event.qname] = qname_payload
            resp_payload = event.response_wire_bytes - 40
        acc.add_bin(
            legit_accepted=legit_accepted * (1.0 - spill_fraction),
            spill_accepted=legit_accepted * spill_fraction,
            attack_accepted=attack_accepted,
            bin_seconds=grid.bin_seconds,
            attack_query_payload=qname_payload,
            attack_response_payload=resp_payload,
        )

        # Letter flips: legitimate queries lost here are retried at
        # the other letters next bin.
        lost_legit = float(
            (data["legit_site"] * combined_loss).sum()
        )
        unrouted = 1.0 - data["ed"].legit_total
        lost_legit += max(0.0, unrouted) * legit_offered
        new_spill_sources[letter] = lost_legit

        # Control loop (affects routing from the next bin): either
        # the deployment's built-in static policies or a pluggable
        # defense controller (repro.defense).
        controller = state.controllers.get(letter)
        if controller is None:
            dep.apply_policies(
                rho,
                letter_under_attack=data["attack_qps"] > 0,
                timestamp=float(ts + grid.bin_seconds),
            )
        else:
            _run_controller(
                controller, dep, b, capacity, offered, combined_loss,
                _site_flags(dep), float(ts + grid.bin_seconds),
            )

    if nl is not None:
        nl.record_bin(b, facility_extra, offered=nl_offered)

    state.spill = retry_spill(new_spill_sources, letters)


#: Config fields that determine the substrate (everything built before
#: the bin loop).  Fields absent here -- attack events, the overload
#: model, the observation window, controllers, faults -- only shape
#: the run itself, so scenarios differing in them can share a
#: substrate.
_SUBSTRATE_FIELDS = (
    "seed",
    "n_stubs",
    "n_vps",
    "letters",
    "topology",
    "vps",
    "botnet",
    "bgpmon",
    "custom_letters",
    "include_nl",
    "nl",
)


def _freeze(value: object) -> object:
    """A hashable, equality-faithful token for one config value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _freeze(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return tuple(
            (k, _freeze(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    return value


def substrate_signature(config: ScenarioConfig) -> tuple[object, ...]:
    """A hashable key identifying the substrate *config* implies.

    Two configs with equal signatures build bit-identical substrates;
    the sweep engine's per-worker cache is keyed on this.
    """
    return tuple(
        _freeze(getattr(config, name)) for name in _SUBSTRATE_FIELDS
    )


@dataclass(slots=True)
class Substrate:
    """The pre-loop artifacts one or more scenario runs share.

    Holds the AS topology (site host ASes included), the facility
    registry, the letter deployments, the Atlas VP population, the
    botnet placement, and the BGPmon collector peers.  The topology,
    VP, botnet, and collector tables are immutable during a run; the
    deployments (announcement state, policy state, change logs) are
    not, so :meth:`reset` restores them to their post-construction
    state before each reuse.  Pure caches (routing tables per
    announcement state in each prefix's LRU, per-origin distance
    rows) are deliberately kept across resets -- they are functions of
    immutable inputs, and reusing them is what makes replicate runs
    cheap.
    """

    signature: tuple[object, ...]
    topology: Topology
    facilities: FacilityRegistry
    deployments: dict[str, LetterDeployment]
    specs: dict[str, LetterSpec]
    letters: list[str]
    vps: VantagePointTable
    botnet: Botnet
    collectors: BgpCollectors

    def reset(self) -> None:
        """Restore every mutable piece to its post-construction state."""
        for letter in self.letters:
            self.deployments[letter].reset()


def substrate_constant_arrays(
    substrate: Substrate,
) -> list[tuple[str, np.ndarray]]:
    """Every constant array of *substrate*, as ordered (name, array)
    pairs with stable path-like names.

    This is the shared-constant half of the substrate's serialization
    split: the arrays listed here are immutable for the lifetime of
    the substrate (they are exactly the arrays
    :func:`repro.devtools.sanitize.freeze_substrate` locks, plus the
    compiled CSR graph view and the AS-graph geometry/distance memos),
    so the zero-copy sweep layer (:mod:`repro.sweep.shm`) exports them
    once into shared memory and every worker maps them read-only.
    Everything *not* listed -- deployment announcement state, change
    logs, routing caches -- is per-cell-mutable state that each worker
    owns privately.

    The compiled graph view is forced into existence here so that a
    substrate exported right after :func:`build_substrate` ships its
    CSR arrays; forcing a pure cache cannot change any output.
    """
    pairs: list[tuple[str, np.ndarray]] = []
    vps = substrate.vps
    for name in (
        "ids", "asns", "lats", "lons", "regions", "firmware", "hijacked",
    ):
        pairs.append((f"vps/{name}", getattr(vps, name)))
    pairs.append(("botnet/asns", substrate.botnet.asns))
    pairs.append(("botnet/weights", substrate.botnet.weights))
    pairs.append(("collectors/peer_asns", substrate.collectors.peer_asns))
    for letter in substrate.letters:
        deployment = substrate.deployments[letter]
        pairs.append(
            (f"deployments/{letter}/capacity", deployment.capacity_vector)
        )
        pairs.append(
            (
                f"deployments/{letter}/fastpath_thresholds",
                deployment._fastpath_thresholds,
            )
        )
    graph = substrate.topology.graph
    compiled = graph.compiled()
    for name in compiled.array_fields():
        pairs.append((f"graph/csr/{name}", getattr(compiled, name)))
    _, lats, lons = graph.coordinate_arrays()
    pairs.append(("graph/coords/lats", lats))
    pairs.append(("graph/coords/lons", lons))
    memo = graph.distance_memo()
    for key in sorted(memo):
        pairs.append((f"graph/distance/{key}", memo[key]))
    return pairs


def build_substrate(config: ScenarioConfig) -> Substrate:
    """Build the shared pre-loop artifacts for *config*.

    Draws exactly the streams a plain :func:`simulate` call would
    (``topology``, ``atlas.vps``, ``attack.botnet``, ``bgpmon.peers``),
    so a substrate-reusing run is bit-identical to a standalone one.
    """
    rngs = RngFactory(config.seed)
    topology = build_topology(
        config.topology_config(), rngs.get("topology")
    )
    facilities = FacilityRegistry(
        ingress_factor=FACILITY_INGRESS_FACTOR
    )
    specs = (
        config.custom_letters
        if config.custom_letters is not None
        else LETTERS_SPEC
    )
    if config.letters is not None:
        specs = {letter: specs[letter] for letter in config.letters}
    deployments = build_deployments(topology, facilities, specs)
    letters = sorted(deployments)

    vps = build_vps(topology, config.vp_config(), rngs.get("atlas.vps"))
    botnet = build_botnet(topology, config.botnet, rngs.get("attack.botnet"))
    collectors = build_collectors(
        topology, config.bgpmon, rngs.get("bgpmon.peers")
    )
    if config.include_nl:
        # Registration order matters for the facility spillover walk:
        # .nl nodes join their facilities after every root site, same
        # as the pre-substrate engine did.
        register_nl_nodes(facilities, config.nl)
    substrate = Substrate(
        signature=substrate_signature(config),
        topology=topology,
        facilities=facilities,
        deployments=deployments,
        specs=specs,
        letters=letters,
        vps=vps,
        botnet=botnet,
        collectors=collectors,
    )
    # Under REPRO_SANITIZE=1 the constant arrays every run shares are
    # locked read-only, so an in-place mutation raises at the write
    # site instead of corrupting a sibling sweep cell.
    if sanitize.enabled():
        sanitize.freeze_substrate(substrate)
    return substrate


def simulate(
    config: ScenarioConfig, substrate: Substrate | None = None
) -> ScenarioResult:
    """Run the full scenario and return the dataset bundle.

    With a *substrate* (see :func:`build_substrate`), the expensive
    pre-loop artifacts are reused instead of rebuilt; the substrate is
    reset first, and the outputs are bit-identical to a fresh build.
    The substrate must have been built for a config with the same
    :func:`substrate_signature`.  The result holds its own copy of the
    deployments' run state (:meth:`LetterDeployment.snapshot`), so
    reusing the substrate leaves earlier results intact.
    """
    if substrate is None:
        substrate = build_substrate(config)
    elif substrate.signature != substrate_signature(config):
        raise ValueError(
            "substrate was built for a different scenario "
            "configuration (substrate signatures differ)"
        )
    else:
        substrate.reset()
    rngs = RngFactory(config.seed)
    grid = config.grid()

    topology = substrate.topology
    facilities = substrate.facilities
    specs = substrate.specs
    deployments = substrate.deployments
    letters = substrate.letters
    vps = substrate.vps
    botnet = substrate.botnet
    collectors = substrate.collectors
    nl = (
        NlService(config.nl, grid)
        if config.include_nl
        else None
    )
    # An empty plan builds no runtime and draws no RNG stream, keeping
    # fault-free runs bit-identical to the pre-fault engine.
    faults = (
        FaultRuntime(
            config.faults, grid, deployments, collectors,
            len(vps), rngs.get("faults"),
        )
        if config.faults
        else None
    )

    probers = {
        letter: LetterProber(
            deployments[letter], vps, grid, rngs.get(f"atlas.{letter}")
        )
        for letter in letters
    }
    workloads = {
        letter: BaselineWorkload(base_qps=specs[letter].baseline_qps)
        for letter in letters
    }
    truth = {
        letter: LetterTruth(
            site_codes=list(deployments[letter].site_order),
            offered_qps=np.zeros(
                (grid.n_bins, len(deployments[letter].site_order))
            ),
            loss=np.zeros(
                (grid.n_bins, len(deployments[letter].site_order))
            ),
            delay_ms=np.zeros(
                (grid.n_bins, len(deployments[letter].site_order))
            ),
            announced=np.zeros(
                (grid.n_bins, len(deployments[letter].site_order)),
                dtype=bool,
            ),
            legit_offered_qps=np.zeros(grid.n_bins),
            legit_served_qps=np.zeros(grid.n_bins),
            epoch_of_bin=np.zeros(grid.n_bins, dtype=np.int64),
        )
        for letter in letters
    }
    epoch_catchments: dict[str, list[np.ndarray]] = {
        L: [] for L in letters
    }
    day_dates, baseline_dates = window_dates(grid, config.baseline_days)
    accumulators = {
        letter: {date: DayAccumulator() for date in day_dates}
        for letter in letters
    }

    controllers = config.controllers or {}
    if controllers:
        from ..defense.controllers import StaticPolicyController

        # The marker names the built-in policies: its letters run
        # ``apply_policies`` like unlisted ones.
        controllers = {
            letter: controller
            for letter, controller in controllers.items()
            if not isinstance(controller, StaticPolicyController)
        }

    # Per-(letter, announcement state) precomputed share/catchment
    # arrays (see _epoch_for): recurring routing states (before/during/
    # after each event) hit the cache and keep their epoch number.
    duplicate_ratio = 1.0 - config.botnet.tail_share
    state = _RunState(
        config=config,
        controllers=controllers,
        grid=grid,
        topology=topology,
        facilities=facilities,
        deployments=deployments,
        letters=letters,
        botnet=botnet,
        nl=nl,
        faults=faults,
        probers=probers,
        workloads=workloads,
        truth=truth,
        epoch_catchments=epoch_catchments,
        epoch_cache={},
        accumulators=accumulators,
        day_dates=day_dates,
        buffer_caps={
            letter: deployments[letter].buffer_caps(
                config.overload.buffer_ms
            )
            for letter in letters
        },
        qname_sizes={},
        spill={letter: 0.0 for letter in letters},
    )

    # Segment-batched execution: contiguous runs of bins with no
    # routing change and no scheduled fault are computed as (n_bins,
    # n_sites) matrices, bit-identical to the per-bin path
    # (tests/scenario/test_engine_batch.py).  Policies and controllers
    # run inside the scan; only the bins a fault perturbs go through
    # ``_run_bin``.
    from .batch import run_batched

    run_batched(state)

    # --- Package outputs. ----------------------------------------------
    atlas = AtlasDataset(
        grid=grid,
        vps=vps,
        letters={letter: probers[letter].finish() for letter in letters},
    )
    if faults is not None:
        faults.mask_atlas(atlas)

    for letter in letters:
        truth[letter].stub_site_by_epoch = np.stack(
            epoch_catchments[letter]
        )

    rssac_rng = rngs.get("rssac.noise")
    rssac: dict[str, tuple[DailyReport, ...]] = {}
    for letter in letters:
        spec = specs[letter]
        reports = [
            build_baseline_report(spec, date, rssac_rng)
            for date in baseline_dates
        ]
        for date in day_dates:
            reports.append(
                build_daily_report(
                    spec,
                    date,
                    accumulators[letter][date],
                    duplicate_ratio=duplicate_ratio,
                    spoof_pool_size=config.botnet.spoof_pool_size,
                    rng=rssac_rng,
                )
            )
        rssac[letter] = tuple(reports)
    if faults is not None:
        rssac = faults.filter_rssac(rssac)

    bgp_rng = rngs.get("bgpmon.updates")
    route_changes = {
        letter: collectors.route_changes_per_bin(
            deployments[letter].prefix,
            grid,
            bgp_rng,
            peer_outages=faults.peer_outages if faults is not None else (),
        )
        for letter in letters
    }

    return ScenarioResult(
        config=config,
        grid=grid,
        topology=topology,
        deployments={
            letter: deployments[letter].snapshot() for letter in letters
        },
        facilities=facilities,
        botnet=botnet,
        collectors=collectors,
        atlas=atlas,
        rssac=rssac,
        route_changes=route_changes,
        truth=truth,
        nl=nl,
        duplicate_ratio=duplicate_ratio,
        letters=letters,
        quality=(
            faults.quality() if faults is not None else DataQuality()
        ),
    )
