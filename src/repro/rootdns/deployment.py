"""Runtime deployment of a root letter onto the network substrate.

A :class:`LetterDeployment` binds a :class:`~repro.rootdns.letters.LetterSpec`
to the AS topology: each site gets a host AS, the letter gets an
anycast prefix with one origin per site, and site states track the
policy machinery (withdrawals, partial withdrawals, recovery budgets).

The per-bin control loop lives in :meth:`LetterDeployment.apply_policies`:
given each site's utilisation (one site-order row) it executes the
section-2.2 policy space -- absorb, withdraw, partial withdraw -- plus
standby activation (H-Root's primary/backup pair) and post-event
recovery.  Policies, pluggable controllers and injected faults all
change announcements through :meth:`LetterDeployment.act`, which
records each change as one :class:`RoutingAction`.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..netsim.anycast import AnycastPrefix, PrefixState
from ..netsim.bgp import Origin, RoutingTable, Scope
from ..netsim.topology import Topology
from ..util.arrays import frozen
from .facility import FacilityRegistry
from .letters import LETTERS_SPEC, LetterSpec
from .servers import rotate_shed_server
from .sites import DEFAULT_RECOVERY_BINS, SitePolicy, SiteSpec, SiteState


class ActionKind(enum.Enum):
    """What a policy, controller or fault asks the routing layer to do."""

    WITHDRAW = "withdraw"
    ANNOUNCE = "announce"
    PARTIAL = "partial"
    RESTORE = "restore"


#: Who asked for a routing action.
Cause = Literal["policy", "controller", "fault"]


@dataclass(frozen=True, slots=True)
class RoutingAction:
    """One change to a site's announcement or export, and its effect."""

    timestamp: float
    site: str
    action: ActionKind
    cause: Cause
    #: ASes whose best route moved; empty when routes stayed put.
    changed_asns: frozenset[int]


@dataclass(frozen=True, slots=True)
class DeploymentRunState:
    """Everything a run changes in a deployment; the rest of it is
    built with the substrate and never changes."""

    #: ``(withdrawals, calm_bins, partial, shed_server)`` per site, in
    #: site order.
    sites: tuple[tuple[int, int, bool, int], ...]
    actions: tuple[RoutingAction, ...]
    #: The prefix's announcement state (:meth:`AnycastPrefix.run_state`).
    prefix: PrefixState


class LetterDeployment:
    """One letter's sites wired into the topology, with policy state."""

    def __init__(
        self,
        spec: LetterSpec,
        topology: Topology,
        facilities: FacilityRegistry | None = None,
    ) -> None:
        self.spec = spec
        self.topology = topology
        self.site_order = [s.code for s in spec.sites]
        self.site_index = {c: i for i, c in enumerate(self.site_order)}
        #: Facility labels in site order, precomputed for the engine's
        #: per-bin spillover bookkeeping.
        self.site_labels = [s.label(spec.letter) for s in spec.sites]
        self.states = {s.code: SiteState(s) for s in spec.sites}
        self.host_asns: dict[str, int] = {}
        #: Every change :meth:`act` made, in order.
        self.actions: list[RoutingAction] = []
        self._capacity_vector = frozen(
            np.array([s.capacity_qps for s in spec.sites], dtype=np.float64)
        )
        # Per-site thresholds for the quiet-bin fast path: only sites
        # whose policy can actually react to overload participate.
        self._fastpath_thresholds = frozen(
            np.array(
                [
                    s.withdraw_threshold
                    if s.initially_announced
                    and s.policy in (
                        SitePolicy.WITHDRAW, SitePolicy.PARTIAL_WITHDRAW
                    )
                    else np.inf
                    for s in spec.sites
                ],
                dtype=np.float64,
            )
        )
        self._quiet_cache: tuple[tuple, bool] | None = None
        self._announced_cache: tuple[tuple, np.ndarray] | None = None

        origins = []
        for site in spec.sites:
            label = site.label(spec.letter)
            partial = site.policy is SitePolicy.PARTIAL_WITHDRAW
            ixp = site.scope is Scope.LOCAL or partial
            # Partial-withdraw sites are the big IXP-present ones; their
            # direct peering is what stays "stuck" during withdrawal.
            asn = topology.add_site_host(
                label,
                site.location,
                site.scope,
                ixp_peering=ixp,
                ixp_radius_km=300.0 if partial else None,
                ixp_max_peers=15 if partial else None,
                n_transits=(
                    site.n_transit_providers
                    if site.scope is Scope.GLOBAL
                    else 1
                ),
            )
            self.host_asns[site.code] = asn
            origins.append(
                Origin(
                    site=site.code,
                    asn=asn,
                    scope=site.scope,
                    location=site.location,
                    preference_discount=site.route_preference_discount,
                )
            )
            if facilities is not None and site.facility is not None:
                facilities.register(
                    site.facility,
                    label,
                    site.capacity_qps,
                    site.facility_coupling,
                )
        self.prefix = AnycastPrefix(
            topology.graph,
            origins,
            withdrawn=frozenset(
                s.code for s in spec.sites if not s.initially_announced
            ),
        )

    def __setstate__(self, state: dict[str, object]) -> None:
        # NumPy unpickles arrays writable: freeze them again.
        self.__dict__.update(state)
        frozen(self._capacity_vector)
        frozen(self._fastpath_thresholds)
        if self._announced_cache is not None:
            frozen(self._announced_cache[1])

    def run_state(self) -> DeploymentRunState:
        """What a run has changed here: the site states, the records
        and the prefix's announcement state."""
        return DeploymentRunState(
            sites=tuple(
                (s.withdrawals, s.calm_bins, s.partial, s.shed_server)
                for s in self.states.values()
            ),
            actions=tuple(self.actions),
            prefix=self.prefix.run_state(),
        )

    def snapshot(
        self, state: DeploymentRunState | None = None
    ) -> "LetterDeployment":
        """A copy with its own run state: this deployment's, or *state*
        (a :meth:`run_state` of a deployment built the same way).

        The site states, the records and the prefix's announcement
        state are copied; the spec, topology, capacity tables and
        routing caches are shared.  :func:`simulate` runs on one, so a
        run never mutates the substrate it was given, and a sweep
        parent puts a pool cell's run state back on its own substrate
        with one.
        """
        clone = copy.copy(self)
        if state is None:
            clone.prefix = self.prefix.snapshot()
            state = self.run_state()
        else:
            clone.prefix = self.prefix.snapshot(state.prefix)
        clone.states = {
            code: dataclasses.replace(
                site,
                withdrawals=withdrawals,
                calm_bins=calm_bins,
                partial=partial,
                shed_server=shed_server,
            )
            for (code, site), (withdrawals, calm_bins, partial, shed_server)
            in zip(self.states.items(), state.sites, strict=True)
        }
        clone.actions = list(state.actions)
        return clone

    @property
    def letter(self) -> str:
        return self.spec.letter

    def site_spec(self, code: str) -> SiteSpec:
        return self.spec.site(code)

    def state(self, code: str) -> SiteState:
        try:
            return self.states[code]
        except KeyError:
            raise KeyError(
                f"{self.letter}-Root has no site {code!r}"
            ) from None

    def routing(self) -> RoutingTable:
        """Current best-route table for this letter's prefix."""
        return self.prefix.routing()

    def capacity_by_site(self) -> np.ndarray:
        """Site capacities in site order (a fresh copy)."""
        return self._capacity_vector.copy()

    @property
    def capacity_vector(self) -> np.ndarray:
        """Site capacities in site order (read-only, shared)."""
        return self._capacity_vector

    def buffer_caps(self, default_ms: float) -> np.ndarray:
        """Per-site queueing-delay ceilings in site order."""
        return np.array(
            [
                s.buffer_ms if s.buffer_ms is not None else default_ms
                for s in self.spec.sites
            ],
            dtype=np.float64,
        )

    def announced_mask(self) -> np.ndarray:
        """Boolean mask over site order: currently announced?

        Memoized per :meth:`AnycastPrefix.state_key`; read-only.
        """
        key = self.prefix.state_key()
        cached = self._announced_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        mask = frozen(
            np.array([self.prefix.is_announced(c) for c in self.site_order])
        )
        self._announced_cache = (key, mask)
        return mask

    def is_quiet(self) -> bool:
        """Whether every site is in its normal announcement state.

        Quiet means: every primary announced and fully exported, every
        standby down.  In that state ``apply_policies`` with sub-
        threshold utilisations is a no-op: it returns at once here and
        the segment-batched engine skips the call in gated bins.
        Memoized per :meth:`AnycastPrefix.state_key` (a site's partial
        flag and its export block change together, in :meth:`act`).
        """
        key = self.prefix.state_key()
        cached = self._quiet_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        quiet = True
        for code in self.site_order:
            state = self.states[code]
            up = self.prefix.is_announced(code)
            if state.spec.initially_announced:
                if not up or state.partial:
                    quiet = False
                    break
            elif up:
                quiet = False
                break
        self._quiet_cache = (key, quiet)
        return quiet

    def act(
        self, site: str, action: ActionKind, timestamp: float, cause: Cause
    ) -> bool:
        """Apply *action* to *site*; return whether it changed the
        site's announcement or export.

        The one door through which this letter's announcements change,
        for static policies, pluggable controllers and faults (named
        by *cause*), and the one place a change is recorded: each
        change appends a :class:`RoutingAction` to :attr:`actions`.  A
        partial withdraw stops exporting to the site's transit
        providers and keeps its direct IXP peers, which is what pins
        part of the catchment to the degraded site; a restore exports
        to all of them again.
        """
        if action is ActionKind.WITHDRAW or action is ActionKind.ANNOUNCE:
            changed = self.prefix.set_announced(
                site, action is ActionKind.ANNOUNCE
            )
        else:
            partial = action is ActionKind.PARTIAL
            self.state(site).partial = partial
            graph = self.topology.graph
            blocked = graph.providers(self.host_asns[site]) if partial else ()
            changed = self.prefix.set_blocked(site, frozenset(blocked))
        if changed is None:
            return False
        self.actions.append(
            RoutingAction(timestamp, site, action, cause, changed)
        )
        return True

    def apply_policies(
        self,
        utilisation: np.ndarray,
        letter_under_attack: bool,
        timestamp: float,
    ) -> bool:
        """Run one control-loop step; returns whether it recorded an
        action.

        Every policy action goes through :meth:`act`, so the return
        value -- whether the step appended a record, a restore
        included, which also rotates the shed server -- is what the
        segment-batched engine ends its segments on.

        *utilisation* is each site's offered/capacity for the last bin,
        one entry per site in :attr:`site_order`.  Withdrawn sites see
        no traffic; their recovery is driven by the letter-wide attack
        signal (operators re-enable sites once the event subsides).
        """
        # Quiet-bin fast path: every site in its normal state and
        # nobody over a reaction threshold -> the loop below would be a
        # no-op, so skip it (the common case outside events).
        if self.is_quiet() and not (
            utilisation > self._fastpath_thresholds
        ).any():
            return False
        n_actions = len(self.actions)
        any_withdrawn_primary = False

        for code, rho in zip(
            self.site_order, utilisation.tolist(), strict=True
        ):
            state = self.states[code]
            spec = state.spec
            if not spec.initially_announced:
                continue  # standby sites handled below
            announced = self.prefix.is_announced(code)

            if announced and rho > spec.withdraw_threshold:
                if spec.policy is SitePolicy.WITHDRAW:
                    if self.act(
                        code, ActionKind.WITHDRAW, timestamp, "policy"
                    ):
                        state.withdrawals += 1
                        state.calm_bins = 0
                elif (
                    spec.policy is SitePolicy.PARTIAL_WITHDRAW
                    and not state.partial
                ):
                    if self.act(code, ActionKind.PARTIAL, timestamp, "policy"):
                        state.calm_bins = 0
            elif not announced:
                if letter_under_attack:
                    state.calm_bins = 0
                else:
                    state.calm_bins += 1
                    if (
                        state.calm_bins >= DEFAULT_RECOVERY_BINS
                        and state.may_reannounce()
                        and self.act(
                            code, ActionKind.ANNOUNCE, timestamp, "policy"
                        )
                    ):
                        state.calm_bins = 0
            elif state.partial:
                if letter_under_attack:
                    state.calm_bins = 0
                else:
                    state.calm_bins += 1
                    if state.calm_bins >= DEFAULT_RECOVERY_BINS:
                        state.calm_bins = 0
                        if self.act(
                            code, ActionKind.RESTORE, timestamp, "policy"
                        ):
                            # A new event sheds to a different server.
                            state.shed_server = rotate_shed_server(
                                state.shed_server, spec.n_servers
                            )

            if (
                spec.initially_announced
                and not self.prefix.is_announced(code)
            ):
                any_withdrawn_primary = True

        # Standby activation: H-Root's backup announces while the
        # primary is down and withdraws once it returns.
        standby = (
            ActionKind.ANNOUNCE if any_withdrawn_primary
            else ActionKind.WITHDRAW
        )
        for code in self.site_order:
            if not self.states[code].spec.initially_announced:
                self.act(code, standby, timestamp, "policy")
        return len(self.actions) > n_actions


def build_deployments(
    topology: Topology,
    facilities: FacilityRegistry | None = None,
    letters: dict[str, LetterSpec] | None = None,
) -> dict[str, LetterDeployment]:
    """Deploy every letter onto *topology*, in letter order."""
    specs = letters if letters is not None else LETTERS_SPEC
    return {
        letter: LetterDeployment(spec, topology, facilities)
        for letter, spec in sorted(specs.items())
    }
