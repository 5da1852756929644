"""Anycast site model: capacity, policy, and server behaviour.

Each root letter deploys a set of sites (Table 2 of the paper).  A site
has a capacity (servers behind a load balancer), a routing *scope*
(global or local, section 2.1), and a *policy* describing how it reacts
to overload (section 2.2):

* **absorb** -- keep announcing; excess traffic is dropped at the
  ingress and latency balloons ("degraded absorber");
* **withdraw** -- pull the BGP announcement entirely, shifting the
  whole catchment (good and bad traffic) to other sites;
* **partial withdraw** -- stop exporting to transit providers while
  keeping direct peers, so part of the catchment stays "stuck" on the
  degraded site while the rest shifts (the behaviour behind the
  paper's Fig. 11 VP groups).

Server behaviour under stress is modelled separately because the paper
observes two distinct patterns at K-Root (section 3.5): K-FRA answered
from a single surviving server per event, while K-NRT degraded across
all three servers with one more loaded than the rest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..netsim.bgp import Scope
from ..util.airports import airport
from ..util.geo import Location


class SitePolicy(enum.Enum):
    """How a site reacts to sustained overload (paper section 2.2)."""

    ABSORB = "absorb"
    WITHDRAW = "withdraw"
    PARTIAL_WITHDRAW = "partial_withdraw"


class ServerBehavior(enum.Enum):
    """How a site's servers respond under stress (paper section 3.5)."""

    NORMAL = "normal"          # balanced; all servers keep answering
    SHED_TO_ONE = "shed_to_one"  # replies collapse onto one server
    SKEWED = "skewed"          # all degrade; load is uneven


#: Default per-server capacity in queries/s.  Section 2.2: "a modest
#: modern computer can handle an entire letter's typical traffic
#: (30-60k queries/s)"; production root servers run well above that.
DEFAULT_PER_SERVER_QPS = 100_000.0

#: Utilisation that triggers a withdraw-policy site to pull its routes.
DEFAULT_WITHDRAW_THRESHOLD = 2.0

#: Bins of calm needed before a withdrawn site re-announces.
DEFAULT_RECOVERY_BINS = 6


@dataclass(frozen=True, slots=True)
class SiteSpec:
    """Static description of one anycast site.

    Parameters
    ----------
    code:
        Three-letter airport code (the paper's ``X-APT`` convention).
    scope:
        Global or local routing (Table 2's site-type split).
    n_servers:
        Physical servers behind the site load balancer.
    per_server_qps:
        Capacity each server contributes.
    policy:
        Overload reaction (see :class:`SitePolicy`).
    server_behavior:
        Per-server degradation pattern (see :class:`ServerBehavior`).
    facility:
        Shared data-centre id, or ``None`` when the site is isolated.
        Co-located services in one facility share ingress fate
        (collateral damage, paper section 3.6).
    initially_announced:
        ``False`` for standby sites (H-Root's backup, section 2.1).
    reannounce_limit:
        How many times the site auto-recovers after withdrawing;
        ``None`` means unlimited.  The paper's five E-Root sites that
        "shut down" after the second event behave like limit 1.
    withdraw_threshold:
        Utilisation that triggers the withdraw/partial policies.
    """

    code: str
    scope: Scope = Scope.GLOBAL
    n_servers: int = 3
    per_server_qps: float = DEFAULT_PER_SERVER_QPS
    policy: SitePolicy = SitePolicy.ABSORB
    server_behavior: ServerBehavior = ServerBehavior.NORMAL
    facility: str | None = None
    initially_announced: bool = True
    reannounce_limit: int | None = None
    withdraw_threshold: float = DEFAULT_WITHDRAW_THRESHOLD
    #: How many transit providers the site host buys from.  Very well
    #: connected sites (K-AMS at AMS-IX) attract shifted catchments
    #: when nearby sites withdraw -- the Fig. 10 "70-80 % go to K-AMS"
    #: signature.
    n_transit_providers: int = 2
    #: Routing-preference discount (see netsim.bgp.Origin).
    route_preference_discount: float = 0.0
    #: Queueing-buffer ceiling override in ms; ``None`` uses the
    #: scenario's overload model.  Sites with shallow buffers drop
    #: instead of queueing (B-Root showed only modest RTT increases
    #: while losing most queries, section 3.2.1).
    buffer_ms: float | None = None
    #: How strongly the site shares ingress fate with its facility
    #: (0 = fully independent transit, 1 = entirely behind the shared
    #: ingress).  Collateral damage (section 3.6) flows through this.
    facility_coupling: float = 0.15

    def __post_init__(self) -> None:
        if len(self.code) != 3:
            raise ValueError(f"site codes are 3 letters: {self.code!r}")
        if self.n_servers < 1:
            raise ValueError("a site needs at least one server")
        if self.per_server_qps <= 0:
            raise ValueError("per-server capacity must be positive")
        if self.withdraw_threshold <= 1.0:
            raise ValueError("withdraw threshold must exceed 1.0")
        if self.reannounce_limit is not None and self.reannounce_limit < 0:
            raise ValueError("reannounce_limit cannot be negative")
        if self.n_transit_providers < 1:
            raise ValueError("a site needs at least one transit provider")
        if not 0.0 <= self.facility_coupling <= 1.0:
            raise ValueError("facility_coupling must be within [0, 1]")
        if self.buffer_ms is not None and self.buffer_ms <= 0:
            raise ValueError("buffer_ms must be positive")

    @property
    def capacity_qps(self) -> float:
        """Aggregate site capacity in queries per second."""
        return self.n_servers * self.per_server_qps

    @property
    def location(self) -> Location:
        """Site location, from the airport table."""
        return airport(self.code).location

    def label(self, letter: str) -> str:
        """The paper's normalized site name, e.g. ``K-AMS``."""
        return f"{letter}-{self.code}"


@dataclass(slots=True)
class SiteState:
    """Mutable per-site policy state.

    Whether the site announces lives in the letter's
    :class:`~repro.netsim.anycast.AnycastPrefix`, not here.
    """

    spec: SiteSpec
    withdrawals: int = 0
    calm_bins: int = 0
    partial: bool = False
    #: Which server currently answers when behaviour is SHED_TO_ONE
    #: (rotates between events, as seen at K-FRA in Fig. 12).
    shed_server: int = 1

    def may_reannounce(self) -> bool:
        """Whether the auto-recovery budget allows re-announcing."""
        if self.spec.reannounce_limit is None:
            return True
        return self.withdrawals <= self.spec.reannounce_limit
