"""Root DNS service model: letters, sites, servers, facilities.

The wire-level root name server (``RootNameServer``, ``RootZone``),
which answers real query packets, lives in :mod:`repro.rootdns.runtime`
and is imported from there: the simulation never sends a packet.
"""

from .deployment import (
    ActionKind,
    LetterDeployment,
    RoutingAction,
    build_deployments,
)
from .facility import FacilityMember, FacilityRegistry
from .letters import (
    ATTACKED_LETTERS,
    LETTERS_SPEC,
    RIPE_MEASUREMENT_IDS,
    RSSAC_REPORTING_LETTERS,
    SHARED_FACILITY_METROS,
    LetterSpec,
    facility_for,
    letter_spec,
)
from .servers import (
    hot_server_index,
    observed_servers,
    rotate_shed_server,
    server_delay_multipliers,
    server_loss_multipliers,
)
from .sites import (
    DEFAULT_PER_SERVER_QPS,
    DEFAULT_RECOVERY_BINS,
    DEFAULT_WITHDRAW_THRESHOLD,
    ServerBehavior,
    SitePolicy,
    SiteSpec,
    SiteState,
)

__all__ = [
    "ATTACKED_LETTERS",
    "ActionKind",
    "DEFAULT_PER_SERVER_QPS",
    "DEFAULT_RECOVERY_BINS",
    "DEFAULT_WITHDRAW_THRESHOLD",
    "FacilityMember",
    "FacilityRegistry",
    "LETTERS_SPEC",
    "LetterDeployment",
    "LetterSpec",
    "RIPE_MEASUREMENT_IDS",
    "RSSAC_REPORTING_LETTERS",
    "RoutingAction",
    "SHARED_FACILITY_METROS",
    "ServerBehavior",
    "SitePolicy",
    "SiteSpec",
    "SiteState",
    "build_deployments",
    "facility_for",
    "hot_server_index",
    "letter_spec",
    "observed_servers",
    "rotate_shed_server",
    "server_delay_multipliers",
    "server_loss_multipliers",
]
