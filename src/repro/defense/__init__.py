"""Automated anycast defense: the paper's future-work exploration."""

from .controllers import (
    Action,
    ActionKind,
    Controller,
    GreedyShedController,
    NullController,
    OracleController,
    StaticPolicyController,
)
from .evaluate import (
    DefenseOutcome,
    compare_controllers,
    evaluate_controller,
    served_fractions,
)
from .observation import LetterObservation
from .provisioning import (
    ProvisioningPlan,
    SitePlan,
    aggregate_vs_placed,
    provisioning_plan,
    provisioning_table,
)
from .scrubbing import (
    ScrubOutcome,
    ScrubbingService,
    legit_served_absorbing,
    legit_served_with_scrubbing,
    scrub,
)

__all__ = [
    "Action",
    "ActionKind",
    "Controller",
    "DefenseOutcome",
    "GreedyShedController",
    "LetterObservation",
    "NullController",
    "OracleController",
    "ProvisioningPlan",
    "ScrubOutcome",
    "ScrubbingService",
    "SitePlan",
    "StaticPolicyController",
    "compare_controllers",
    "aggregate_vs_placed",
    "evaluate_controller",
    "legit_served_absorbing",
    "legit_served_with_scrubbing",
    "provisioning_plan",
    "provisioning_table",
    "scrub",
    "served_fractions",
]
