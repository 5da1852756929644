"""Automated anycast defense controllers (the paper's future work).

Section 2.2 closes with: *"We speculate that more careful, explicit,
and automated management of policies may provide stronger defenses to
overload, an area of future work"* and section 5 asks for managing
traffic across sites of varying capacity.  This module implements that
exploration: pluggable controllers that, each bin, observe
operator-visible state and issue announce/withdraw/partial actions.
A controller reads that state as the site-order rows of one
:class:`~repro.defense.observation.LetterObservation`.

Controllers (in increasing information):

* :class:`NullController` -- pure absorber, never acts (the paper's
  safe default under uncertainty);
* :class:`StaticPolicyController` -- the per-site policies of the 2015
  deployments (what actually happened);
* :class:`GreedyShedController` -- withdraws the most-overloaded site
  when the remaining announced capacity has measured headroom for its
  accepted load, and re-announces when calm -- using only visible
  signals, so it can be wrong exactly the way the paper predicts
  (shifted *unobserved* attack load can drown the rescuer);
* :class:`OracleController` -- cheats with ground-truth per-site
  offered load to compute the best set of up to ``max_withdrawals``
  withdrawals by exhaustive search; an upper bound on what routing
  control can do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..rootdns.deployment import ActionKind
from .observation import LetterObservation


@dataclass(frozen=True, slots=True)
class Action:
    """One controller decision for one site."""

    kind: ActionKind
    site: str


class Controller(Protocol):
    """Per-bin decision procedure for one letter."""

    def decide(self, observation: LetterObservation) -> list[Action]:
        """Actions to apply before the next bin (rows read-only)."""
        ...


class NullController:
    """Absorb everywhere; the no-information default."""

    def decide(self, observation: LetterObservation) -> list[Action]:
        return []


class StaticPolicyController:
    """Sentinel: keep the deployment's built-in §2.2 policies.

    The engine treats this marker as "run ``apply_policies`` as
    usual"; it exists so controller comparisons can name the
    historical behaviour explicitly.
    """

    def decide(self, observation: LetterObservation) -> list[Action]:
        raise NotImplementedError(
            "StaticPolicyController is handled by the engine"
        )


@dataclass(slots=True)
class GreedyShedController:
    """Withdraw the worst site when the rest can visibly absorb it.

    Operates on measured (not true) load: when a site is overloaded
    and the *measured* headroom of the other announced sites exceeds
    its accepted traffic by *safety*, withdraw it; re-announce after
    *calm_bins* quiet bins.  Keeps at least *min_announced* sites up.
    """

    safety: float = 1.5
    calm_bins: int = 6
    min_announced: int = 1
    _quiet: dict[str, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.safety < 1.0:
            raise ValueError("safety factor must be >= 1")
        if self.min_announced < 1:
            raise ValueError("must keep at least one site announced")
        self._quiet = {}

    def decide(self, observation: LetterObservation) -> list[Action]:
        actions: list[Action] = []
        codes = observation.codes
        announced = observation.announced
        utilisation = observation.utilisation
        overloaded = announced & (utilisation > 1.0)
        attack_ongoing = bool(overloaded.any())

        # Re-announce after sustained calm.
        for i in np.flatnonzero(~announced).tolist():
            if attack_ongoing:
                self._quiet[codes[i]] = 0
                continue
            quiet = self._quiet.get(codes[i], 0) + 1
            self._quiet[codes[i]] = quiet
            if quiet >= self.calm_bins:
                actions.append(Action(ActionKind.ANNOUNCE, codes[i]))
                self._quiet[codes[i]] = 0

        if (
            not attack_ongoing
            or np.count_nonzero(announced) <= self.min_announced
        ):
            return actions
        # The first site of maximal utilisation.
        worst = int(np.argmax(np.where(overloaded, utilisation, -np.inf)))
        spare = observation.capacity_qps - observation.offered_qps
        others = announced & (np.arange(len(codes)) != worst)
        # Python's sum adds left to right in site order; np.sum would
        # pair the additions differently.
        others_headroom = sum(
            np.where(spare > 0.0, spare, 0.0)[others].tolist()
        )
        if others_headroom >= self.safety * observation.accepted_qps[worst]:
            actions.append(Action(ActionKind.WITHDRAW, codes[worst]))
            self._quiet[codes[worst]] = 0
        return actions


@dataclass(slots=True)
class OracleController:
    """Exhaustive withdrawal search with ground-truth offered load.

    Receives the *true* per-site offered load each bin (the engine
    passes the offered row to :meth:`set_truth`) and picks the
    announced set that maximises the served share of that load under
    the modelling assumption that a withdrawn site's load moves to the
    remaining site with the most capacity.  Search is limited to
    withdrawing subsets of currently overloaded sites (the only
    candidates that can help), keeping it tractable.
    """

    max_withdrawals: int = 2
    _true_offered: list[float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.max_withdrawals < 0:
            raise ValueError("max_withdrawals cannot be negative")
        self._true_offered = []

    def set_truth(self, offered: np.ndarray) -> None:
        """Provide ground-truth offered load for the coming decision,
        one entry per site in the observation's site order."""
        self._true_offered = np.asarray(offered, dtype=np.float64).tolist()

    def decide(self, observation: LetterObservation) -> list[Action]:
        actions: list[Action] = []
        codes = observation.codes
        offered = self._true_offered or [0.0] * len(codes)
        if len(offered) != len(codes):
            raise ValueError("truth row does not match the observed sites")
        capacity = observation.capacity_qps.tolist()
        announced = np.flatnonzero(observation.announced).tolist()
        # Oracle knows when the attack is over: re-announce everything.
        if not sum(offered) > 2 * sum(capacity) * 0.05:
            for i in np.flatnonzero(~observation.announced).tolist():
                actions.append(Action(ActionKind.ANNOUNCE, codes[i]))
            return actions

        overloaded = [i for i in announced if offered[i] > capacity[i]]
        if not overloaded or len(announced) <= 1:
            return actions

        def served_fraction(withdrawn: tuple[int, ...]) -> float:
            keep = [i for i in announced if i not in withdrawn]
            if not keep:
                return 0.0
            # Withdrawn sites' load moves to the remaining site with
            # the most capacity (the dominant-attractor approximation
            # observed in Fig. 10).
            moved = sum(offered[i] for i in withdrawn)
            attractor = max(keep, key=capacity.__getitem__)
            total_served = 0.0
            total_offered = 0.0
            for i in keep:
                load = offered[i] + moved if i == attractor else offered[i]
                total_offered += load
                total_served += min(load, capacity[i])
            if total_offered <= 0:
                return 1.0
            return total_served / total_offered

        best_set: tuple[int, ...] = ()
        best = served_fraction(best_set)
        # Keep at least one site: withdraw at most len(announced) - 1.
        most = min(self.max_withdrawals, len(announced) - 1)
        for k in range(1, most + 1):
            for combo in itertools.combinations(overloaded, k):
                score = served_fraction(combo)
                if score > best + 1e-9:
                    best, best_set = score, combo
        for code in sorted(codes[i] for i in best_set):
            actions.append(Action(ActionKind.WITHDRAW, code))
        return actions
