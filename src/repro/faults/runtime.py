"""Applies a :class:`~repro.faults.plan.FaultPlan` to one engine run.

The runtime is built once per ``simulate()`` call, after the substrate
(topology, deployments, VPs, collectors) exists but before the bin
loop starts.  It pre-resolves every spec against the scenario -- which
bins each fault covers, which VPs drop, which peers churn -- drawing
any randomized scope from the dedicated seeded ``"faults"`` stream so
the same seed and plan reproduce the same faults exactly.  The engine
then consults it at four well-defined points:

* :meth:`apply_routing` at the top of each bin (session resets flap
  announcements through :meth:`LetterDeployment.act`, like policies
  and controllers, so epoch caching and BGPmon observation keep
  working unchanged);
* :meth:`capacity` when evaluating each letter's overload (hardware
  failures scale the site capacity vector for the covered bins);
* :meth:`mask_atlas` after probing finishes (VP dropout and controller
  outages blank the affected ``(bin, VP)`` cells post-hoc, leaving the
  batched sampling pass and its RNG draw order untouched);
* :meth:`filter_rssac` when packaging reports (outage days vanish from
  the published series).

Everything the runtime perturbs is recorded as
:class:`~repro.faults.quality.QualityFlag` entries; :meth:`quality`
returns the full :class:`~repro.faults.quality.DataQuality` report the
:class:`~repro.scenario.engine.ScenarioResult` carries.
"""

from __future__ import annotations

import datetime as _dt

from typing import TYPE_CHECKING

import numpy as np

from ..datasets.observations import RESP_NOT_PROBED
from ..rootdns.deployment import ActionKind
from ..util.timegrid import Interval, TimeGrid
from .plan import (
    BgpSessionReset,
    ControllerOutage,
    FaultPlan,
    PeerChurn,
    RssacOutage,
    SiteFailure,
    VpDropout,
)
from .quality import DataQuality, QualityFlag

if TYPE_CHECKING:
    from ..bgpmon.collector import BgpCollectors
    from ..datasets.observations import AtlasDataset
    from ..rootdns.deployment import LetterDeployment
    from ..rssac.reports import DailyReport

#: Residual capacity fraction of a fully failed site -- keeps the
#: overload model's positive-capacity invariant while driving loss to
#: effectively 1 (a black-holed site).
FAILED_CAPACITY_FLOOR = 1e-6


def _day_interval(date: str) -> Interval:
    """The UTC day covered by one ``YYYY-MM-DD`` report date."""
    day = _dt.datetime.strptime(date, "%Y-%m-%d").replace(
        tzinfo=_dt.timezone.utc
    )
    start = int(day.timestamp())
    return Interval(start, start + 86_400)


def _bin_span(bins: np.ndarray) -> tuple[int, int] | None:
    if bins.size == 0:
        return None
    return int(bins[0]), int(bins[-1])


class FaultRuntime:
    """One plan resolved against one scenario's substrate."""

    def __init__(
        self,
        plan: FaultPlan,
        grid: TimeGrid,
        deployments: dict[str, LetterDeployment],
        collectors: BgpCollectors,
        n_vps: int,
        rng: np.random.Generator,
    ) -> None:
        self.plan = plan
        self.grid = grid
        self.deployments = deployments
        self._flags: list[QualityFlag] = []

        # Per-(letter, bin) capacity scale vectors (site order).
        self._cap_scale: dict[tuple[str, int], np.ndarray] = {}
        # Session resets keyed by the bin they begin/end in.
        self._reset_begin: dict[int, list[tuple[str, str]]] = {}
        self._reset_end: dict[int, list[tuple[str, str]]] = {}
        self._reset_down: set[tuple[str, str]] = set()
        # Atlas masks: (bin indices, VP indices or None for the fleet).
        self._atlas_masks: list[tuple[np.ndarray, np.ndarray | None]] = []
        #: Collector-peer outages, consumed by
        #: :meth:`BgpCollectors.route_changes_per_bin`.
        self.peer_outages: tuple[tuple[Interval, frozenset[int]], ...] = ()

        peer_outages: list[tuple[Interval, frozenset[int]]] = []
        for spec in plan:
            if isinstance(spec, SiteFailure):
                self._resolve_site_failure(spec)
            elif isinstance(spec, BgpSessionReset):
                self._resolve_reset(spec)
            elif isinstance(spec, VpDropout):
                n_down = max(1, int(round(spec.fraction * n_vps)))
                vp_idx = np.sort(
                    rng.choice(n_vps, size=min(n_down, n_vps), replace=False)
                )
                self._resolve_atlas_mask(spec, vp_idx)
            elif isinstance(spec, ControllerOutage):
                self._resolve_atlas_mask(spec, None)
            elif isinstance(spec, PeerChurn):
                n_down = max(
                    1, int(round(spec.fraction * len(collectors)))
                )
                down = rng.choice(
                    collectors.peer_asns,
                    size=min(n_down, len(collectors)),
                    replace=False,
                )
                peer_outages.append(
                    (spec.interval, frozenset(int(a) for a in down))
                )
                self._flags.append(
                    QualityFlag(
                        metric="bgpmon",
                        detail=(
                            f"{len(down)}/{len(collectors)} collector "
                            "peers down; route-change counts partial"
                        ),
                        bins=_bin_span(
                            grid.bins_overlapping(spec.interval)
                        ),
                    )
                )
            elif isinstance(spec, RssacOutage):
                self._check_letter(spec)
                # Flags are added per dropped report in filter_rssac,
                # once the concrete report days are known.
        self.peer_outages = tuple(peer_outages)

    def _check_letter(
        self, spec: SiteFailure | BgpSessionReset | RssacOutage
    ) -> None:
        if spec.letter not in self.deployments:
            raise ValueError(
                f"fault {spec!r} names letter {spec.letter!r}, which is "
                f"not simulated (have {sorted(self.deployments)})"
            )

    def _site_index(self, spec: SiteFailure | BgpSessionReset) -> int:
        self._check_letter(spec)
        dep = self.deployments[spec.letter]
        try:
            return dep.site_index[spec.site]
        except KeyError:
            raise ValueError(
                f"fault {spec!r} names site {spec.site!r}, which "
                f"{spec.letter}-Root does not operate "
                f"(have {dep.site_order})"
            ) from None

    def _resolve_site_failure(self, spec: SiteFailure) -> None:
        index = self._site_index(spec)
        dep = self.deployments[spec.letter]
        bins = self.grid.bins_overlapping(spec.interval)
        if bins.size == 0:
            return
        residual = max(1.0 - spec.severity, FAILED_CAPACITY_FLOOR)
        for b in bins:
            key = (spec.letter, int(b))
            scale = self._cap_scale.get(key)
            if scale is None:
                scale = np.ones(len(dep.site_order))
                self._cap_scale[key] = scale
            scale[index] = min(scale[index], residual)
        self._flags.append(
            QualityFlag(
                metric="truth",
                letter=spec.letter,
                detail=(
                    f"site {spec.site} hardware failure "
                    f"({spec.severity:.0%} capacity lost)"
                ),
                bins=_bin_span(bins),
            )
        )

    def _resolve_reset(self, spec: BgpSessionReset) -> None:
        self._site_index(spec)  # scope validation
        bins = self.grid.bins_overlapping(spec.interval)
        if bins.size == 0:
            return
        self._reset_begin.setdefault(int(bins[0]), []).append(
            (spec.letter, spec.site)
        )
        end_bin = int(
            np.ceil(
                (spec.interval.end - self.grid.start)
                / self.grid.bin_seconds
            )
        )
        if end_bin < self.grid.n_bins:
            self._reset_end.setdefault(end_bin, []).append(
                (spec.letter, spec.site)
            )
        self._flags.append(
            QualityFlag(
                metric="routing",
                letter=spec.letter,
                detail=(
                    f"site {spec.site} BGP session reset; announcement "
                    "flapped (incl. damping suppression)"
                ),
                bins=_bin_span(bins),
            )
        )

    def _resolve_atlas_mask(
        self,
        spec: VpDropout | ControllerOutage,
        vp_idx: np.ndarray | None,
    ) -> None:
        bins = self.grid.bins_overlapping(spec.interval)
        if bins.size == 0:
            return
        self._atlas_masks.append((bins, vp_idx))
        what = (
            "controller outage: no VP reported"
            if vp_idx is None
            else f"{vp_idx.size} VP(s) stopped reporting"
        )
        self._flags.append(
            QualityFlag(metric="atlas", detail=what, bins=_bin_span(bins))
        )

    # --- Engine hooks. -------------------------------------------------

    def disruptive_bins(self) -> frozenset[int]:
        """Bins where this runtime perturbs routing or capacity.

        The segment-batched engine (:mod:`repro.scenario.batch`) may
        only batch across bins where :meth:`apply_routing` is a no-op
        and :meth:`capacity` returns *base* unchanged; everything else
        must run through the per-bin reference path.  Atlas masking and
        RSSAC filtering act on packaged outputs after the loop, so
        their bins do not constrain batching.
        """
        bins = set(self._reset_begin) | set(self._reset_end)
        bins.update(b for (_, b) in self._cap_scale)
        return frozenset(bins)

    def apply_routing(self, bin_index: int, timestamp: float) -> None:
        """Flap announcements for session resets scheduled in this bin.

        Ends are processed before begins so back-to-back resets of the
        same site re-announce and immediately withdraw again.
        """
        for letter, site in self._reset_end.get(bin_index, ()):
            key = (letter, site)
            if key in self._reset_down:
                self.deployments[letter].act(
                    site, ActionKind.ANNOUNCE, timestamp, "fault"
                )
                self._reset_down.discard(key)
        for letter, site in self._reset_begin.get(bin_index, ()):
            if self.deployments[letter].act(
                site, ActionKind.WITHDRAW, timestamp, "fault"
            ):
                self._reset_down.add((letter, site))

    def capacity(
        self, letter: str, bin_index: int, base: np.ndarray
    ) -> np.ndarray:
        """The effective capacity vector for one letter-bin."""
        scale = self._cap_scale.get((letter, bin_index))
        return base if scale is None else base * scale

    def mask_atlas(self, atlas: AtlasDataset) -> None:
        """Blank the observation cells of dropped-out VPs, in place."""
        for bins, vp_idx in self._atlas_masks:
            for obs in atlas.letters.values():
                cells = (
                    (bins, slice(None))
                    if vp_idx is None
                    else np.ix_(bins, vp_idx)
                )
                obs.site_idx[cells] = RESP_NOT_PROBED
                obs.rtt_ms[cells] = np.nan
                obs.server[cells] = 0

    def filter_rssac(
        self, rssac: dict[str, tuple[DailyReport, ...]]
    ) -> dict[str, tuple[DailyReport, ...]]:
        """Drop report days covered by an RSSAC outage; flag each."""
        outages = self.plan.of_type(RssacOutage)
        if not outages:
            return rssac
        filtered: dict[str, tuple[DailyReport, ...]] = {}
        for letter, reports in rssac.items():
            kept: list[DailyReport] = []
            for report in reports:
                hit = any(
                    o.letter == letter
                    and _day_interval(report.date).overlaps(o.interval)
                    for o in outages
                )
                if hit:
                    self._flags.append(
                        QualityFlag(
                            metric="rssac",
                            letter=letter,
                            detail=f"report for {report.date} missing",
                        )
                    )
                else:
                    kept.append(report)
            filtered[letter] = tuple(kept)
        return filtered

    def quality(self) -> DataQuality:
        """The full degradation report for this run."""
        return DataQuality(flags=tuple(self._flags))
