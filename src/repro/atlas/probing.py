"""The probing engine: per-bin CHAOS measurements of one letter.

For every ten-minute bin the scenario engine hands this module the
letter's current conditions -- the routing table (who reaches which
site) and each site's loss fraction and queueing delay -- and the
engine samples what every vantage point would observe:

* the site answering (from the VP's AS catchment),
* the server answering (source-hash load balancing, modified by the
  site's stress behaviour, section 3.5),
* the RTT (geographic baseline + queueing delay + jitter), subject to
  the 5-second Atlas timeout,
* or a failure: timeout (queue drop / no route) or an error RCODE.

Hijacked VPs (section 2.4.1) are answered by a third party regardless
of the letter's state: a non-matching reply with a very short RTT.
A-Root's 30-minute probing cadence leaves 2 of each 3 bins unprobed.

Performance architecture: the engine *records* each bin's conditions
(:meth:`LetterProber.record_bin`/:meth:`LetterProber.record_bins`,
cheap array stores) and all sampling happens in one pass at
:meth:`LetterProber.flush`.  Recorded bins are grouped by ``(routing
table, cadence phase)``: every bin of a group probes the same
hijacked, unrouted and routed VPs, with the same catchment sites,
hash-balanced servers and baseline RTTs.  A group computes the
baseline RTT of its own routed (VP, site) pairs only; no VP-by-site
matrix is built.  Each group then goes through three steps:

* **prepare** -- from the recorded condition matrices, everything the
  draws are compared or combined with: the shed-to-one server choice,
  the per-server loss and delay multipliers, and each routed VP's
  bin-failure probability.  Quiet bins (no loss, nothing overloaded)
  keep the scalar baseline probability and the unmultiplied delay.
* **draw** -- one loop over every group's bins in ascending bin order
  that only draws into per-group blocks: standard normals for hijacked
  answers and for RTT jitter, uniforms compared with the failure
  probabilities, and error-vs-timeout uniforms for the failed VPs.
* **finish** -- block arithmetic: jitter, RTTs, timeouts, outcome
  codes and dtype casts into one narrow block per output, whose
  columns are the routed VPs, the hijacked VPs, a TIMEOUT column and a
  NOT_PROBED column.  The group's column map sends every VP to its
  column, so one ``np.take(..., axis=1)`` per output expands a block
  to whole rows, and each row is stored contiguously: every recorded
  bin belongs to exactly one group, which writes all of its row.  It
  walks each group's rows in chunks of ``_FINISH_CELLS`` output cells:
  temporaries the size of a whole group are fresh allocations whose
  page faults cost more than the arithmetic on them, while chunk-sized
  ones stay in cache and are recycled by the allocator.

Seeded results are bit-identical to sampling bin by bin with
``rng.normal(0.0, sigma, n)`` and ``rng.random(n)``.
``standard_normal(out=)`` and ``random(out=)`` consume the PCG64 stream
exactly as those calls do, and the loop keeps their order and sizes.
``normal`` returns ``0.0 + sigma * z``, which differs from ``sigma * z``
only in the sign of a zero, and ``exp`` and ``1.0 +`` erase that.  Every
other step applies the same elementwise ufunc to the same operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.observations import (
    RESP_BOGUS,
    RESP_ERROR,
    RESP_NOT_PROBED,
    RESP_TIMEOUT,
    LetterObservations,
    VantagePointTable,
)
from ..netsim.bgp import RoutingTable
from ..rootdns.deployment import LetterDeployment
from ..rootdns.servers import (
    server_delay_multipliers,
    server_loss_multipliers,
)
from ..rootdns.sites import ServerBehavior
from ..util.geo import haversine_km_vec, propagation_rtt_ms_vec
from ..util.timegrid import ATLAS_TIMEOUT_MS, TimeGrid

#: Background failure probability of a healthy query (packet loss,
#: probe restarts); keeps the "normal" curves of Fig. 3 mildly noisy.
BASELINE_FAILURE_PROB = 0.005

#: Probability that a failed query surfaces as an error RCODE rather
#: than a timeout (overloaded servers sometimes answer SERVFAIL).
ERROR_GIVEN_FAILURE = 0.1

#: RTT of a hijacker's local answer (the paper flags < 7 ms).
HIJACK_RTT_MS = 3.0

#: Lognormal RTT jitter sigma.
RTT_JITTER_SIGMA = 0.12

#: Output cells (bins x VPs) per row chunk of the finish step (see the
#: module docstring).
_FINISH_CELLS = 1 << 15


@dataclass(frozen=True, slots=True)
class SiteBinConditions:
    """Per-site conditions for one letter in one bin (site order)."""

    loss: np.ndarray          # float64 (n_sites,)
    delay_ms: np.ndarray      # float64 (n_sites,)
    overloaded: np.ndarray    # bool    (n_sites,)

    def __post_init__(self) -> None:
        if not (
            self.loss.shape == self.delay_ms.shape == self.overloaded.shape
        ):
            raise ValueError("condition arrays misaligned")


@dataclass(slots=True)
class _Group:
    """The recorded bins of one ``(routing table, cadence phase)``.

    Row ``k`` of every block belongs to bin ``bins[k]``.  The gathers
    are fixed by the group; :meth:`LetterProber._prepare` fills the
    condition-dependent fields and the draw loop fills the blocks.
    """

    bins: np.ndarray           # ascending recorded bins
    #: Per VP, its column in the finish blocks: routed VPs first (VP
    #: order), then hijacked VPs, then the TIMEOUT column (probed,
    #: healthy, no route) and the NOT_PROBED column (other phases).
    columns: np.ndarray
    n_hijacked: int            # VPs probed this phase and hijacked
    sites: np.ndarray          # site per routed VP
    balanced: np.ndarray       # hash-balanced server per routed VP
    base_rtt: np.ndarray       # baseline RTT per routed VP
    #: Rows of non-quiet bins and, on those rows only, the answering
    #: server and its delay multiplier per routed VP (quiet rows answer
    #: at the balanced server with the unmultiplied delay).
    noisy: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    chosen: np.ndarray | None = None
    delay_mult: np.ndarray | None = None
    #: Per row: the bin-failure probability, a scalar on quiet rows.
    fail_prob: list = field(default_factory=list)
    hijack: np.ndarray | None = None   # standard normals
    jitter: np.ndarray | None = None   # standard normals
    failed: np.ndarray | None = None   # uniform < fail_prob
    #: Per row: the failed VPs' error-vs-timeout uniforms, or None.
    errors: list[np.ndarray | None] = field(default_factory=list)


class LetterProber:
    """Samples one letter's observations bin by bin."""

    def __init__(
        self,
        deployment: LetterDeployment,
        vps: VantagePointTable,
        grid: TimeGrid,
        rng: np.random.Generator,
    ) -> None:
        self.deployment = deployment
        self.vps = vps
        self.grid = grid
        self.rng = rng
        self.letter = deployment.letter
        self.site_codes = list(deployment.site_order)
        n_vps = len(vps)
        n_sites = len(self.site_codes)

        # Site coordinates for the groups' baseline RTTs.
        self._site_lats = np.array(
            [s.location.lat for s in deployment.spec.sites]
        )
        self._site_lons = np.array(
            [s.location.lon for s in deployment.spec.sites]
        )

        # Source hashes for load balancing; stable per VP.
        self.vp_hashes = (vps.ids * np.int64(2654435761)) & np.int64(
            0x7FFFFFFF
        )

        # Probing cadence: A-Root was probed every 30 minutes, giving
        # one probe per three bins; the other letters probe every four
        # minutes, giving 2.5 probes per ten-minute bin.  Bins prefer a
        # site answer over errors over missing (section 2.4.1), so a
        # bin succeeds when *any* of its probes succeeds.
        interval = deployment.spec.probe_interval_s
        self.bins_per_probe = max(1, interval // grid.bin_seconds)
        self.probes_per_bin = max(1.0, grid.bin_seconds / interval)
        self.probe_phase = rng.integers(
            self.bins_per_probe, size=n_vps
        )

        self.n_servers = np.array(
            [s.n_servers for s in deployment.spec.sites], dtype=np.int64
        )

        # Per-site server-behaviour tables, padded to the widest site:
        # row i scales loss/delay for queries answered at site i's
        # server j+1 while the site is overloaded (rows are all-ones
        # when not overloaded).  SHED_TO_ONE redirection is handled
        # via ``shed_flags`` plus the per-bin shed-server snapshot.
        max_servers = int(self.n_servers.max())
        self._over_loss = np.ones((n_sites, max_servers))
        self._over_delay = np.ones((n_sites, max_servers))
        self._shed_flags = np.zeros(n_sites, dtype=bool)
        for i, spec in enumerate(deployment.spec.sites):
            k = spec.n_servers
            self._over_loss[i, :k] = server_loss_multipliers(
                spec.server_behavior, spec.code, k, overloaded=True
            )
            self._over_delay[i, :k] = server_delay_multipliers(
                spec.server_behavior, spec.code, k, overloaded=True
            )
            self._shed_flags[i] = (
                spec.server_behavior is ServerBehavior.SHED_TO_ONE
            )

        # Output matrices.
        self.site_idx = np.full(
            (grid.n_bins, n_vps), RESP_NOT_PROBED, dtype=np.int16
        )
        self.rtt_ms = np.full((grid.n_bins, n_vps), np.nan, dtype=np.float32)
        self.server = np.zeros((grid.n_bins, n_vps), dtype=np.int16)

        # Deferred per-bin conditions, filled by record_bin and
        # consumed in one batched pass by finish().
        self._cond_loss = np.zeros((grid.n_bins, n_sites))
        self._cond_delay = np.zeros((grid.n_bins, n_sites))
        self._cond_over = np.zeros((grid.n_bins, n_sites), dtype=bool)
        self._shed_of_bin = np.ones((grid.n_bins, n_sites), dtype=np.int64)
        #: The routing table each recorded bin saw (``None`` elsewhere).
        self._table_of_bin: list[RoutingTable | None] = [None] * grid.n_bins
        self._recorded = np.zeros(grid.n_bins, dtype=bool)
        self._flushed = False

        # VPs never change AS, so each table lookup reads the distinct
        # VP ASNs and fans the sites back out to the VPs.
        self._code_to_idx = {c: i for i, c in enumerate(self.site_codes)}
        uniq, self._vp_asn_inverse = np.unique(
            vps.asns, return_inverse=True
        )
        self._vp_asns = uniq.astype(np.int64)

    def _vp_site_indices(self, table: RoutingTable) -> np.ndarray:
        """Site index per VP (-1 when the VP's AS has no route)."""
        sites = table.sites_of(self._vp_asns, self._code_to_idx)
        return sites.astype(np.int64)[self._vp_asn_inverse]

    def record_bin(
        self,
        bin_index: int,
        table: RoutingTable,
        conditions: SiteBinConditions,
    ) -> None:
        """Record one bin's conditions for the batched sampling pass.

        Snapshots everything time-varying (conditions, the shed-server
        rotation state) so the deferred pass reproduces exactly what
        immediate sampling would have seen.
        """
        if self._flushed:
            raise RuntimeError("prober already finished")
        self._table_of_bin[bin_index] = table
        self._cond_loss[bin_index] = conditions.loss
        self._cond_delay[bin_index] = conditions.delay_ms
        self._cond_over[bin_index] = conditions.overloaded
        states = self.deployment.states
        self._shed_of_bin[bin_index] = [
            states[c].shed_server for c in self.site_codes
        ]
        self._recorded[bin_index] = True

    def record_bins(
        self,
        start: int,
        table: RoutingTable,
        loss: np.ndarray,
        delay_ms: np.ndarray,
        overloaded: np.ndarray,
        shed: list[int],
    ) -> None:
        """Batched :meth:`record_bin` over one contiguous segment.

        All bins of the segment share one routing table and one
        shed-server snapshot *shed* (site order); the condition
        matrices are ``(n_bins_seg, n_sites)``.  The engine records a
        segment after its last bin's policies ran, and a restore there
        may already have rotated the deployment's shed server, so the
        caller passes the snapshot it took at segment start.
        """
        if self._flushed:
            raise RuntimeError("prober already finished")
        stop = start + loss.shape[0]
        self._table_of_bin[start:stop] = [table] * (stop - start)
        self._cond_loss[start:stop] = loss
        self._cond_delay[start:stop] = delay_ms
        self._cond_over[start:stop] = overloaded
        self._shed_of_bin[start:stop] = shed
        self._recorded[start:stop] = True

    def _group(
        self, table: RoutingTable, phase: int, bins: list[int]
    ) -> _Group | None:
        """The gathers of one group; ``None`` when it probes no VP."""
        probed = (
            (phase + self.probe_phase) % self.bins_per_probe == 0
        )
        if not probed.any():
            return None
        vp_site = self._vp_site_indices(table)
        hijacked = self.vps.hijacked
        active = probed & ~hijacked
        routed_idx = np.flatnonzero(active & (vp_site >= 0))
        hijacked_idx = np.flatnonzero(probed & hijacked)
        n_routed, n_hijacked = routed_idx.size, hijacked_idx.size
        timeout_col = n_routed + n_hijacked
        columns = np.where(active, timeout_col, timeout_col + 1)
        columns[routed_idx] = np.arange(n_routed)
        columns[hijacked_idx] = np.arange(n_routed, timeout_col)
        sites = vp_site[routed_idx]
        distances = haversine_km_vec(
            self.vps.lats[routed_idx], self.vps.lons[routed_idx],
            self._site_lats[sites], self._site_lons[sites],
        )
        return _Group(
            bins=np.asarray(bins),
            columns=columns,
            n_hijacked=n_hijacked,
            sites=sites,
            balanced=self.vp_hashes[routed_idx] % self.n_servers[sites] + 1,
            base_rtt=propagation_rtt_ms_vec(distances),
        )

    def _check_shed(self, groups: list[_Group]) -> None:
        """Raise for the first bin that sheds to a nonexistent server.

        Only an overloaded shed-to-one site answering some routed VP
        consults its shed server, and the first such bin in ascending
        order names the error, as sampling bin by bin would.
        """
        shed = self._shed_of_bin
        bad = (
            self._cond_over
            & self._shed_flags
            & ((shed < 1) | (shed > self.n_servers))
        )
        if not bad.any():
            return
        first: tuple[int, int] | None = None
        for g in groups:
            cells = bad[np.ix_(g.bins, g.sites)]
            rows = np.flatnonzero(cells.any(axis=1))
            if rows.size:
                b = int(g.bins[rows[0]])
                site = int(g.sites[cells[rows[0]]].min())
                if first is None or b < first[0]:
                    first = (b, site)
        if first is not None:
            b, i = first
            raise ValueError(
                f"shed server {int(shed[b, i])} out of range"
                f" 1..{int(self.n_servers[i])}"
            )

    def _prepare(
        self, g: _Group, quiet: np.ndarray, baseline_bin_fail: np.floating
    ) -> None:
        """Server choice, multipliers and failure probabilities of *g*,
        plus the empty blocks the draw loop fills."""
        n_bins, n_routed = g.bins.size, g.sites.size
        if g.n_hijacked:
            g.hijack = np.empty((n_bins, g.n_hijacked))
        if n_routed == 0:
            return
        g.jitter = np.empty((n_bins, n_routed))
        g.failed = np.empty((n_bins, n_routed), dtype=bool)
        g.errors = [None] * n_bins
        g.fail_prob = [baseline_bin_fail] * n_bins
        g.noisy = np.flatnonzero(~quiet[g.bins])
        if g.noisy.size == 0:
            return
        sites = g.sites
        cells = np.ix_(g.bins[g.noisy], sites)
        over = self._cond_over[cells]
        g.chosen = np.where(
            over & self._shed_flags[sites],
            self._shed_of_bin[cells],
            g.balanced,
        )
        loss = np.clip(
            self._cond_loss[cells]
            * np.where(over, self._over_loss[sites, g.chosen - 1], 1.0),
            0.0,
            1.0,
        )
        g.delay_mult = np.where(
            over, self._over_delay[sites, g.chosen - 1], 1.0
        )
        # A bin fails only when every probe in it fails.
        fail_prob = (
            np.clip(loss + BASELINE_FAILURE_PROB, 0.0, 1.0)
            ** self.probes_per_bin
        )
        for row, probs in zip(g.noisy.tolist(), fail_prob):
            g.fail_prob[row] = probs

    @staticmethod
    def _block_index(bins: np.ndarray) -> slice | np.ndarray:
        """The rows of one group's bins in the output matrices.

        Probe phases stride the bin axis evenly, so a group's bins are
        almost always an arithmetic progression, which a basic row
        slice addresses without a fancy index; irregular bins (a
        recurring routing table) keep the index array.
        """
        steps = np.diff(bins)
        step = int(steps[0]) if steps.size else 1
        if bool((steps == step).all()):
            return slice(int(bins[0]), int(bins[-1]) + 1, step)
        return bins

    def _finish_group(self, g: _Group) -> None:
        """Turn *g*'s drawn blocks into outcomes and store its rows."""
        step = max(1, _FINISH_CELLS // len(self.vps))
        for lo in range(0, g.bins.size, step):
            self._finish_rows(g, lo, min(lo + step, g.bins.size))

    def _finish_rows(self, g: _Group, lo: int, hi: int) -> None:
        """Whole output rows of *g*'s bins ``lo:hi``."""
        rows = self._block_index(g.bins[lo:hi])
        n_routed = g.sites.size
        timeout_col = n_routed + g.n_hijacked
        shape = (hi - lo, timeout_col + 2)
        codes = np.empty(shape, dtype=np.int16)
        rtt_ms = np.empty(shape, dtype=np.float32)
        server = np.zeros(shape, dtype=np.int16)
        codes[:, timeout_col] = RESP_TIMEOUT
        codes[:, timeout_col + 1] = RESP_NOT_PROBED
        rtt_ms[:, timeout_col:] = np.nan
        if g.hijack is not None:
            codes[:, n_routed:timeout_col] = RESP_BOGUS
            rtt_ms[:, n_routed:timeout_col] = HIJACK_RTT_MS * (
                1.0 + (0.1 * g.hijack[lo:hi]).clip(-0.3, 0.3)
            )
        if g.jitter is not None:
            delay = np.take(self._cond_delay[rows], g.sites, axis=1)
            chosen = np.broadcast_to(
                g.balanced.astype(np.int16), delay.shape
            )
            first, stop = np.searchsorted(g.noisy, (lo, hi)).tolist()
            if first < stop:
                noisy = g.noisy[first:stop] - lo
                delay[noisy] *= g.delay_mult[first:stop]
                chosen = chosen.copy()
                chosen[noisy] = g.chosen[first:stop]
            rtts = (
                g.base_rtt * np.exp(RTT_JITTER_SIGMA * g.jitter[lo:hi])
                + delay
            )
            failed = g.failed[lo:hi]
            routed = codes[:, :n_routed]
            routed[:] = g.sites
            errors = [e for e in g.errors[lo:hi] if e is not None]
            if errors:
                routed[failed] = np.where(
                    np.concatenate(errors) < ERROR_GIVEN_FAILURE,
                    RESP_ERROR,
                    RESP_TIMEOUT,
                )
            routed[(rtts > ATLAS_TIMEOUT_MS) & ~failed] = RESP_TIMEOUT
            ok = routed >= 0
            rtt_ms[:, :n_routed] = np.where(ok, rtts, np.nan)
            server[:, :n_routed] = np.where(ok, chosen, 0)
        self.site_idx[rows] = np.take(codes, g.columns, axis=1)
        self.rtt_ms[rows] = np.take(rtt_ms, g.columns, axis=1)
        self.server[rows] = np.take(server, g.columns, axis=1)

    def flush(self) -> None:
        """Sample every recorded bin: prepare, draw, finish.

        The draw loop visits bins in ascending order, so the seeded RNG
        sequence matches sampling bin by bin exactly.  The quiet-bin
        baseline failure probability goes through the same ufunc
        (array ** float) as the non-quiet probabilities, so the compared
        bits are identical.
        """
        if self._flushed:
            return
        by_key: dict[tuple[RoutingTable | None, int], list[int]] = {}
        tables = self._table_of_bin
        for b in np.flatnonzero(self._recorded).tolist():
            by_key.setdefault(
                (tables[b], b % self.bins_per_probe), []
            ).append(b)
        candidates = (self._group(*key, bins) for key, bins in by_key.items())
        groups = [g for g in candidates if g is not None]
        self._check_shed(groups)
        quiet = ~(
            self._cond_loss.any(axis=1) | self._cond_over.any(axis=1)
        )
        baseline_bin_fail = (
            np.asarray([BASELINE_FAILURE_PROB]) ** self.probes_per_bin
        )[0]
        steps: list[tuple[_Group, int] | None] = [None] * self.grid.n_bins
        for g in groups:
            self._prepare(g, quiet, baseline_bin_fail)
            for k, b in enumerate(g.bins.tolist()):
                steps[b] = (g, k)

        standard_normal = self.rng.standard_normal
        random = self.rng.random
        for step in steps:
            if step is None:
                continue
            g, k = step
            if g.hijack is not None:
                standard_normal(out=g.hijack[k])
            if g.jitter is None:
                continue
            # The row holds the failure uniforms until the jitter
            # normals overwrite them.
            row = g.jitter[k]
            random(out=row)
            n_failed = np.count_nonzero(
                np.less(row, g.fail_prob[k], out=g.failed[k])
            )
            standard_normal(out=row)
            if n_failed:
                g.errors[k] = random(n_failed)

        for g in groups:
            self._finish_group(g)
        self._flushed = True

    def finish(self) -> LetterObservations:
        """Run any pending sampling and package the filled matrices."""
        self.flush()
        return LetterObservations(
            letter=self.letter,
            site_codes=self.site_codes,
            site_idx=self.site_idx,
            rtt_ms=self.rtt_ms,
            server=self.server,
        )
