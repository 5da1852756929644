"""Segment-batched engine execution.

The reference bin loop (:func:`repro.scenario.engine._run_bin`) walks
the window one ten-minute bin at a time: four python passes per bin,
per-site dict bookkeeping, one small :meth:`OverloadModel.evaluate`
per letter-bin.  Almost all of that state is piecewise-constant: the
routing tables only change when a policy or controller acts or a fault
flaps a session, and outside the attack events every site sits far
below its loss knee.  This module exploits that structure without
changing a single output bit.

The window is partitioned into maximal *segments* -- contiguous runs
of bins where, for every letter,

* no scheduled fault perturbs routing or capacity
  (:meth:`FaultRuntime.disruptive_bins`; those bins run through the
  per-bin reference path), and
* no letter's control loop -- its policies or its pluggable
  controller -- acts, so each letter's routing table (and with it
  every per-epoch share vector) is constant across the run.

Within a segment everything is computed as ``(n_bins_seg, n_sites)``
matrices: bin centres, baseline rates, attack rates, offered loads as
rank-1 updates against the cached per-epoch share vectors, one
:meth:`OverloadModel.evaluate` per letter-segment, batched prober /
.nl / truth / RSSAC folds.  The only genuinely sequential quantity is
the letter-flip ``retry_spill`` feedback, which is carried through the
segment as a cheap per-bin scalar recurrence.

Bit-identity argument (validated by
``tests/scenario/test_engine_batch.py``):

* All matrix operations here are elementwise or row-wise over the same
  float64 values the per-bin path uses; NumPy evaluates them with the
  same scalar semantics, so rows of a batched result equal the
  per-bin vectors bit for bit.  In particular ``(legit + spill)``
  is summed *before* the share multiply, never distributed.
* Conservative gates (with a relative slack far above accumulated
  rounding error) decide per bin whether every site is strictly below
  the loss knee and every facility strictly below its shared ingress.
  Gated-quiet bins have loss exactly ``0.0`` and empty facility
  spillover by construction of the overload model, so their spill
  contribution collapses to the unrouted term.  Gate failure never
  changes values -- it only routes the bin through the exact per-bin
  arithmetic (small vectors, the real ``spillover`` walk).
* The scan runs the real :meth:`LetterDeployment.apply_policies` for
  every letter after each bin's losses, in letter order as the per-bin
  path does, and ends the segment at the first bin where a call logs a
  policy event (every action it takes is logged, routing changes
  included).  A letter is skipped only
  when it is *idle*: its deployment is quiet
  (:meth:`LetterDeployment.is_quiet`) and the bin passed the quiet
  gate.  Gated bins keep every utilisation at or below the loss knee
  (<= 1), and withdraw thresholds exceed 1, so the skipped call would
  have been a no-op.  Segment outputs are recorded after the last
  bin's policy calls, so everything they read from the deployments
  (routing table, announced mask, shed-server rotation) is snapshot
  at segment start.
* Controller letters call the real ``controller.decide()`` every bin,
  in the same letter-order loop, with the bin's offered and combined
  loss rows (all-zero loss in gated bins, as the per-bin path
  computes it there).  Any action ends the segment, so the announced
  and partial flags each observation reports are read once per
  segment.  Controllers observe every bin, so a run with any never
  skips quiet runs of bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..attack.events import active_event_index, attack_rates
from ..attack.workload import retry_spill
from ..dns.message import make_query
from ..netsim.bgp import RoutingTable
from ..rootdns.deployment import LetterDeployment
from .engine import (
    OVERLOAD_RHO,
    _EpochData,
    _RunState,
    _epoch_for,
    _run_bin,
    _run_controller,
    _site_flags,
)

if TYPE_CHECKING:
    from ..defense.controllers import Controller

#: Relative slack applied to the conservative quiet-bin gates.  The
#: gate expressions accumulate a handful of float64 roundings (each a
#: ~1e-16 relative error), so a 1e-9 margin is far beyond any possible
#: discrepancy between the bound and the exactly-computed quantity
#: while remaining negligible against the knee (0.95) and facility
#: headroom it guards.
_GATE_SLACK = 1e-9


@dataclass(slots=True)
class _LetterSegment:
    """Per-letter precomputed state for one candidate segment."""

    dep: LetterDeployment
    table: RoutingTable
    ed: _EpochData
    capacity: np.ndarray
    announced: np.ndarray
    attack_vec: np.ndarray        # (nb_max,)
    legit_vec: np.ndarray         # (nb_max,)
    attack_site_mat: np.ndarray   # (nb_max, n_sites)
    base_mat: np.ndarray          # offered load excluding spill
    rho0_max: np.ndarray          # (nb_max,) spill-free rho upper rows
    spill_over_cap: float         # max(legit_share / capacity)
    quiet: bool                   # deployment in its normal state
    shed: list[int]               # shed-server snapshot, site order
    unrouted_lost: float          # max(0.0, 1 - legit_total), per bin
    spill_arr: np.ndarray         # (nb_max,) spill entering each bin
    #: The letter's pluggable controller and the ``_site_flags`` it
    #: observes all segment long; ``None`` runs ``apply_policies``.
    controller: tuple[Controller, tuple[list[bool], list[bool]]] | None
    extra_rows: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(slots=True)
class _SpanCache:
    """Whole-run arrays shared by every segment.

    Workload and attack rates depend only on the bin timestamps, and
    the share-product matrices only on ``(letter, table.version)`` on
    top of that; both are computed elementwise, so a slice of the
    full-span array is bit-identical to computing the same expression
    on the sliced timestamp vector.  Segments therefore slice instead
    of recomputing.  ``mat`` keeps only each letter's current routing
    version: a controller run can visit over a hundred routing tables,
    and a full-span matrix for each would dominate peak memory.  The
    entry also pins the capacity base array: cap-scale faults only act
    inside per-bin fault bins (never within a segment), so the base
    object is stable, but a changed object invalidates the entry
    defensively.
    """

    tc_full: np.ndarray
    active_full: np.ndarray
    nl_full: np.ndarray | None
    vec: dict[str, tuple[np.ndarray, np.ndarray]]
    mat: dict[
        str,
        tuple[int, np.ndarray, np.ndarray, np.ndarray, float, np.ndarray],
    ]


def _prepare_letter(
    state: _RunState,
    letter: str,
    start: int,
    limit: int,
    cache: _SpanCache,
) -> _LetterSegment:
    """Resolve one letter's routing-constant arrays for a segment."""
    dep = state.deployments[letter]
    table, ed = _epoch_for(state, letter)
    capacity = dep.capacity_vector
    announced = dep.announced_mask()
    vecs = cache.vec.get(letter)
    if vecs is None:
        vecs = (
            attack_rates(state.config.events, letter, cache.tc_full),
            state.workloads[letter].rates_at(cache.tc_full),
        )
        cache.vec[letter] = vecs
    attack_vec = vecs[0][start:limit]
    legit_vec = vecs[1][start:limit]
    mats = cache.mat.get(letter)
    if (
        mats is None
        or mats[0] != table.version
        or mats[5] is not capacity
    ):
        asm_full = vecs[0][:, None] * ed.bot_share[None, :]
        base_full = (
            asm_full + vecs[1][:, None] * ed.legit_share[None, :]
        )
        mats = (
            table.version,
            asm_full,
            base_full,
            (base_full / capacity).max(axis=1),
            float((ed.legit_share / capacity).max()),
            capacity,
        )
        cache.mat[letter] = mats
    attack_site_mat = mats[1][start:limit]
    base_mat = mats[2][start:limit]
    rho0_max = mats[3][start:limit]
    spill_over_cap = mats[4]
    controller = state.controllers.get(letter)

    return _LetterSegment(
        dep=dep,
        table=table,
        ed=ed,
        capacity=capacity,
        announced=announced,
        attack_vec=attack_vec,
        legit_vec=legit_vec,
        attack_site_mat=attack_site_mat,
        base_mat=base_mat,
        rho0_max=rho0_max,
        spill_over_cap=spill_over_cap,
        quiet=dep.is_quiet(),
        shed=[dep.states[c].shed_server for c in dep.site_order],
        unrouted_lost=max(0.0, 1.0 - ed.legit_total),
        spill_arr=np.zeros(limit - start),
        controller=(
            (controller, _site_flags(dep))
            if controller is not None
            else None
        ),
    )


def _facility_margins(
    state: _RunState,
    segs: dict[str, _LetterSegment],
    nl_mat: np.ndarray | None,
    nb_max: int,
) -> np.ndarray:
    """Per-bin headroom of the tightest facility, spill excluded.

    ``margins[i]`` is ``min_f (capacity_f - (1 + slack) * base_f[i])``
    over all facilities *f*, where ``base_f`` sums the spill-free
    offered load of every member.  A bin whose total spill (a further
    upper bound on what spill can add to any one facility) fits under
    this margin cannot overflow any facility, so the real
    :meth:`FacilityRegistry.spillover` walk would return ``{}``.
    """
    label_cols: dict[str, np.ndarray] = {}
    for seg in segs.values():
        for i, label in enumerate(seg.dep.site_labels):
            label_cols[label] = seg.base_mat[:, i]
    if state.nl is not None and nl_mat is not None:
        for j, name in enumerate(state.nl.node_labels):
            label_cols[name] = nl_mat[:, j]
    margins = np.full(nb_max, np.inf)
    for _facility, cap, members in state.facilities.spillover_layout():
        base = np.zeros(nb_max)
        for member in members:
            col = label_cols.get(member.label)
            if col is not None:
                base = base + col
        margins = np.minimum(margins, cap - base * (1.0 + _GATE_SLACK))
    return margins


def run_batched(state: _RunState) -> None:
    """Drive the whole bin loop, batching across maximal segments."""
    faults = state.faults
    fault_bins = (
        faults.disruptive_bins() if faults is not None else frozenset()
    )
    grid = state.grid
    n_bins = grid.n_bins
    ts_full = grid.bin_start(0) + np.arange(
        n_bins, dtype=np.int64
    ) * grid.bin_seconds
    tc_full = ts_full + grid.bin_seconds / 2.0
    cache = _SpanCache(
        tc_full=tc_full,
        active_full=active_event_index(state.config.events, tc_full),
        nl_full=(
            state.nl.node_offered_matrix(tc_full)
            if state.nl is not None
            else None
        ),
        vec={},
        mat={},
    )
    b = 0
    while b < n_bins:
        if b in fault_bins:
            _run_bin(state, b)
            b += 1
            continue
        limit = b + 1
        while limit < n_bins and limit not in fault_bins:
            limit += 1
        b = _run_segment(state, b, limit, cache)


def _run_segment(
    state: _RunState, start: int, limit: int, cache: _SpanCache
) -> int:
    """Run bins ``start..end`` batched (``end < limit``); return
    ``end + 1``.

    The segment ends early -- at the first bin where a letter's
    ``apply_policies`` logs a policy event or its controller issues an
    action -- or at *limit*.  That bin is part of the segment: the
    reference path also records a bin *before* its control loop runs.
    """
    grid = state.grid
    config = state.config
    letters = state.letters
    nb_max = limit - start

    segs = {
        letter: _prepare_letter(state, letter, start, limit, cache)
        for letter in letters
    }
    nl = state.nl
    nl_mat = cache.nl_full[start:limit] if cache.nl_full is not None else None
    nl_labels = nl.node_labels if nl is not None else []
    nl_extra_rows: dict[int, np.ndarray] = {}
    margins = _facility_margins(state, segs, nl_mat, nb_max)
    active_idx = cache.active_full[start:limit]
    knee = config.overload.loss_knee
    overload = config.overload

    spill = state.spill
    end_off = nb_max - 1

    # Pure-quiet bins with zero inbound spill are fully predictable:
    # losses are identically 0.0 (``unrouted_lost == 0`` and gated
    # loss is exactly zero), so spill stays the all-zero dict, and
    # with every deployment quiet every letter is idle.  Runs of such
    # bins are skipped in one step; ``retry_spill`` on all-zero losses
    # reproduces the all-zero dict the reference carries.  Controllers
    # observe every bin, so a run with any never skips.
    skippable = quiet0 = None
    if (
        not state.controllers
        and all(seg.quiet for seg in segs.values())
        # unrouted_lost is max(0, .); <= 0 is an exact zero test.
        and all(seg.unrouted_lost <= 0.0 for seg in segs.values())
    ):
        quiet0 = margins >= 0.0
        for seg in segs.values():
            quiet0 &= seg.rho0_max * (1.0 + _GATE_SLACK) <= knee
        skippable = quiet0

    off = 0
    while off < nb_max:
        if (
            skippable is not None
            and skippable[off]
            # Spill terms are non-negative, so <= 0 tests exact zero.
            and all(v <= 0.0 for v in spill.values())
        ):
            nz = np.flatnonzero(~skippable[off:])
            run = int(nz[0]) if nz.size else nb_max - off
            spill = retry_spill(
                {letter: 0.0 for letter in letters}, letters
            )
            off += run
            continue
        for letter in letters:
            segs[letter].spill_arr[off] = spill[letter]
        total_spill = 0.0
        for letter in letters:
            total_spill += spill[letter]

        exact = total_spill * (1.0 + _GATE_SLACK) > margins[off]
        if not exact:
            for letter in letters:
                seg = segs[letter]
                bound = float(seg.rho0_max[off]) + (
                    spill[letter] * seg.spill_over_cap
                )
                if bound * (1.0 + _GATE_SLACK) > knee:
                    exact = True
                    break

        # Exact bins replay the reference arithmetic on small vectors:
        # the spill-dependent offered rows, the real facility walk,
        # per-letter loss.  Quiet bins have loss exactly 0 and no
        # spillover, so only the unrouted spill term survives.
        # ``control`` holds (utilisation, offered, combined loss) rows
        # for every letter the control loop visits this bin.
        losses: dict[str, float] = {}
        control: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if exact:
            offered_by_label: dict[str, float] = {}
            rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for letter in letters:
                seg = segs[letter]
                attack_site = seg.attack_site_mat[off]
                legit_site = (
                    seg.legit_vec[off] + spill[letter]
                ) * seg.ed.legit_share
                offered = attack_site + legit_site
                labels = seg.dep.site_labels
                for i in np.flatnonzero(offered > 0):
                    offered_by_label[labels[i]] = float(offered[i])
                rows[letter] = (legit_site, offered)
            if nl_mat is not None:
                for j, name in enumerate(nl_labels):
                    offered_by_label[name] = float(nl_mat[off, j])
            facility_extra = state.facilities.spillover(offered_by_label)
            if nl is not None:
                nl_extra_rows[off] = np.array(
                    [facility_extra.get(n, 0.0) for n in nl_labels]
                )
            for letter in letters:
                seg = segs[letter]
                legit_site, offered = rows[letter]
                rho, loss, _delay = overload.evaluate(
                    offered, seg.capacity
                )
                extra = np.array(
                    [
                        facility_extra.get(label, 0.0)
                        for label in seg.dep.site_labels
                    ]
                )
                seg.extra_rows[off] = extra
                combined = 1.0 - (1.0 - loss) * (1.0 - extra)
                lost = float((legit_site * combined).sum())
                lost += seg.unrouted_lost * (
                    seg.legit_vec[off] + spill[letter]
                )
                losses[letter] = lost
                control[letter] = (rho, offered, combined)
        else:
            for letter in letters:
                seg = segs[letter]
                legit_qps = seg.legit_vec[off] + spill[letter]
                losses[letter] = seg.unrouted_lost * legit_qps
                if not seg.quiet or seg.controller is not None:
                    offered = (
                        seg.attack_site_mat[off]
                        + legit_qps * seg.ed.legit_share
                    )
                    control[letter] = (
                        offered / seg.capacity,
                        offered,
                        np.zeros_like(offered),
                    )

        spill = retry_spill(
            {letter: losses[letter] for letter in letters}, letters
        )
        # The control loop, as at the end of a per-bin pass; policy
        # letters without a row are idle this bin.  Every action
        # ``apply_policies`` takes is logged -- each routing change,
        # and a restore that rotates the shed server even when routing
        # stays put -- so a longer log ends the segment here, as does
        # any controller action.
        b = start + off
        timestamp = float(grid.bin_start(b) + grid.bin_seconds)
        acted = False
        for letter, (rho, offered, combined) in control.items():
            seg = segs[letter]
            if seg.controller is not None:
                controller, flags = seg.controller
                acted = _run_controller(
                    controller, seg.dep, b, seg.capacity, offered,
                    combined, flags, timestamp,
                ) or acted
                continue
            n_logged = len(seg.dep.policy_log)
            seg.dep.apply_policies(
                rho,
                letter_under_attack=bool(seg.attack_vec[off] > 0),
                timestamp=timestamp,
            )
            acted = acted or len(seg.dep.policy_log) > n_logged
        if acted:
            end_off = off
            break
        off += 1

    state.spill = spill
    nb = end_off + 1

    # --- Batched outputs for bins start..start+nb-1. -------------------
    date_of = [
        (start + off) * grid.bin_seconds // 86_400 for off in range(nb)
    ]
    for letter in letters:
        seg = segs[letter]
        spill_arr = seg.spill_arr[:nb]
        legit_offered_vec = seg.legit_vec[:nb] + spill_arr
        legit_site_mat = (
            legit_offered_vec[:, None] * seg.ed.legit_share[None, :]
        )
        offered_mat = seg.attack_site_mat[:nb] + legit_site_mat
        rho_mat, loss_mat, delay_mat = overload.evaluate(
            offered_mat, seg.capacity
        )
        delay_mat = np.minimum(delay_mat, state.buffer_caps[letter])
        extra_mat = np.zeros_like(loss_mat)
        for off, row in seg.extra_rows.items():
            if off < nb:
                extra_mat[off] = row
        combined = 1.0 - (1.0 - loss_mat) * (1.0 - extra_mat)
        overloaded = rho_mat > OVERLOAD_RHO
        state.probers[letter].record_bins(
            start, seg.table, combined, delay_mat, overloaded, seg.shed
        )

        t = state.truth[letter]
        sl = slice(start, start + nb)
        t.offered_qps[sl] = offered_mat
        t.loss[sl] = combined
        t.delay_ms[sl] = delay_mat
        t.announced[sl] = seg.announced
        t.epoch_of_bin[sl] = seg.ed.epoch

        accepted = 1.0 - combined
        attack_acc = (seg.attack_site_mat[:nb] * accepted).sum(axis=1)
        legit_acc = (legit_site_mat * accepted).sum(axis=1)
        t.legit_offered_qps[sl] = legit_offered_vec
        t.legit_served_qps[sl] = legit_acc
        spill_frac = np.zeros(nb)
        np.divide(
            spill_arr,
            legit_offered_vec,
            out=spill_frac,
            where=legit_offered_vec > 0,
        )

        qp = np.full(nb, -1, dtype=np.int64)
        rp = np.full(nb, -1, dtype=np.int64)
        payload_mask = (active_idx[:nb] >= 0) & (seg.attack_vec[:nb] > 0)
        for off in np.flatnonzero(payload_mask):
            ev = config.events[int(active_idx[off])]
            size = state.qname_sizes.get(ev.qname)
            if size is None:
                size = make_query(0, ev.qname).wire_size
                state.qname_sizes[ev.qname] = size
            qp[off] = size
            rp[off] = ev.response_wire_bytes - 40

        legit_kept = legit_acc * (1.0 - spill_frac)
        spill_kept = legit_acc * spill_frac
        off = 0
        while off < nb:
            stop = off
            while stop < nb and date_of[stop] == date_of[off]:
                stop += 1
            acc = state.accumulators[letter][
                state.day_dates[date_of[off]]
            ]
            acc.add_bins(
                legit_kept[off:stop],
                spill_kept[off:stop],
                attack_acc[off:stop],
                grid.bin_seconds,
                qp[off:stop],
                rp[off:stop],
            )
            off = stop

    if nl is not None and nl_mat is not None:
        nl_extra = np.zeros((nb, len(nl_labels)))
        for off, row in nl_extra_rows.items():
            if off < nb:
                nl_extra[off] = row
        nl.record_bins(start, nl_mat[:nb], nl_extra)

    return start + nb
