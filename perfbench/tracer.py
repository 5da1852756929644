"""In-memory span tracer that wraps ``repro``'s layers from outside.

The traced run patches each layer's public functions and methods with
a timing wrapper before the workload starts and restores them when it
ends; no code under ``src/`` knows it is being traced.  A module-level
function is replaced at *every* binding site -- every loaded module
whose globals hold the same function object -- because
``from .bgp import propagate`` in ``repro.netsim.anycast`` copies the
reference and patching ``repro.netsim.bgp`` alone would miss it.
Methods are patched on the defining class.

Spans (name, start, end, parent) are appended to a list and only
processed after the run: :meth:`Tracer.layer_totals` gives per-layer
call counts and self times (span time minus child spans), and
:meth:`Tracer.chrome_trace` the Chrome trace-event JSON.  Only the
main thread is traced; forked sweep workers inherit the wrappers but
record nothing (see :func:`os.register_at_fork` in :meth:`install`).
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Hook run after each call of a target: ``(counters, args, kwargs,
#: result)``.  Used to count work where it happens.
Hook = Callable[[dict[str, float], tuple, dict, Any], None]

#: The counters the hooks below increment.
COUNTERS = (
    "scenario.bins_batched", "scenario.bins_per_bin", "atlas.records",
    "core.cleaning.vps", "core.cleaning.kept",
)


def _count_record_bin(
    counters: dict, args: tuple, kwargs: dict, result: Any
) -> None:
    prober = args[0]
    counters["scenario.bins_per_bin"] += 1
    counters["atlas.records"] += len(prober.vps)


def _count_record_bins(
    counters: dict, args: tuple, kwargs: dict, result: Any
) -> None:
    prober = args[0]
    loss = kwargs["loss"] if "loss" in kwargs else args[3]
    n_bins = int(loss.shape[0])
    counters["scenario.bins_batched"] += n_bins
    counters["atlas.records"] += n_bins * len(prober.vps)


def _count_cleaning(
    counters: dict, args: tuple, kwargs: dict, result: Any
) -> None:
    report = result[1]
    counters["core.cleaning.vps"] += report.n_total
    counters["core.cleaning.kept"] += report.n_kept


@dataclass(frozen=True)
class Layer:
    """One layer: a span name and the callables that belong to it.

    A target is ``"module:function"``, ``"module:Class.method"``, or
    ``"module:*"`` for every public function the module defines.
    """

    name: str
    targets: tuple[str, ...]
    hooks: tuple[tuple[str, Hook], ...] = ()


#: The ``repro.core`` analysis modules, one ``core.<module>`` layer each.
CORE_ANALYSES = (
    "rtt", "flips", "catchments", "servers", "collateral", "reachability",
    "correlation", "event_size", "routing_changes",
)

LAYERS: tuple[Layer, ...] = (
    Layer("scenario.substrate", ("repro.scenario.engine:build_substrate",)),
    Layer("scenario.simulate", ("repro.scenario.engine:simulate",)),
    Layer("scenario.batch", ("repro.scenario.batch:run_batched",)),
    Layer("scenario.arrays", ("repro.scenario.arrays:result_arrays",)),
    Layer(
        "rootdns.apply_policies",
        ("repro.rootdns.deployment:LetterDeployment.apply_policies",),
    ),
    Layer("defense.decide", tuple(
        f"repro.defense.controllers:{cls}.decide"
        for cls in (
            "NullController", "StaticPolicyController",
            "GreedyShedController", "OracleController",
        )
    )),
    Layer("netsim.queueing", tuple(
        f"repro.netsim.queueing:OverloadModel.{m}"
        for m in ("evaluate", "utilisation", "loss_fraction", "queue_delay_ms")
    )),
    Layer("netsim.routing", ("repro.netsim.anycast:AnycastPrefix.routing",)),
    Layer("netsim.propagate", (
        "repro.netsim.bgp:propagate", "repro.netsim.bgp:propagate_delta",
    )),
    Layer(
        "netsim.changes_from", ("repro.netsim.bgp:RoutingTable.changes_from",)
    ),
    Layer("faults", tuple(
        f"repro.faults.runtime:FaultRuntime.{m}"
        for m in (
            "__init__", "disruptive_bins", "apply_routing", "capacity",
            "mask_atlas", "filter_rssac", "quality",
        )
    )),
    Layer(
        "atlas.record",
        (
            "repro.atlas.probing:LetterProber.record_bin",
            "repro.atlas.probing:LetterProber.record_bins",
        ),
        hooks=(
            ("repro.atlas.probing:LetterProber.record_bin", _count_record_bin),
            ("repro.atlas.probing:LetterProber.record_bins", _count_record_bins),
        ),
    ),
    Layer("atlas.flush", ("repro.atlas.probing:LetterProber.flush",)),
    Layer("atlas.finish", ("repro.atlas.probing:LetterProber.finish",)),
    Layer("rssac.reports", (
        "repro.rssac.reports:*",
        "repro.rssac.reports:DayAccumulator.add_bin",
        "repro.rssac.reports:DayAccumulator.add_bins",
    )),
    Layer(
        "bgpmon.route_changes",
        ("repro.bgpmon.collector:BgpCollectors.route_changes_per_bin",),
    ),
    Layer(
        "core.cleaning",
        ("repro.core.cleaning:*",),
        hooks=(("repro.core.cleaning:clean_dataset", _count_cleaning),),
    ),
    *(Layer(f"core.{m}", (f"repro.core.{m}:*",)) for m in CORE_ANALYSES),
    Layer("core.results.render", (
        "repro.core.results:SeriesBundle.render",
        "repro.core.results:TableResult.render",
        "repro.core.results:Series.sparkline",
    )),
    Layer("sweep.run", ("repro.sweep.runner:run_sweep",)),
    Layer(
        "sweep.shm.export", ("repro.sweep.shm:export_shared_substrates",)
    ),
    Layer("sweep.run_cells", (
        "repro.sweep.worker:run_cells", "repro.sweep.worker:run_cells_serial",
    )),
)


def _resolve(target: str) -> list[tuple[Any, str, Any]]:
    """``(owner, attribute, original)`` triples *target* names.

    The owner is the defining module for functions and the defining
    class for methods; importing the module here also makes lazily
    imported layers (``repro.scenario.batch``) patchable up front.
    """
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if qualname == "*":
        return [
            (module, name, value)
            for name, value in vars(module).items()
            if inspect.isfunction(value)
            and not name.startswith("_")
            and value.__module__ == module_name
        ]
    owner: Any = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return [(owner, attr, vars(owner)[attr])]


class Tracer:
    """Span recorder plus the patches that feed it.

    Use as a context manager: entering installs the wrappers, leaving
    restores every patched attribute.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, function]`` per span.
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.origin = time.perf_counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._active = False
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        label = getattr(fn, "__qualname__", repr(fn))

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._active or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, label])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Patch every target at every binding site and start tracing."""
        replacements: dict[int, Callable] = {}
        for layer in LAYERS:
            hooks = dict(layer.hooks)
            for target in layer.targets:
                for owner, attr, original in _resolve(target):
                    module_name = target.partition(":")[0]
                    qualname = getattr(original, "__qualname__", attr)
                    hook = hooks.get(f"{module_name}:{qualname}")
                    wrapper = self._wrap(layer.name, original, hook)
                    if isinstance(owner, type):
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
                    else:
                        replacements[id(original)] = wrapper
        # Every original stays alive (its wrapper holds it), so an id
        # match below is the same object, never a recycled id.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._active = True
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self._active = False

    def uninstall(self) -> None:
        self._active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over every recorded span."""
        totals: dict[str, tuple[int, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, seconds = totals.get(span[0], (0, 0.0))
            totals[span[0]] = (calls + 1, seconds + own)
        return totals

    def covered_seconds(self) -> float:
        """Wall time under root spans (those with no parent)."""
        return sum(
            end - start for _, start, end, parent, _ in self.spans if parent < 0
        )

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {"function": function, "parent": parent},
            }
            for name, start, end, parent, function in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def import_times(importtime_stderr: str) -> dict[str, float]:
    """Seconds of import per top-level ``repro`` subpackage.

    Parses ``python -X importtime`` output (post-order, nesting shown
    by indentation) and charges every module's self time to the
    nearest enclosing ``repro.<sub>`` import -- so SciPy, pulled in by
    ``repro.core.correlation``, counts toward ``core``.  Time under
    ``repro`` itself but outside any subpackage goes to ``repro``;
    imports outside any ``repro`` module go to ``other`` -- the
    interpreter's, the benchmark's own, and NumPy, which the workload
    module imports before ``repro``.
    """
    rows: list[tuple[int, float, str]] = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name_field = fields[2]
        depth = (len(name_field) - len(name_field.lstrip(" ")) - 1) // 2
        rows.append((depth, int(fields[0]) / 1e6, name_field.strip()))
    totals: dict[str, float] = {}
    # Post-order: a module's line follows all of its children's, so
    # walk backwards, keeping the chain of enclosing modules.
    chain: list[tuple[int, str]] = []
    for depth, seconds, name in reversed(rows):
        while chain and chain[-1][0] >= depth:
            chain.pop()
        chain.append((depth, name))
        owner = "other"
        for _, enclosing in reversed(chain):
            parts = enclosing.split(".")
            if parts[0] == "repro":
                owner = parts[1] if len(parts) > 1 else "repro"
                break
        totals[owner] = totals.get(owner, 0.0) + seconds
    return totals
