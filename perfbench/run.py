"""End-to-end benchmark of the paper pipeline, with a traced breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep --seed 7 --seconds 30 --trace 1
    python3 perfbench/run.py --workload paper --record --seeds 0-31,42

Workloads (``paper``, ``playbook``, ``sweep``) are described in
``perfbench/workloads.py``.  Each measured run is a *cold*
run: a fresh interpreter (``perfbench/child.py``) that imports,
simulates, renders and digests once, as ``scripts/run_paper.py`` users
run it.  Warm repeats inside one process would measure a different
program: a second serial run of the ``sweep`` grid in one process did
0 routing propagations instead of 37 (the substrate routing memo was
full) and the process's peak RSS grew from 181 MB to 614 MB.  So this
script makes cold runs back to back for about ``--seconds`` (at least
three), each followed by an import-only interpreter that adds a
``setup_s`` sample, and reports medians.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s`` -- one workload run, from the first call into ``repro``
  after the imports to the last output digested;
* ``setup_s`` -- process start to ready: interpreter start plus the
  repro/numpy/scipy imports;
* ``peak_rss_mb`` -- the run's peak RSS; for ``sweep``, the parent's
  plus the sum of the pool workers' peaks.

``wall_s`` and ``setup_s`` are given at a fixed host speed: their raw
medians times ``REFERENCE_S`` over the median time of a fixed kernel
timed between the cold runs (see :class:`Reference`).  The raw medians
are printed beside them and kept in the report.

``error_rate`` (failed / attempted operations) is printed with them;
it is 0 on a correct run, so the JSON line carries it as ``failed``
and ``attempted`` rather than as a bounded metric.  An operation is
one scenario cell or one rendered figure/table; it fails on an
exception, a quarantined sweep cell, or a digest that differs from the
one recorded in ``perfbench/digests.json`` for that seed.  Seeds with
no recorded digests are checked for run-to-run identity instead.

``--trace 1`` alternates untraced and traced cold runs, prints a
per-layer self-time table and the per-layer metrics (medians over the
traced runs), and writes the last traced run as a Chrome trace to
``perfbench/out/``.  Traced runs must reproduce the untraced digests.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; host metadata and every
sample go to ``perfbench/out/report-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Any

import numpy as np

from tracer import import_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _SPEC = json.load(_f)

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
#: ``name -> unit`` of the metrics ``--trace 0`` and ``--trace 1`` print.
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Top-level ``repro`` subpackages charged with import time, plus
#: ``repro`` itself and ``other`` (non-repro imports).
_IMPORT_PREFIX = "setup.import_s."
IMPORT_OWNERS = tuple(
    name[len(_IMPORT_PREFIX):] for name in PER_LAYER
    if name.startswith(_IMPORT_PREFIX)
)

#: Fewest cold runs a measurement takes, however short ``--seconds``
#: (with ``--trace 1``: this many traced and untraced runs each).
MIN_RUNS = 3
MIN_TRACE_RUNS = 2
#: No new cold run starts after this many seconds (the whole command
#: must finish well inside three minutes).
START_LIMIT_S = 120.0
#: A cold run that takes longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 50.0

#: Seconds one :class:`Reference` pass takes at the reference host
#: speed: about its median on the host the bounds were set on (2 vCPUs
#: of a shared x86-64 VM, Python 3.11, NumPy 2.4), 0.030 s.
REFERENCE_S = 0.03
#: The end-to-end timings given at that host speed.
HOST_SCALED = ("wall_s", "setup_s")


class Reference:
    """A fixed kernel timed between the cold runs, to gauge host speed.

    A host whose cores are shared with other tenants runs everything
    slower while they are busy.  On the 2-vCPU host this benchmark was
    tuned on, one seed's ``atlas-9k`` run took 4.7 s at one time and
    7.5 s at another, set-up time moved with it, and the middle half
    of ten ``paper`` runs of the same code spread over up to 28% of
    their median.  This kernel uses nothing from ``repro`` -- a random
    gather, a sort and a weighted bincount over 8 MB arrays, then an
    interpreted dict loop, the mix of NumPy and bytecode the workloads
    run -- so no change to the program moves it, while a slower host
    slows it together with the cold runs around it.  Over ten seeds it
    cut the ``paper`` ``wall_s`` spread from 19% to 7% and ``sweep``'s
    from 20% to 12%; ``atlas-9k``, bound by memory traffic, does not
    follow it (see ``workloads.py``).
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20151130)
        self.values = rng.random(1 << 20)
        self.order = rng.permutation(1 << 20)
        self.keys = rng.integers(0, 4096, 200_000).tolist()
        #: Seconds of every timed pass.
        self.passes: list[float] = []
        self.run(1)  # first touch of the arrays; not a host-speed sample
        self.passes.clear()

    def run(self, passes: int = 3) -> None:
        for _ in range(passes):
            start = time.perf_counter()
            gathered = self.values[self.order]
            np.sort(gathered[: 1 << 17])
            np.bincount(self.order & 4095, weights=gathered)
            table: dict[int, int] = {}
            for key in self.keys:
                table[key] = table.get(key, 0) + 1
            self.passes.append(time.perf_counter() - start)

    def scale(self) -> float:
        """``REFERENCE_S`` over the median pass: below 1 on a slower host."""
        return REFERENCE_S / statistics.median(self.passes)


def host() -> dict[str, Any]:
    """Host block: ``scripts/bench_report.py``'s plus library versions."""
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bench_report import host_metadata

    block = host_metadata()
    block["nproc"] = os.cpu_count()
    block["python"] = sys.version.split()[0]
    for package in ("numpy", "scipy"):
        block[package] = metadata.version(package)
    return block


def cold_run(
    workload: str, seed: int, smoke: bool, trace_out: str | None = None,
    imports_only: bool = False,
) -> dict[str, Any]:
    """Start one fresh interpreter; return its report plus ``setup_s``.

    A run that crashes or times out returns ``{"crashed": reason}``.
    """
    command = [sys.executable]
    if trace_out:
        command += ["-X", "importtime"]
    command += [CHILD, "--seed", str(seed)]
    if imports_only:
        command.append("--imports-only")
    else:
        command += ["--workload", workload]
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"crashed": f"exit {proc.returncode}: " + " / ".join(tail)}
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - started
    if trace_out:
        owners = import_times(proc.stderr)
        for owner in IMPORT_OWNERS:
            report["layers"][f"setup.import_s.{owner}"] = owners.pop(owner, 0.0)
        report["layers"]["setup.import_s.other"] += sum(owners.values())
    return report


def check_outputs(
    runs: list[dict[str, Any]], reference: dict[str, str]
) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every run's operations."""
    attempted = failed = 0
    problems: list[str] = []
    for i, run in enumerate(runs):
        if "crashed" in run:
            attempted += max(1, len(reference))
            failed += max(1, len(reference))
            problems.append(f"run {i}: {run['crashed']}")
            continue
        digests, failures = run["digests"], run["failures"]
        ops = set(digests) | set(failures) | set(reference)
        attempted += len(ops)
        for op in sorted(ops):
            if op in failures:
                reason = failures[op]
            elif op not in digests:
                reason = "missing"
            elif op in reference and digests[op] != reference[op]:
                reason = f"digest {digests[op]} != {reference[op]}"
            elif op not in reference:
                reason = "not in the reference"
            else:
                continue
            failed += 1
            problems.append(f"run {i} ({run['kind']}) {op}: {reason}")
    return attempted, failed, problems


def measure(args: argparse.Namespace) -> dict[str, Any]:
    """Cold runs until the next one would end after ``--seconds``.

    In a fresh checkout, one unmeasured interpreter first compiles the
    byte code, which users' runs never pay again.

    Untraced, each workload run is followed by an interpreter that only
    imports and exits, whose ``setup_s`` is one more set-up sample:
    set-up varies more from run to run than the workloads do.  The
    :class:`Reference` kernel runs before the first interpreter and
    after each one.
    """
    if not os.path.isdir(os.path.join(ROOT, "src", "repro", "__pycache__")):
        cold_run(args.workload, args.seed, args.smoke, imports_only=True)
    trace_out = os.path.join(OUT, f"trace-{args.workload}.json")
    reference = Reference()
    runs: list[dict[str, Any]] = []
    setups: list[float] = []
    start = time.monotonic()
    reference.run()
    while True:
        elapsed = time.monotonic() - start
        enough = len(runs) >= (2 * MIN_TRACE_RUNS if args.trace else MIN_RUNS)
        if enough and (
            elapsed + statistics.median(r["duration_s"] for r in runs)
            > args.seconds
        ):
            break
        if runs and elapsed >= START_LIMIT_S:
            break
        traced = bool(args.trace) and len(runs) % 2 == 1
        began = time.monotonic()
        run = cold_run(
            args.workload, args.seed, args.smoke,
            trace_out=trace_out if traced else None,
        )
        reference.run()
        if not args.trace:
            ready = cold_run(
                args.workload, args.seed, args.smoke, imports_only=True
            )
            reference.run()
            if "crashed" not in ready:
                setups.append(ready["setup_s"])
        run["duration_s"] = time.monotonic() - began
        run["kind"] = "traced" if traced else "untraced"
        runs.append(run)
    return {
        "runs": runs, "setups": setups, "reference": reference,
        "elapsed_s": time.monotonic() - start,
    }


def _median(runs: list[dict[str, Any]], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def layer_metrics(runs: list[dict[str, Any]]) -> dict[str, float]:
    traced = [r for r in runs if r["kind"] == "traced" and "crashed" not in r]
    plain = [r for r in runs if r["kind"] == "untraced" and "crashed" not in r]
    metrics = {
        name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
        for name in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = (
        _median(traced, "wall_s") / _median(plain, "wall_s")
    )
    return metrics


def print_layer_table(metrics: dict[str, float], wall_s: float) -> None:
    """Self time per layer, largest first, as a share of *wall_s*."""
    rows = sorted(
        (
            (name[: -len(".self_s")], value)
            for name, value in metrics.items()
            if name.endswith(".self_s") and value > 0
        ),
        key=lambda row: -row[1],
    )
    print(f"{'layer':<28} {'self_s':>9} {'share':>7}")
    for name, value in rows:
        print(f"{name:<28} {value:9.4f} {value / wall_s:7.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny populations (the benchmark's own tests)")
    parser.add_argument("--record", action="store_true",
                        help="record digests for --seeds into digests.json")
    parser.add_argument("--seeds", default="42",
                        help="with --record: e.g. 0-31,42")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.record:
        return record(args)

    recorded = {}
    if not args.smoke and os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as f:
            recorded = json.load(f).get(args.workload, {}).get(str(args.seed), {})

    measured = measure(args)
    runs = measured["runs"]
    ok = [r for r in runs if "crashed" not in r]
    if recorded:
        reference, basis = recorded, "recorded digests"
    else:
        reference = ok[0]["digests"] if ok else {}
        basis = "run-to-run identity (no digests recorded for this seed)"
    attempted, failed, problems = check_outputs(runs, reference)
    plain = [r for r in ok if r["kind"] == "untraced"]
    kernel = measured["reference"]
    scale = kernel.scale()

    print(
        f"workload {args.workload} seed {args.seed}: {len(runs)} cold runs "
        f"in {measured['elapsed_s']:.1f} s; outputs checked against {basis}"
    )
    print(
        f"  host speed scale {scale:.4f}: reference kernel median "
        f"{REFERENCE_S / scale:.4f} s over {len(kernel.passes)} passes, "
        f"{REFERENCE_S} s at the reference speed"
    )
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    e2e: dict[str, float] = {}
    for name, unit in END_TO_END.items():
        values = [r[name] for r in plain]
        if not values:
            continue
        if name == "setup_s":
            values += measured["setups"]
        raw = statistics.median(values)
        e2e[name] = raw * scale if name in HOST_SCALED else raw
        print(
            f"  {name:<12} {e2e[name]:10.4f} {unit:<3} raw median "
            f"{raw:.4f} of {len(values)} (min {min(values):.4f}, "
            f"max {max(values):.4f})"
        )
    error_rate = failed / attempted if attempted else 1.0
    print(
        f"  {'error_rate':<12} {error_rate:10.4f} ratio "
        f"({failed}/{attempted} operations failed)"
    )
    host_block = host()
    print("  host " + json.dumps(host_block, sort_keys=True))

    if args.trace:
        metrics = layer_metrics(ok) if len(plain) < len(ok) and plain else {}
        if metrics:
            traced = [r for r in ok if r["kind"] == "traced"]
            print_layer_table(metrics, _median(traced, "wall_s"))
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END
    correct = failed == 0 and len(metrics) == len(units)

    with open(
        os.path.join(OUT, f"report-{args.workload}.json"), "w", encoding="utf-8"
    ) as f:
        json.dump(
            {
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "smoke": args.smoke, "host": host_block,
                "error_rate": error_rate, "problems": problems,
                "metrics": metrics, "runs": runs, "setups": measured["setups"],
                "host_scale": scale, "reference_passes": kernel.passes,
            },
            f, indent=1, sort_keys=True,
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(args: argparse.Namespace) -> int:
    """Record one cold run's digests per seed into ``digests.json``."""
    book: dict[str, dict[str, dict[str, str]]] = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as f:
            book = json.load(f)
    entry = book.setdefault(args.workload, {})
    for seed in parse_seeds(args.seeds):
        run = cold_run(args.workload, seed, smoke=False)
        if "crashed" in run or run["failures"]:
            print(f"seed {seed}: not recorded: "
                  f"{run.get('crashed') or run['failures']}", file=sys.stderr)
            return 1
        entry[str(seed)] = run["digests"]
        print(f"seed {seed}: {len(run['digests'])} digests")
    book[args.workload] = dict(sorted(entry.items(), key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(dict(sorted(book.items())), f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
