"""CI smoke test: crash a sweep mid-run, resume it, demand bit-identity.

Faults come from the tests' one injector,
``tests/sweep/cell_faults.py``: ``inject`` patches the sweep worker
in this process before the pool forks, and the front doors start
through a ``python -c`` wrapper that installs a stall and then runs
them as ``__main__``.

Four legs.  The first three compare array-by-array (``result_arrays``
/ ``diff_arrays``) against one uninterrupted ``jobs=1`` reference
sweep of the same spec:

0. **shm leg** -- the grid runs with ``jobs=2`` over zero-copy
   shared-memory substrates (:mod:`repro.sweep.shm`) while a worker is
   killed mid-run; the healed run must be bit-identical, every cell
   must have been served from the parent's segments, ``/dev/shm`` must
   be empty afterwards, and a ``REPRO_SWEEP_SHM=0`` control must run
   the same grid without exporting anything.

1. **kill leg** -- a six-cell grid runs with ``jobs=2`` while the
   worker about to simulate cell 4 dies like an OOM kill.  With
   ``max_retries=0`` the cell is quarantined, every other cell lands
   in the checkpoint, and the run completes with one flagged summary
   instead of aborting.  A second run without the fault resumes from
   the checkpoint, restores the healthy cells without re-running
   them, simulates only the quarantined one, and must match the
   reference bit for bit.

2. **interrupt leg** -- the same grid runs through ``python -m
   repro.cli sweep`` in a subprocess with cell 5 stalled; once the
   checkpoint shows progress, the process gets SIGINT, must drain
   gracefully (exit code 130, exactly one ``resume with:`` line on
   stderr), and that line, run as printed in a shell without
   ``PYTHONPATH``, must complete the sweep bit-identically.

3. **paper leg** -- ``scripts/run_paper.py --stubs 40 --vps 20 --jobs
   2 --checkpoint`` is interrupted the same way while its last cell
   stalls, resumed by running its printed line, and must write the 17
   renders of an uninterrupted run byte for byte.

Exit status 0 = every check passed.  Needs pytest (for its
``MonkeyPatch``).

Usage::

    PYTHONPATH=src python scripts/sweep_chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro import nov2015_config
from repro.scenario import diff_arrays, result_arrays
from repro.sweep import (
    SweepSpec,
    leaked_segments,
    load_checkpoint,
    run_sweep,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.sweep.cell_faults import inject  # noqa: E402

#: Small but multi-chunk grid: 3 points x 2 seeds = 6 cells.
AXES = {"baseline_days": [1, 2, 3]}
REPLICATES = 2

#: Kill leg: the victim is late in the grid, so earlier cells are
#: already durable in the checkpoint when the worker dies.
KILL_CELL = 4

#: Interrupt leg: one cell stalls long enough for the parent to be
#: SIGINT'd while the sweep is demonstrably mid-flight.
STALL_CELL = 5
STALL_SECONDS = 120

#: Paper leg: the June 2016 cell, run_paper.py's last, stalls.
PAPER_STALL_CELL = 2

#: Subprocess environments: with the package on PYTHONPATH, and
#: without it (for the printed lines, which must carry their own).
BARE_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
ENV = {**BARE_ENV, "PYTHONPATH": str(ROOT / "src")}

#: ``python -c`` wrapper: stall cell ``argv[1]`` in the pool workers,
#: then run ``argv[2]`` (a module name or a script path) as
#: ``__main__`` with the remaining arguments.
STALLED = f"""
import runpy, sys
import pytest
sys.path.insert(0, {str(ROOT)!r})
from tests.sweep.cell_faults import inject
inject(pytest.MonkeyPatch(), int(sys.argv[1]), "stall", seconds={STALL_SECONDS})
sys.argv = sys.argv[2:]
if sys.argv[0].endswith(".py"):
    runpy.run_path(sys.argv[0], run_name="__main__")
else:
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
"""


def base_config():
    # Must match what `anycast-ddos sweep --seed 7 --stubs 50 --vps 30
    # --letters A,K` builds, or the interrupt leg's in-process spec
    # would digest differently from the CLI subprocess's.
    return nov2015_config(
        seed=7, n_stubs=50, n_vps=30, letters=("A", "K")
    )


def build_spec() -> SweepSpec:
    return SweepSpec.grid(
        base_config(), AXES, replicates=REPLICATES
    )


def check_identical(result, reference, label: str) -> None:
    assert not result.failures, (
        f"{label}: unexpected quarantined cells {result.failures}"
    )
    for index, (got, want) in enumerate(
        zip(result.results, reference.results)
    ):
        mismatches = diff_arrays(result_arrays(got), result_arrays(want))
        assert not mismatches, (
            f"{label}: cell {index} diverged from the uninterrupted "
            f"reference: {mismatches}"
        )
    print(f"ok: {label} is bit-identical to the reference")


def shm_leg(spec, reference) -> None:
    assert leaked_segments() == [], (
        f"/dev/shm not clean before the shm leg: {leaked_segments()}"
    )
    with pytest.MonkeyPatch.context() as patch:
        inject(patch, KILL_CELL, "kill")
        healed = run_sweep(
            spec, jobs=2, chunk_size=2, shm=True,
            max_retries=2, backoff_base_s=0.0,
        )
    check_identical(healed, reference, "shm leg (healed)")
    assert healed.attempts[KILL_CELL] == 2, (
        f"cell {KILL_CELL} was not retried: {healed.attempts}"
    )
    # 2 replicate seeds -> 2 substrate signatures, each shared by 3
    # cells -> both exported; the respawned pool served from them.
    assert healed.shm_segments == 2, (
        f"expected 2 exported segments, got {healed.shm_segments}"
    )
    assert healed.routing_stats.get("shm/cell", 0) == spec.n_cells, (
        f"not every cell was served from shared memory: "
        f"{healed.routing_stats}"
    )
    assert "shm/fallback" not in healed.routing_stats, (
        f"unexpected attach fallbacks: {healed.routing_stats}"
    )
    assert leaked_segments() == [], (
        f"segments leaked after the shm leg: {leaked_segments()}"
    )
    print(
        "ok: shm leg healed a worker kill over shared segments "
        "with no /dev/shm residue"
    )

    os.environ["REPRO_SWEEP_SHM"] = "0"
    try:
        control = run_sweep(spec, jobs=2, chunk_size=2)
    finally:
        del os.environ["REPRO_SWEEP_SHM"]
    check_identical(control, reference, "shm leg (disabled control)")
    assert control.shm_segments == 0, (
        "REPRO_SWEEP_SHM=0 still exported segments"
    )
    print("ok: REPRO_SWEEP_SHM=0 control matched on the pickled path")


def kill_leg(spec, reference, workdir: pathlib.Path) -> None:
    ckpt = workdir / "kill.ckpt"
    with pytest.MonkeyPatch.context() as patch:
        inject(patch, KILL_CELL, "kill")
        crashed = run_sweep(
            spec, jobs=2, chunk_size=2, checkpoint=ckpt,
            max_retries=0, backoff_base_s=0.0,
        )
    assert KILL_CELL in crashed.failures, (
        f"expected cell {KILL_CELL} quarantined, got "
        f"{crashed.failures}"
    )
    flagged = crashed.summaries[spec.cell(KILL_CELL).point_index]
    assert any(
        f.metric == "cell-failed" for f in flagged.quality.flags
    ), "quarantined cell did not flag its summary"
    durable = load_checkpoint(ckpt, spec).results
    assert durable, "no cells were checkpointed before the crash"
    print(
        f"ok: kill leg quarantined cell {KILL_CELL}, "
        f"{len(durable)} cell(s) durable in the checkpoint"
    )

    resumed = run_sweep(spec, jobs=2, chunk_size=2, checkpoint=ckpt)
    assert resumed.restored, "resume re-ran cells it should restore"
    check_identical(resumed, reference, "kill-leg resume")


def interrupt(argv, stall_cell: int, ckpt: pathlib.Path) -> str:
    """Run *argv* (a module name or a script path, then its arguments)
    with *stall_cell* stalled, SIGINT it once *ckpt* holds a cell,
    demand a graceful drain, and return the one printed resume
    line."""
    proc = subprocess.Popen(
        [sys.executable, "-c", STALLED, str(stall_cell), *argv], env=ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        try:
            if load_checkpoint(ckpt).results:
                break
        except Exception:
            pass
        if proc.poll() is not None:
            break
        time.sleep(0.2)
    assert proc.poll() is None, (
        f"{argv[0]} exited before it could be interrupted:\n"
        + proc.communicate()[1]
    )
    proc.send_signal(signal.SIGINT)
    try:
        _, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError(f"interrupted {argv[0]} failed to drain")
    assert proc.returncode == 130, (
        f"expected exit 130 after SIGINT, got {proc.returncode}:\n"
        f"{stderr}"
    )
    lines = [line for line in stderr.splitlines() if "resume with:" in line]
    assert len(lines) == 1, f"expected one resume line:\n{stderr}"
    return lines[0].split("resume with:", 1)[1].strip()


def complete(argv, env=ENV) -> None:
    """Run *argv* to a clean exit."""
    done = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, (
        f"{argv[-1]} failed ({done.returncode}):\n{done.stderr}"
    )


def resume(line: str) -> None:
    """Run a printed resume line as printed, in a shell without
    ``PYTHONPATH``."""
    complete(["sh", "-c", line], env=BARE_ENV)


def interrupt_leg(spec, reference, workdir: pathlib.Path) -> None:
    ckpt = workdir / "sigint.ckpt"
    out = workdir / "sigint.json"
    line = interrupt(
        [
            "repro.cli", "sweep",
            "--seed", "7", "--stubs", "50", "--vps", "30",
            "--letters", "A,K",
            "--axis", "baseline_days=1,2,3",
            "--replicates", str(REPLICATES),
            "--jobs", "2", "--checkpoint", str(ckpt),
            "--out", str(out),
        ],
        STALL_CELL,
        ckpt,
    )
    print("ok: interrupt leg drained with exit 130 and one resume line")

    resume(line)
    payload = json.loads(out.read_text())
    assert not payload["failed_cells"], (
        f"resume run quarantined cells: {payload['failed_cells']}"
    )
    # The CLI only surfaces summaries; full per-cell bit-identity
    # comes from re-loading the finished checkpoint in-process.
    finished = load_checkpoint(ckpt, spec).results
    assert sorted(finished) == list(range(spec.n_cells)), (
        "resume left cells missing from the checkpoint"
    )
    for index, want in enumerate(reference.results):
        mismatches = diff_arrays(
            result_arrays(finished[index]), result_arrays(want)
        )
        assert not mismatches, (
            f"interrupt-leg cell {index} diverged: {mismatches}"
        )
    print("ok: interrupt-leg resume is bit-identical to the reference")


def paper_leg(workdir: pathlib.Path) -> None:
    """run_paper.py interrupted in its last cell and resumed from its
    printed line renders what an uninterrupted run renders."""
    paper = [
        str(ROOT / "scripts" / "run_paper.py"),
        "--stubs", "40", "--vps", "20", "--jobs", "2",
    ]
    whole, resumed = workdir / "paper_whole", workdir / "paper_resumed"
    complete([sys.executable, *paper, "--out-dir", str(whole)])
    ckpt = workdir / "paper.ckpt"
    line = interrupt(
        [*paper, "--checkpoint", str(ckpt), "--out-dir", str(resumed)],
        PAPER_STALL_CELL,
        ckpt,
    )
    resume(line)
    renders = sorted(path.name for path in whole.glob("*.txt"))
    assert len(renders) == 17, f"expected 17 renders, got {renders}"
    differ = [
        name for name in renders
        if (resumed / name).read_bytes() != (whole / name).read_bytes()
    ]
    assert not differ, f"resumed paper renders differ: {differ}"
    print(
        "ok: paper leg resumed from its printed line and rendered "
        "all 17 outputs byte-identical to an uninterrupted run"
    )


def main() -> int:
    spec = build_spec()
    print(
        f"reference sweep: {spec.n_cells} cells, jobs=1, no faults",
        file=sys.stderr,
    )
    reference = run_sweep(spec, jobs=1)
    shm_leg(spec, reference)
    with tempfile.TemporaryDirectory(prefix="sweep-chaos-") as tmp:
        workdir = pathlib.Path(tmp)
        kill_leg(spec, reference, workdir)
        interrupt_leg(spec, reference, workdir)
        paper_leg(workdir)
    print("sweep chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
