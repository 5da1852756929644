"""Fault one sweep cell on purpose, to exercise supervision.

``inject(monkeypatch, cell, action)`` patches
``repro.sweep.worker._substrate_for``, the first call inside
``_run_cell``'s ``try``, so the fault lands where a real one would:

* ``"raise"`` raises *error*: an ``Exception`` becomes the cell's
  error outcome, and ``KeyboardInterrupt`` drains the sweep as a
  Ctrl-C would;
* ``"kill"`` ends the pool worker at once, as an OOM kill would;
* ``"stall"`` sleeps *seconds* in the pool worker, to trip the
  per-cell timeout or to hold a run mid-flight.

Only the first *times* starts of the cell fault.  The starts are
counted in shared memory, so a retry in a respawned pool sees the
count.  ``kill`` and ``stall`` fire only in a process other than the
one that called ``inject``, so a serial run never kills or stalls
itself.  The pool forks (``runner.default_start_method``), so a patch
installed before the sweep starts reaches every worker; a ``spawn``
pool would not see it.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.sweep import worker

#: Exit status of a killed worker (distinctive in logs).
KILL_EXIT_CODE = 87

ACTIONS = ("raise", "kill", "stall")


class InjectedFault(RuntimeError):
    """What ``"raise"`` raises unless told otherwise."""


def inject(
    monkeypatch, cell, action, *, times=1, seconds=0.0, error=InjectedFault
):
    """Fault the first *times* starts of sweep cell *cell* with
    *action* until *monkeypatch* is undone."""
    if action not in ACTIONS:
        raise ValueError(f"action must be one of {ACTIONS}, got {action!r}")
    real = worker._substrate_for
    starts = multiprocessing.Value("i", 0)
    home = os.getpid()

    def substrate_for(sweep_cell):
        if sweep_cell.index == cell:
            with starts.get_lock():
                starts.value += 1
                start = starts.value
            if start <= times:
                if action == "raise":
                    raise error(f"injected fault in cell {cell}, start {start}")
                if os.getpid() != home:
                    if action == "kill":
                        os._exit(KILL_EXIT_CODE)
                    time.sleep(seconds)
        return real(sweep_cell)

    monkeypatch.setattr(worker, "_substrate_for", substrate_for)
