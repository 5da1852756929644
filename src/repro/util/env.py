"""The single sanctioned choke point for environment-variable reads.

Determinism contract: a simulated quantity must never depend on the
host environment, but a handful of *operational* toggles legitimately
live there -- the test-only sweep chaos hook (``REPRO_SWEEP_CHAOS``),
the runtime sanitizer (``REPRO_SANITIZE``), and the zero-copy
sweep-substrate toggle (``REPRO_SWEEP_SHM``).  Every one of those
reads goes through :func:`read_env` so the interprocedural purity
analyzer (:mod:`repro.devtools.purity`) has exactly one allowlisted
ENV_READ source to reason about; an ``os.environ`` read anywhere else
in the call graph of a purity root is a violation.

All accessors re-read the environment on every call, so tests can
flip a knob with ``monkeypatch.setenv`` and see the change
immediately -- no import-time caching.
"""

from __future__ import annotations

import os

#: The operational toggles this repo recognises.  Names are collected
#: here so call sites never spell a raw string twice.
SWEEP_CHAOS = "REPRO_SWEEP_CHAOS"
SANITIZE = "REPRO_SANITIZE"
#: Zero-copy shared-memory substrates for parallel sweeps; set to
#: ``"0"`` to force the legacy per-worker rebuild (pickled) path.
SWEEP_SHM = "REPRO_SWEEP_SHM"


def read_env(name: str, default: str = "") -> str:
    """The one environment read in the package.

    Everything else in ``repro`` that consults the environment goes
    through here (or a typed accessor below, which does).  The purity
    allowlist grants this function -- and only this function -- the
    ENV_READ effect.
    """
    return os.environ.get(name, default)


def env_flag(name: str, *, default: bool = False) -> bool:
    """A boolean toggle: ``"0"``/``""``/unset-with-default-False are
    off, anything else is on.

    ``env_flag(SWEEP_SHM, default=True)`` is the on-by-default form:
    set-but-``"0"`` disables, unset enables.
    """
    raw = read_env(name, "1" if default else "")
    return raw not in ("", "0")


def env_str(name: str, default: str = "") -> str:
    """A free-form string toggle (e.g. the chaos spec grammar)."""
    return read_env(name, default)
