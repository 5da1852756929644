"""Runtime sanitizer: count every RNG stream's draws per sweep cell.

The static purity analyzer (:mod:`repro.devtools.purity`) proves that
nothing *in the call graph* of a sweep worker mutates shared state or
draws nondeterministic randomness -- but a dynamic escape (``getattr``
tricks, a C extension, a future refactor the resolver cannot follow)
would still corrupt sibling cells silently.  Shared substrate arrays
need no help here: their owners make them read-only where they build
them, so an in-place write raises at the site whether or not the
sanitizer is on.  ``REPRO_SANITIZE=1`` covers the RNG streams:
:func:`counting_generator` wraps each per-component stream handed out
by :func:`repro.util.rng.component_rng`, and every draw-method call
bumps a per-label counter in :data:`STREAM_DRAWS`.  The sweep worker
snapshots the counters around each cell and reports them as
``sanitize/stream/<label>`` telemetry, so tests can assert that
``jobs=N`` performs exactly the per-cell draws ``jobs=1`` does -- a
drifted draw count is the earliest symptom of a stream leaking between
cells.

The sanitizer is observational: wrapped generators delegate every call
to the real ``numpy.random.Generator`` unchanged, so a sanitized run is
bit-identical to a plain one (the determinism CI job runs once under
``REPRO_SANITIZE=1`` to prove it).
"""

from __future__ import annotations

from typing import cast

import numpy as np

from ..util.env import SANITIZE, env_flag

#: Draw-method calls per stream label since the last :func:`reset_streams`.
#: Mutated only in sanitize mode; observational telemetry, never an
#: input to any simulated quantity.
STREAM_DRAWS: dict[str, int] = {}


def enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` is on (re-read per call, so tests
    can flip it with ``monkeypatch.setenv``)."""
    return env_flag(SANITIZE)


#: ``numpy.random.Generator`` methods that consume bits from the
#: stream.  Only these are counted; ``spawn``/``bit_generator`` and
#: friends pass through uncounted.
_DRAW_METHODS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "gumbel",
        "hypergeometric", "integers", "laplace", "logistic", "lognormal",
        "logseries", "multinomial", "multivariate_hypergeometric",
        "multivariate_normal", "negative_binomial", "noncentral_chisquare",
        "noncentral_f", "normal", "pareto", "permutation", "permuted",
        "poisson", "power", "random", "rayleigh", "shuffle",
        "standard_cauchy", "standard_exponential", "standard_gamma",
        "standard_normal", "standard_t", "triangular", "uniform",
        "vonmises", "wald", "weibull", "zipf",
    }
)


class CountingGenerator:
    """A transparent proxy over ``numpy.random.Generator`` that counts
    draw-method calls per stream label.

    Draw *values* are untouched -- every method call is forwarded to
    the wrapped generator verbatim, so a sanitized run stays
    bit-identical to a plain one.  Counting calls (not variates) keeps
    the wrapper O(1) per draw regardless of ``size=``.
    """

    __slots__ = ("_generator", "_label")

    def __init__(self, generator: np.random.Generator, label: str) -> None:
        self._generator = generator
        self._label = label

    def __getattr__(self, name: str) -> object:
        attribute = getattr(self._generator, name)
        if name in _DRAW_METHODS:
            label = self._label

            def counted(*args: object, **kwargs: object) -> object:
                STREAM_DRAWS[label] = STREAM_DRAWS.get(label, 0) + 1
                return attribute(*args, **kwargs)

            return counted
        return attribute

    def __repr__(self) -> str:
        return f"CountingGenerator({self._label!r}, {self._generator!r})"


def counting_generator(
    generator: np.random.Generator, label: str
) -> np.random.Generator:
    """Wrap *generator* so its draws are tallied under *label*.

    Declared as returning ``Generator`` because the proxy is a drop-in
    duck type (the package never isinstance-checks generators); the
    cast keeps call sites' annotations honest.
    """
    return cast(np.random.Generator, CountingGenerator(generator, label))


def reset_streams() -> None:
    """Zero the per-stream draw counters (start of a cell)."""
    STREAM_DRAWS.clear()


def stream_report() -> dict[str, int]:
    """Per-label draw counts since the last reset, label-sorted."""
    return {label: STREAM_DRAWS[label] for label in sorted(STREAM_DRAWS)}
