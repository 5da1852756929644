"""Sweep specification: a grid of scenario variations plus replicates.

A :class:`SweepSpec` names the cartesian product the paper's figures
and tables all are underneath: one base :class:`ScenarioConfig`, a set
of *points* (field overrides applied to the base -- built from a grid
of axes or given as an explicit list), and a set of replicate *seeds*.
Every (seed, point) pair is one :class:`SweepCell` with a fixed
**cell index**; the sweep runner keys all results by that index, so
output ordering never depends on execution order.

Cell indexing puts seeds outermost (``index = seed_index * n_points +
point_index``): a contiguous chunk of cells then shares a seed, and --
when the swept fields are run-time knobs (events, overload model,
controllers, faults) rather than substrate knobs -- also shares a
:class:`~repro.scenario.engine.Substrate`, which is what makes the
per-worker substrate cache effective.

Seed hygiene: replicate seeds come from
:func:`~repro.util.rng.derive_seed` under distinct labels, so distinct
cells get distinct, deterministic RNG streams with no coupling, and
``simulate(cell.config)`` standalone reproduces the in-sweep result
bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..scenario.config import ScenarioConfig
from ..util.rng import derive_seed

#: Field names a sweep may override on the base config.
CONFIG_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ScenarioConfig)
)

#: One point's overrides, in canonical form: sorted (field, value)
#: pairs.  Hashable as long as the values are.
Overrides = tuple[tuple[str, Any], ...]


def replicate_seeds(base_seed: int, n: int) -> tuple[int, ...]:
    """*n* distinct deterministic replicate seeds for *base_seed*.

    Derived per-index from the base seed under stable labels, so the
    i-th replicate's entire RNG universe is a pure function of
    ``(base_seed, i)`` -- independent of how many replicates run and
    of every other cell.
    """
    if n <= 0:
        raise ValueError("need at least one replicate")
    seeds = tuple(
        derive_seed(base_seed, f"sweep.replicate.{i}") for i in range(n)
    )
    if len(frozenset(seeds)) != n:
        raise ValueError(
            f"replicate seed collision for base seed {base_seed}"
        )
    return seeds


def _canonical_overrides(overrides: Mapping[str, Any]) -> Overrides:
    for name in overrides:
        if name not in CONFIG_FIELDS:
            raise ValueError(
                f"unknown ScenarioConfig field {name!r} in sweep point"
            )
        if name == "seed":
            raise ValueError(
                "sweep points may not override 'seed'; use replicate "
                "seeds (SweepSpec.seeds / replicates=...) instead"
            )
    return tuple(sorted(overrides.items()))


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One (seed, point) combination of a sweep."""

    index: int
    point_index: int
    seed_index: int
    overrides: Overrides
    config: ScenarioConfig

    @property
    def label(self) -> str:
        """Short human-readable cell name for progress output."""
        parts = [f"seed={self.config.seed}"]
        parts.extend(f"{name}={value!r}" for name, value in self.overrides)
        return f"cell {self.index} (" + ", ".join(parts) + ")"


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A grid/list of scenario variations plus seed replication.

    Build one with :meth:`grid` (cartesian product of per-field value
    axes) or :meth:`from_points` (explicit override mappings); the
    plain constructor takes points already in canonical
    :data:`Overrides` form.  An empty ``seeds`` means one replicate at
    the base config's own seed.
    """

    base: ScenarioConfig
    points: tuple[Overrides, ...] = ((),)
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a sweep needs at least one point")
        for overrides in self.points:
            # An invalid point fails here, not each cell when it runs.
            dataclasses.replace(
                self.base, **dict(_canonical_overrides(dict(overrides)))
            )
        if len(frozenset(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate replicate seeds")

    @classmethod
    def grid(
        cls,
        base: ScenarioConfig,
        axes: Mapping[str, Sequence[Any]],
        *,
        seeds: Sequence[int] = (),
        replicates: int | None = None,
    ) -> "SweepSpec":
        """Cartesian product of *axes* (last axis varies fastest)."""
        names = list(axes)
        for name in names:
            if not axes[name]:
                raise ValueError(f"axis {name!r} has no values")
        points: list[dict[str, Any]] = [{}]
        for name in names:
            points = [
                {**point, name: value}
                for point in points
                for value in axes[name]
            ]
        return cls.from_points(
            base, points, seeds=seeds, replicates=replicates
        )

    @classmethod
    def from_points(
        cls,
        base: ScenarioConfig,
        points: Sequence[Mapping[str, Any]],
        *,
        seeds: Sequence[int] = (),
        replicates: int | None = None,
    ) -> "SweepSpec":
        """Explicit list of override mappings, one per point."""
        if replicates is not None:
            if seeds:
                raise ValueError("give either seeds or replicates, not both")
            seeds = replicate_seeds(base.seed, replicates)
        return cls(
            base=base,
            points=tuple(_canonical_overrides(p) for p in points),
            seeds=tuple(seeds),
        )

    @property
    def n_points(self) -> int:
        return len(self.points)

    def effective_seeds(self) -> tuple[int, ...]:
        """The replicate seeds actually run (base seed if none given)."""
        return self.seeds if self.seeds else (self.base.seed,)

    @property
    def n_seeds(self) -> int:
        return len(self.effective_seeds())

    @property
    def n_cells(self) -> int:
        return self.n_points * self.n_seeds

    def cell(self, index: int) -> SweepCell:
        """The cell at *index* (seeds outermost, points innermost)."""
        if not 0 <= index < self.n_cells:
            raise IndexError(
                f"cell index {index} out of range [0, {self.n_cells})"
            )
        seed_index, point_index = divmod(index, self.n_points)
        overrides = self.points[point_index]
        config = dataclasses.replace(
            self.base,
            seed=self.effective_seeds()[seed_index],
            **dict(overrides),
        )
        return SweepCell(
            index=index,
            point_index=point_index,
            seed_index=seed_index,
            overrides=overrides,
            config=config,
        )

    def cells(self) -> tuple[SweepCell, ...]:
        """Every cell, in index order."""
        return tuple(self.cell(i) for i in range(self.n_cells))

    def digest(self) -> str:
        """Hex digest identifying this spec (base, points, seeds).

        Computed over the ``repr`` of the canonical frozen form of the
        spec (sets sorted, dataclasses field-ordered, dicts
        key-sorted; every leaf a primitive), so two value-equal specs
        digest identically no matter how they were built -- including
        a spec pickled into a checkpoint header and loaded back, whose
        internal object sharing differs from the original's (which is
        why the digest must not hash pickle bytes).  The checkpoint
        layer (:mod:`repro.sweep.checkpoint`) keys its write-ahead log
        on this, refusing to merge cells into a sweep they do not
        belong to.
        """
        import hashlib

        from ..scenario.engine import _freeze

        canonical = (
            _freeze(self.base),
            _freeze(self.points),
            self.seeds,
        )
        payload = repr(canonical).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()
