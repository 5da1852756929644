"""What an anycast operator can actually see during an attack.

The paper stresses (section 2.2) that optimal defense needs
information operators do not have: attack volume beyond capacity is
unmeasurable (the excess is dropped upstream), attacker locations are
hidden by spoofing, and route-change effects are hard to predict.

A controller therefore receives only *operator-visible* signals:

* per-site **accepted** load (what the servers answered),
* per-site **drop** rate at the ingress (interface counters),
* the announcement state the operator itself controls.

Everything else must be estimated.  Each signal is one site-order row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The site-order rows of an observation and their dtypes.
_ROWS = {"capacity_qps": np.float64, "accepted_qps": np.float64,
         "dropped_qps": np.float64, "announced": bool, "partial": bool}


@dataclass(frozen=True, slots=True, eq=False)
class LetterObservation:
    """Operator view of one letter for one bin, as site-order rows.

    Entry *i* of every row belongs to site ``codes[i]``.  Rows are
    read-only views of the engine's own arrays (the deployment's
    capacity vector, the memoized announced mask).
    """

    letter: str
    bin_index: int
    codes: tuple[str, ...]
    capacity_qps: np.ndarray
    accepted_qps: np.ndarray
    dropped_qps: np.ndarray
    announced: np.ndarray
    partial: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(self.codes))
        shape = (len(self.codes),)
        for name, dtype in _ROWS.items():
            row = np.asarray(getattr(self, name), dtype=dtype)
            if row.shape != shape:
                raise ValueError(f"{name} has shape {row.shape}, not {shape}")
            view = row.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if (self.capacity_qps <= 0).any():
            raise ValueError("capacity must be positive")
        if (self.accepted_qps < 0).any() or (self.dropped_qps < 0).any():
            raise ValueError("rates cannot be negative")

    @property
    def offered_qps(self) -> np.ndarray:
        """Measured offered load (accepted + locally observed drops).

        This *understates* true offered load when drops happen
        upstream of the ingress counters -- exactly the measurement
        gap the paper describes.
        """
        return self.accepted_qps + self.dropped_qps

    @property
    def utilisation(self) -> np.ndarray:
        """Measured offered load over capacity."""
        return self.offered_qps / self.capacity_qps
