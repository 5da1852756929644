"""Read-only arrays for data that is shared once built."""

from __future__ import annotations

import numpy as np


def frozen(array: np.ndarray) -> np.ndarray:
    """Mark *array* read-only and return it.

    The owner of a shared constant array (the graph's compiled view and
    distance rows, the VP table, the botnet, a deployment's capacity
    vector, ...) calls this where it builds the array, so an in-place
    write anywhere later raises ``ValueError`` at the write instead of
    corrupting every run that shares it.  NumPy unpickles arrays
    writable, so each owner calls it again in its ``__setstate__``.
    """
    array.flags.writeable = False
    return array
