"""Fock-space helpers shared by the run path and the oracle.

`log_factorials` gives exact log n! from one cached table, and
`DensityOperator` holds a heralded state: a dense matrix over the joint
space of labelled modes, the flat index of an occupation tuple in C order
(the last listed mode varies fastest).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = ["DensityOperator", "log_factorials"]


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    factorials = itertools.accumulate(range(1, size), operator.mul, initial=1)
    table = np.fromiter(map(math.log, factorials), float, size)
    table.setflags(write=False)
    return table


def log_factorials(size: int) -> np.ndarray:
    """log n! for n = 0 .. size - 1, each the log of the exact integer n!,
    as a read-only slice of one cached table (its length a power of two,
    at least 64, so that the sizes one run asks for share it)."""
    return _log_factorial_table(max(64, 1 << max(size - 1, 0).bit_length()))[:size]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix over the modes `labels`, of Fock dimensions `dims`
    (cutoff + 1 each); `matrix` is prod(dims) square."""

    labels: Tuple[str, ...]
    dims: Tuple[int, ...]
    matrix: np.ndarray
