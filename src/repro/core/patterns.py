"""Exact periodicity of a trace's iterations.

The paper's first observation (Figure 2) is that training's memory behaviors
are *iterative*: every iteration issues the same behaviors on the same
blocks.  :func:`periodicity` states that as a fact of the columns, not a
score.  Two iterations *match* when they hold the same number of rows and,
row by row, equal kind, size and category codes, timestamps one constant
apart, block ids related by a bijection and equal addresses.  The trace is
periodic with period ``p`` from iteration ``k`` when every iteration from
``k`` on matches the one ``p`` later.  Only the rows stamped with a marked
iteration are compared, engine rows (swap, recompute) and segment rows
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .trace import EventColumns, MemoryTrace

#: The columns two iterations are compared on, in the order a break is named.
COLUMNS = ("rows", "kind", "size", "category", "time", "block_id", "address")


@dataclass(frozen=True)
class Periodicity:
    """Where a trace becomes exactly periodic, and what breaks it before.

    ``start`` and ``period`` are the first iteration ``k`` and the smallest
    period ``p`` such that every iteration from ``k`` on matches the one
    ``p`` later, at least one pair compared; both are ``None`` when no
    period holds.  ``breaks[i]`` names the first column (:data:`COLUMNS`) in
    which ``iterations[i + 1]`` differs from ``iterations[i]``, ``None``
    when they match.
    """

    iterations: Tuple[int, ...]
    start: Optional[int]
    period: Optional[int]
    breaks: Tuple[Optional[str], ...]

    def describe(self) -> str:
        """The result in words, as Figure 2 reports it."""
        if self.period is None:
            return "not exactly periodic"
        return f"exactly periodic from iteration {self.start}, period {self.period}"


def _iteration_table(cols: EventColumns, rows: np.ndarray) -> np.ndarray:
    """The compared columns (:data:`COLUMNS` after ``rows``) of one
    iteration's ``rows``: times from its first row, and each block id
    relabelled by the row of its first appearance, so that two iterations'
    labels are equal iff a bijection relates their ids."""
    _, first, label = np.unique(cols.block_id[rows], return_index=True,
                                return_inverse=True)
    time = cols.timestamp_ns[rows]
    return np.stack((cols.kind_code[rows], cols.size[rows], cols.category_code[rows],
                     time - time[:1], first[label], cols.address[rows]))


def _first_break(a: np.ndarray, b: np.ndarray) -> Optional[str]:
    if a.shape != b.shape:
        return "rows"
    differs = (a != b).any(axis=1)
    return COLUMNS[1 + int(differs.argmax())] if differs.any() else None


def periodicity(trace: MemoryTrace) -> Periodicity:
    """The smallest exact period of ``trace``'s iterations and where it starts."""
    cols = trace.columns()
    iterations = tuple(trace.iterations())
    tables = [_iteration_table(cols, np.flatnonzero(cols.iteration == index))
              for index in iterations]
    breaks = tuple(_first_break(a, b) for a, b in zip(tables, tables[1:]))
    n = len(tables)
    for period in range(1, n):
        start = n - period
        while start > 0 and _first_break(tables[start - 1],
                                         tables[start - 1 + period]) is None:
            start -= 1
        if start < n - period:
            return Periodicity(iterations, iterations[start], period, breaks)
    return Periodicity(iterations, None, None, breaks)
