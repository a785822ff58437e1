#!/usr/bin/env python
"""Which numpy kernel is fast *here*: the ranking behind ``core.stats.percentiles_of_sorted``
and ``core.trace.stable_block_order`` follows the host's SIMD dispatch and the numpy build, so
``make kernel-probe`` prints it (docs/performance.md, "kernel choices").  Reports, never fails."""

from __future__ import annotations

import timeit
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


def best_ms(kernel: Callable[[], object], repeats: int = 7) -> float:
    """Fastest of ``repeats`` calls, in milliseconds."""
    return min(timeit.repeat(kernel, number=1, repeat=repeats)) * 1e3


def probe(rng: np.random.Generator) -> List[Tuple[str, Dict[str, float]]]:
    """``(case, {kernel: best ms})`` at the shapes one benchmark sample reduces."""
    cases: List[Tuple[str, Dict[str, Callable[[], object]]]] = []
    for rows, n in ((192, 4_500), (192, 1_600), (62, 4_500)):
        v = rng.random((rows, n)) * 1e4
        pivots = np.unique([0, n - 1] + [int((n - 1) * q) + d for q in (.5, .9, .99) for d in (0, 1)])
        cases.append((f"order statistics {rows} x {n}", {
            "percentile": lambda v=v: np.percentile(v, (50, 90, 99), axis=1),
            "8-pivot partition": lambda v=v, p=pivots: np.partition(v, p, axis=1),
            "sort": lambda v=v: np.sort(v, axis=1)}))
        cases.append((f"row means {rows} x {n}", {
            "per-row mean": lambda v=v: [row.mean() for row in v],
            "axis mean": lambda v=v: v.mean(axis=1)}))
    for n in (6_000, 13_000, 100_000):
        ids, position = rng.integers(1, n // 8, n), np.arange(n)
        cases.append((f"group by block id, n = {n}", {
            "stable argsort": lambda i=ids: np.argsort(i, kind="stable"),
            "unique-key argsort": lambda i=ids, n=n, p=position: np.argsort(i * n + p)}))
    times = np.cumsum(rng.integers(0, 50, (64, 4_500)), axis=1)
    times[:, ::7] += 40                 # nearly sorted, as re-priced closing times are
    keys = times * times.shape[1] + np.arange(times.shape[1])
    cases.append(("2-D nearly sorted 64 x 4500", {
        "stable argsort": lambda: np.argsort(times, axis=1, kind="stable"),
        "unique-key argsort": lambda: np.argsort(keys, axis=1)}))
    return [(case, {name: best_ms(kernel) for name, kernel in kernels.items()})
            for case, kernels in cases]


def table(rows: Sequence[Tuple[str, Dict[str, float]]]) -> str:
    """One line per case: every kernel's time and its ratio to the case's fastest."""
    return "\n".join(
        f"{case:<32} " + ", ".join(f"{kernel} {ms:.3f} ms ({ms / min(timings.values()):.1f}x)"
                                   for kernel, ms in timings.items())
        for case, timings in rows)


if __name__ == "__main__":
    from numpy._core._multiarray_umath import __cpu_features__ as features
    print(f"numpy {np.__version__}; SIMD:", *(name for name, found in features.items() if found))
    print(table(probe(np.random.default_rng(0))))
