#!/usr/bin/env python
"""Which numpy kernel is fast *here*: the ranking behind ``core.stats.percentiles_of_sorted``
and ``core.trace.stable_block_order`` follows the host's SIMD dispatch and the numpy build, and
what a fresh block-sized array costs follows the host's allocator, so ``make kernel-probe``
prints both (docs/performance.md, "kernel choices").  Reports, never fails."""

from __future__ import annotations

import resource
import timeit
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


def measure(kernel: Callable[[], object], repeats: int = 7) -> Tuple[float, float]:
    """Fastest of ``repeats`` calls in milliseconds, and the minor page faults per call."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    best = min(timeit.repeat(kernel, number=1, repeat=repeats))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return best * 1e3, faults / repeats


def timed(kernels: Dict[str, Callable[[], object]]) -> Dict[str, Tuple[float, float]]:
    """:func:`measure` of every kernel of one case."""
    return {name: measure(kernel) for name, kernel in kernels.items()}


def block_chain(rng: np.random.Generator, rows: int, n: int) -> Dict[str, Callable[[], object]]:
    """The replay block's eight elementwise steps (gather, dispatch product and sum, Eq.-1's
    ``maximum``, ``/1e9`` and ``/rt``, ns -> µs, sort), each into a fresh array or all into two
    buffers the call allocates: the pair prices what fresh block-sized arrays cost here."""
    points = np.sort(rng.integers(0, 4, rows))
    bounds = np.searchsorted(points, np.arange(5)).tolist()
    base, kgap = rng.integers(0, 10**7, (4, n)), rng.integers(0, 60, n)
    dispatch, sizes = rng.integers(200, 12_000, rows), rng.integers(1, 1 << 24, n)
    round_trip = (rng.random(rows) + 0.5)[:, None] * 1e-10

    def allocating():
        gaps = base[points] + dispatch[:, None] * kgap
        fractions = (sizes <= np.maximum(gaps, 0) / 1e9 / round_trip).mean(axis=1)
        return fractions, np.sort(gaps / 1e3, axis=1)

    def owned():
        gaps = np.multiply.outer(dispatch, kgap)
        for point, (begin, end) in enumerate(zip(bounds, bounds[1:])):
            gaps[begin:end] += base[point]
        work = np.maximum(gaps, 0, out=np.empty(gaps.shape))
        np.divide(np.divide(work, 1e9, out=work), round_trip, out=work)
        fractions = np.less_equal(sizes, work, out=work).mean(axis=1)
        np.divide(gaps, 1e3, out=work).sort(axis=1)
        return fractions, work

    return {"allocating chain": allocating, "two owned buffers": owned}


def probe(rng: np.random.Generator) -> List[Tuple[str, Dict[str, Tuple[float, float]]]]:
    """``(case, {kernel: (best ms, minor faults per call)})`` at the shapes one benchmark
    sample reduces."""
    # Timed before the other cases are built: freeing a larger array raises glibc's dynamic
    # mmap and trim thresholds, after which block-sized arrays stay on the heap.
    block = ("block temporaries 64 x 3500", timed(block_chain(rng, 64, 3_500)))
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
    return [block] + [(case, timed(kernels)) for case, kernels in cases]


def table(rows: Sequence[Tuple[str, Dict[str, Tuple[float, float]]]]) -> str:
    """One line per case: every kernel's time, its ratio to the case's fastest and its faults."""
    lines = []
    for case, timings in rows:
        fastest = min(ms for ms, _faults in timings.values())
        lines.append(f"{case:<32} " + ", ".join(
            f"{kernel} {ms:.3f} ms ({ms / fastest:.1f}x, {faults:,.0f} faults)"
            for kernel, (ms, faults) in timings.items()))
    return "\n".join(lines)


if __name__ == "__main__":
    from numpy._core._multiarray_umath import __cpu_features__ as features
    print(f"numpy {np.__version__}; SIMD:", *(name for name, found in features.items() if found))
    print(table(probe(np.random.default_rng(0))))
