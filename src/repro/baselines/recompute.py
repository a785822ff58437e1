"""Gradient-checkpointing (recomputation) estimator.

An alternative to swapping for reducing the intermediate-results footprint is
to discard activations in the forward pass and recompute them during
backward.  This estimator works directly on the recorded trace: it treats the
saved activations (category ``activation``) as discardable, keeps only every
k-th one as a checkpoint and estimates both the footprint reduction and the
extra compute (re-running the forward segments between checkpoints).

It is used alongside the swapping baselines to put the paper's "outliers are
the focus of attention" conclusion in context: recomputation attacks the same
intermediate-results bytes from the compute side instead of the transfer
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.events import MemoryCategory, MemoryEventKind
from ..core.trace import KIND_CODES, MemoryTrace

_WRITE_CODE = KIND_CODES[MemoryEventKind.WRITE]


@dataclass
class RecomputePlan:
    """Estimated effect of checkpointing every ``keep_every``-th activation."""

    keep_every: int
    activation_bytes_total: int
    activation_bytes_kept: int
    activation_bytes_discarded: int
    peak_bytes_before: int
    estimated_peak_bytes_after: int
    recompute_time_overhead_ns: int

    @property
    def savings_bytes(self) -> int:
        """Estimated peak-footprint reduction."""
        return self.peak_bytes_before - self.estimated_peak_bytes_after

    @property
    def savings_fraction(self) -> float:
        """Peak reduction as a fraction of the original peak."""
        if self.peak_bytes_before == 0:
            return 0.0
        return self.savings_bytes / self.peak_bytes_before

    def summary(self) -> Dict[str, object]:
        """Compact summary for reports."""
        return {
            "keep_every": self.keep_every,
            "activation_bytes_total": self.activation_bytes_total,
            "activation_bytes_discarded": self.activation_bytes_discarded,
            "savings_bytes": self.savings_bytes,
            "savings_fraction": self.savings_fraction,
            "recompute_time_overhead_ns": self.recompute_time_overhead_ns,
        }


def per_block_compute_times(trace: MemoryTrace) -> Dict[int, int]:
    """Per-block producer compute times recovered from a recorded trace.

    An activation's producing kernel closes with the block's first *write*
    after its malloc, and the simulated clock only advances across kernels
    and transfers — so the span between that first write and the immediately
    preceding event in the global stream is the producer's compute time.
    This is the offline analog of the rule the swap executor uses to learn
    replay costs online, so in steady state the two agree exactly.

    Blocks whose first post-malloc access is a read (e.g. parameters written
    during unprofiled setup) and later outputs of multi-output kernels
    (which get a zero span) are omitted: they are not rematerializable by
    producer replay.
    """
    cols = trace.columns()
    order = np.argsort(cols.timestamp_ns, kind="stable")
    kind = cols.kind_code[order]
    timestamp = cols.timestamp_ns[order]
    block = cols.block_id[order]
    is_malloc = np.asarray(cols.is_malloc)[order]
    is_write = np.asarray(cols.kind_code == _WRITE_CODE)[order]

    compute_ns: Dict[int, int] = {}
    pending: set = set()
    previous_ns = None
    for index in range(kind.size):
        block_id = int(block[index])
        if is_malloc[index]:
            pending.add(block_id)
        elif block_id in pending and is_write[index]:
            pending.discard(block_id)
            if previous_ns is not None:
                span = int(timestamp[index]) - previous_ns
                if span > 0:
                    compute_ns[block_id] = span
        elif block_id in pending:
            # First touch was a read: produced outside the recorded stream.
            pending.discard(block_id)
        previous_ns = int(timestamp[index])
    return compute_ns


def estimate_recompute_plan(trace: MemoryTrace, keep_every: int = 2) -> RecomputePlan:
    """Estimate checkpointing on a recorded trace.

    Parameters
    ----------
    trace:
        The profiled training trace.
    keep_every:
        Keep one activation out of every ``keep_every`` as a checkpoint
        (``keep_every=2`` halves the resident activations).

    The recompute overhead is the *sum of the recorded producer compute
    times* of the discarded activations (see :func:`per_block_compute_times`);
    a trace that carries no producer timing (e.g. a hand-built trace with no
    write events) reports zero overhead.
    """
    if keep_every < 1:
        raise ValueError("keep_every must be at least 1")
    activation_lifetimes = [lifetime for lifetime in trace.lifetimes
                            if lifetime.category is MemoryCategory.ACTIVATION]
    # Consider steady-state iterations only (iteration >= 1) to avoid counting
    # the warm-up allocations twice.
    steady = [lifetime for lifetime in activation_lifetimes if lifetime.iteration >= 1]
    reference = steady if steady else activation_lifetimes
    iterations = {lifetime.iteration for lifetime in reference}
    per_iteration = max(1, len(iterations))
    ordered = sorted(reference, key=lambda item: item.malloc_ns)
    total = sum(lifetime.size for lifetime in reference) // per_iteration
    kept = sum(lifetime.size for index, lifetime in enumerate(ordered)
               if index % keep_every == 0) // per_iteration
    discarded = max(0, total - kept)

    # Recompute cost: replaying the producers of the discarded activations,
    # whose times come straight from the recorded timeline.
    compute_ns = per_block_compute_times(trace)
    recompute_overhead = sum(
        compute_ns.get(lifetime.block_id, 0)
        for index, lifetime in enumerate(ordered)
        if index % keep_every != 0) // per_iteration

    peak_before = trace.peak_live_bytes()
    return RecomputePlan(
        keep_every=keep_every,
        activation_bytes_total=total,
        activation_bytes_kept=min(kept, total),
        activation_bytes_discarded=discarded,
        peak_bytes_before=peak_before,
        estimated_peak_bytes_after=max(0, peak_before - discarded),
        recompute_time_overhead_ns=recompute_overhead,
    )
