"""Reference swapping policies, inspired by the works the paper cites.

These are *policy models*, not full reimplementations: they choose which
blocks to keep off the device and estimate the footprint savings and the
runtime overhead using the same Eq.-1 machinery as the planner, so the three
approaches are comparable on the same trace.

* :func:`swap_advisor_style_policy` — in the spirit of SwapAdvisor (Huang et
  al., ASPLOS'20): swap the largest tensors, ignoring their access timing,
  and pay whatever transfer time their access intervals cannot hide.
* :func:`zero_offload_style_policy` — in the spirit of ZeRO-Offload (Ren et
  al.): keep optimizer state and parameter gradients on the host, paying one
  round trip per training iteration for them.  The policy is *rank-aware*:
  on a data-parallel trace (``n_devices`` in the trace metadata) the host
  copy is partitioned ZeRO-style across the replicas, so each rank only
  transfers its ``1/N`` partition per iteration — the per-device footprint
  savings stay full-size while the per-rank communication shrinks with the
  replica count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.ati import compute_interval_arrays
from ..core.events import MemoryCategory
from ..core.swap import BandwidthConfig, swap_round_trip_ns
from ..core.trace import MemoryTrace
from ..units import MIB


@dataclass
class SwapPolicyResult:
    """Outcome of one reference swapping policy on a trace."""

    name: str
    selected_block_ids: List[int]
    swapped_bytes: int
    peak_bytes_before: int
    estimated_peak_bytes_after: int
    overhead_ns: float
    world_size: int = 1
    partition_bytes: Optional[int] = None  # per-rank transfer quantum (ZeRO-style)

    @property
    def savings_bytes(self) -> int:
        """Estimated peak-footprint reduction."""
        return self.peak_bytes_before - self.estimated_peak_bytes_after

    @property
    def savings_fraction(self) -> float:
        """Peak-footprint reduction as a fraction of the original peak."""
        if self.peak_bytes_before == 0:
            return 0.0
        return self.savings_bytes / self.peak_bytes_before

    def summary(self) -> Dict[str, object]:
        """Compact summary used by the comparison experiment."""
        summary: Dict[str, object] = {
            "name": self.name,
            "num_blocks": len(self.selected_block_ids),
            "swapped_bytes": self.swapped_bytes,
            "savings_bytes": self.savings_bytes,
            "savings_fraction": self.savings_fraction,
            "overhead_ns": self.overhead_ns,
        }
        if self.world_size > 1:
            summary["world_size"] = self.world_size
            summary["partition_bytes"] = self.partition_bytes
        return summary


def _block_sizes(trace: MemoryTrace) -> Dict[int, int]:
    """Size of every block that appears in the trace (max size seen per id)."""
    sizes: Dict[int, int] = {}
    for lifetime in trace.lifetimes:
        sizes[lifetime.block_id] = max(sizes.get(lifetime.block_id, 0), lifetime.size)
    return sizes


def _largest_interval_per_block(trace: MemoryTrace, block_ids) -> Dict[int, int]:
    """Largest access interval (ns) of each of ``block_ids`` (absent: no interval).

    Read off the interval columns: no :class:`~repro.core.ati.AccessInterval`
    is built for the (many) blocks the policy never considers.
    """
    arrays = compute_interval_arrays(trace)
    largest: Dict[int, int] = {}
    for block_id in block_ids:
        gaps = arrays.interval_ns[arrays.block_id == block_id]
        if gaps.size:
            largest[block_id] = int(gaps.max())
    return largest


def swap_advisor_style_policy(trace: MemoryTrace,
                              bandwidths: Optional[BandwidthConfig] = None,
                              top_k: int = 5,
                              min_block_bytes: int = 32 * MIB) -> SwapPolicyResult:
    """Swap the ``top_k`` largest blocks regardless of their access timing."""
    bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
    sizes = _block_sizes(trace)
    candidates = sorted(
        ((block_id, size) for block_id, size in sizes.items() if size >= min_block_bytes),
        key=lambda item: item[1], reverse=True,
    )[:top_k]
    largest_intervals = _largest_interval_per_block(
        trace, [block_id for block_id, _ in candidates])

    peak_before = trace.peak_live_bytes()
    swapped = sum(size for _, size in candidates)
    overhead = 0.0
    for block_id, size in candidates:
        round_trip = swap_round_trip_ns(size, bandwidths)
        hidden = largest_intervals.get(block_id, 0)
        overhead += max(0.0, round_trip - hidden)
    return SwapPolicyResult(
        name="swap_advisor_style",
        selected_block_ids=[block_id for block_id, _ in candidates],
        swapped_bytes=swapped,
        peak_bytes_before=peak_before,
        estimated_peak_bytes_after=max(0, peak_before - swapped),
        overhead_ns=overhead,
    )


def zero_offload_style_policy(trace: MemoryTrace,
                              bandwidths: Optional[BandwidthConfig] = None) -> SwapPolicyResult:
    """Keep optimizer state and parameter gradients on the host (rank-aware).

    The offloaded bytes are absent from the device footprint; every training
    iteration pays a round trip for them (gradients out, updated values
    back), which is the overhead ZeRO-Offload hides behind CPU compute but a
    synchronous implementation would expose.

    On a data-parallel trace (``n_devices > 1`` in the trace metadata) the
    policy evaluates the rank-0 replica and partitions the host copy across
    the ranks the way ZeRO-Offload shards its optimizer state: every replica
    still frees its *full* local optimizer-state/gradient footprint (the
    per-device savings), but per iteration it only moves its ``1/N``
    partition, so the exposed transfer time shrinks with the replica count
    instead of being a flat, cluster-size-oblivious discount.
    """
    bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
    world_size = max(1, int(trace.metadata.get("n_devices", 1) or 1))
    rank_trace = trace.for_rank(0) if world_size > 1 else trace
    offload_categories = (MemoryCategory.OPTIMIZER_STATE, MemoryCategory.PARAMETER_GRADIENT)
    offloaded: Dict[int, int] = {}
    for lifetime in rank_trace.lifetimes:
        if lifetime.category in offload_categories:
            offloaded[lifetime.block_id] = max(offloaded.get(lifetime.block_id, 0),
                                               lifetime.size)
    swapped = sum(offloaded.values())
    partition = -(-swapped // world_size)  # ceil: each rank's shard of the host copy
    iterations = max(1, len(rank_trace.iteration_marks))
    overhead = iterations * swap_round_trip_ns(partition, bandwidths)
    peak_before = rank_trace.peak_live_bytes()
    return SwapPolicyResult(
        name="zero_offload_style",
        selected_block_ids=sorted(offloaded),
        swapped_bytes=swapped,
        peak_bytes_before=peak_before,
        estimated_peak_bytes_after=max(0, peak_before - swapped),
        overhead_ns=overhead,
        world_size=world_size,
        partition_bytes=partition,
    )
