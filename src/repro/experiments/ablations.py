"""Ablation experiments A1 and A2.

The design choices called out in DESIGN.md are quantified here:

* **A1 — allocator policy.**  The same MLP workload is traced under the
  caching allocator, a best-fit arena allocator and a bump allocator.  The
  caching allocator reuses blocks (stable block identities, few segment
  reservations); the alternatives change the event stream, the number of
  distinct blocks and the reserved-memory profile.
* **A2 — timing-model sensitivity.**  The ATI distribution depends on the
  kernel timing model; sweeping the host dispatch overhead shows how much of
  the small-ATI band is launch/dispatch bound versus data-movement bound.

Both ablations are one-dimensional scenario sweeps, so they are expressed as
:class:`~repro.experiments.sweep.SweepGrid` grids and executed by the shared
sweep engine (same caching and parallelism as ``repro sweep``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..data.loader import HostLatencyModel
from .sweep import ScenarioResult, SweepGrid, SweepRunner

#: Host-side latency of the shared ablation workload (fast: the ablations
#: compare allocator/timing effects, not dataloader behavior).
ABLATION_HOST_LATENCY = HostLatencyModel(per_batch_ns=500_000, per_sample_ns=5_000,
                                         per_byte_ns=0.05)


def _mlp_ablation_grid(batch_size: int, iterations: int, hidden_dim: int,
                       **dimensions) -> SweepGrid:
    """The shared MLP workload, with one sweep dimension supplied by the caller."""
    return SweepGrid(
        models=("mlp",),
        batch_sizes=(batch_size,),
        iterations=(iterations,),
        model_kwargs={"hidden_dim": hidden_dim},
        dataset="two_cluster",
        host_latency=ABLATION_HOST_LATENCY,
        **dimensions,
    )


@dataclass
class AllocatorAblationRow:
    """Metrics of one allocator policy on the shared workload."""

    allocator: str
    num_events: int
    num_blocks: int
    peak_allocated_bytes: int
    peak_reserved_bytes: int
    cache_hit_rate: float
    segment_allocs: int
    mean_utilization: float

    def to_dict(self) -> Dict[str, object]:
        """Serialize for reporting."""
        return {
            "allocator": self.allocator,
            "num_events": self.num_events,
            "num_blocks": self.num_blocks,
            "peak_allocated_bytes": self.peak_allocated_bytes,
            "peak_reserved_bytes": self.peak_reserved_bytes,
            "cache_hit_rate": self.cache_hit_rate,
            "segment_allocs": self.segment_allocs,
            "mean_utilization": self.mean_utilization,
        }

    @staticmethod
    def from_scenario_result(result: ScenarioResult) -> "AllocatorAblationRow":
        """Build one ablation row from a sweep scenario result."""
        stats = result.allocator_stats
        total_lookups = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
        # Reserved-memory counters come from the allocator itself rather than
        # the trace: the best-fit allocator reserves its whole arena before
        # the first request, a segment no recorded call made.
        return AllocatorAblationRow(
            allocator=str(result.scenario["allocator"]),
            num_events=result.num_events,
            num_blocks=result.num_blocks,
            peak_allocated_bytes=stats.get("peak_allocated_bytes",
                                           result.peak_allocated_bytes),
            peak_reserved_bytes=stats.get("peak_reserved_bytes",
                                          result.peak_reserved_bytes),
            cache_hit_rate=(stats.get("cache_hits", 0) / total_lookups
                            if total_lookups else 0.0),
            segment_allocs=stats.get("segment_allocs", 0),
            mean_utilization=result.mean_utilization,
        )


def run_allocator_ablation(allocators: Sequence[str] = ("caching", "best_fit", "bump"),
                           batch_size: int = 1024, iterations: int = 4,
                           hidden_dim: int = 2048,
                           runner: Optional[SweepRunner] = None) -> List[AllocatorAblationRow]:
    """A1: trace the same workload under different allocator policies."""
    runner = runner if runner is not None else SweepRunner()
    grid = _mlp_ablation_grid(batch_size, iterations, hidden_dim,
                              allocators=tuple(allocators))
    sweep = runner.run(grid)
    return [AllocatorAblationRow.from_scenario_result(result)
            for result in sweep.results]


@dataclass
class TimingAblationRow:
    """ATI statistics of the shared workload under one timing configuration."""

    host_dispatch_overhead_us: float
    p50_us: float
    p90_us: float
    mean_us: float

    def to_dict(self) -> Dict[str, float]:
        """Serialize for reporting."""
        return {
            "host_dispatch_overhead_us": self.host_dispatch_overhead_us,
            "p50_us": self.p50_us,
            "p90_us": self.p90_us,
            "mean_us": self.mean_us,
        }


def run_timing_ablation(dispatch_overheads_us: Sequence[float] = (1.0, 6.0, 20.0, 50.0),
                        batch_size: int = 256, iterations: int = 4,
                        hidden_dim: int = 1024,
                        runner: Optional[SweepRunner] = None) -> List[TimingAblationRow]:
    """A2: sweep the host dispatch overhead and report the ATI percentiles."""
    runner = runner if runner is not None else SweepRunner()
    grid = _mlp_ablation_grid(batch_size, iterations, hidden_dim,
                              host_dispatch_overheads_ns=tuple(
                                  int(us * 1_000) for us in dispatch_overheads_us))
    sweep = runner.run(grid)
    return [TimingAblationRow(
        host_dispatch_overhead_us=overhead_us,
        p50_us=float(result.ati["p50_us"]),
        p90_us=float(result.ati["p90_us"]),
        mean_us=float(result.ati["mean_us"]),
    ) for overhead_us, result in zip(dispatch_overheads_us, sweep.results)]
