"""Swap feasibility model (Equation 1) and the automatic swap planner.

Equation 1 of the paper bounds the amount of data that can be swapped out to
the host and back within one access-time interval without slowing training::

    S / B_d2h + S / B_h2d <= ATI
    S <= ATI / (1 / B_d2h + 1 / B_h2d)

With the paper's measured pinned bandwidths (6.4 GB/s device→host and
6.3 GB/s host→device) a 25 us ATI only hides ~79.37 KB, while a 0.8 s ATI
hides ~2.54 GB — hence only the high-ATI / large-block outliers are worth
swapping.

The paper's stated future work is "an automatic cost model to sift out these
memory access behaviors"; :class:`SwapPlanner` implements that cost model on
top of the recorded trace: it ranks swappable intervals by footprint savings,
checks Eq. 1 per candidate, accounts for copy-engine contention and reports
the expected peak-memory reduction and runtime overhead of a chosen plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..units import GB, MIB, format_bytes, format_duration, ns_to_us
from .ati import AccessInterval, IntervalArrays
from .trace import MemoryTrace


@dataclass(frozen=True)
class BandwidthConfig:
    """Host↔device bandwidths used by Eq. 1 (bytes per second)."""

    h2d_bytes_per_s: float
    d2h_bytes_per_s: float

    @staticmethod
    def from_paper() -> "BandwidthConfig":
        """The paper's measured pinned bandwidths: 6.3 GB/s h2d, 6.4 GB/s d2h."""
        return BandwidthConfig(h2d_bytes_per_s=6.3 * GB, d2h_bytes_per_s=6.4 * GB)

    @staticmethod
    def from_device_spec(spec) -> "BandwidthConfig":
        """Extract the bandwidths from a :class:`~repro.device.spec.DeviceSpec`."""
        return BandwidthConfig(h2d_bytes_per_s=spec.h2d_bandwidth,
                               d2h_bytes_per_s=spec.d2h_bandwidth)

    @property
    def round_trip_s_per_byte(self) -> float:
        """Eq. 1's denominator: seconds to move one byte out to the host and back."""
        return 1.0 / self.d2h_bytes_per_s + 1.0 / self.h2d_bytes_per_s


def max_swap_bytes(ati_ns: float, bandwidths: BandwidthConfig) -> float:
    """Equation 1: the largest block swappable within ``ati_ns`` at no runtime cost."""
    if ati_ns <= 0:
        return 0.0
    return (ati_ns / 1e9) / bandwidths.round_trip_s_per_byte


def swap_round_trip_ns(nbytes: float, bandwidths: BandwidthConfig) -> float:
    """Time to evict ``nbytes`` to the host and bring them back."""
    if nbytes <= 0:
        return 0.0
    return nbytes * bandwidths.round_trip_s_per_byte * 1e9


def is_swappable(interval: AccessInterval, bandwidths: BandwidthConfig) -> bool:
    """Whether the block of ``interval`` can be swapped within its ATI (Eq. 1)."""
    return interval.size <= max_swap_bytes(interval.interval_ns, bandwidths)


def _eq1_limit_bytes(interval_ns: np.ndarray, round_trip_s_per_byte,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized Eq. 1: the bytes each ATI hides (negative gaps hide nothing).

    Every step writes into ``out`` (a float64 array of the gaps' shape,
    allocated when not given), in the order ``max(gap, 0) / 1e9 / rt``.
    """
    if out is None:
        out = np.empty(np.shape(interval_ns))
    np.maximum(interval_ns, 0, out=out)
    np.divide(out, 1e9, out=out)
    return np.divide(out, round_trip_s_per_byte, out=out)


def swappable_mask(arrays: IntervalArrays, bandwidths: BandwidthConfig) -> np.ndarray:
    """Vectorized Eq. 1 over an :class:`~repro.core.ati.IntervalArrays` column set."""
    return arrays.size <= _eq1_limit_bytes(arrays.interval_ns,
                                           bandwidths.round_trip_s_per_byte)


def swappable_fractions(interval_ns: np.ndarray, sizes: np.ndarray,
                        round_trip_s_per_byte: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per row of an ``(S, n)`` gap matrix, the fraction of ATIs passing Eq. 1.

    ``sizes`` holds the ``n`` block sizes behind the gaps and
    ``round_trip_s_per_byte`` one Eq.-1 denominator per row; a row without
    intervals screens to 0.0.  The gaps are only read.  ``out``, a float64
    ``(S, n)`` matrix the caller owns, takes the limits and then each ATI's
    verdict as 0.0 / 1.0 (without it, one matrix is allocated); a row's mean
    is an exact count over ``n``, bit for bit the mean of a boolean mask.
    """
    interval_ns = np.asarray(interval_ns)
    if interval_ns.shape[1] == 0:
        return np.zeros(interval_ns.shape[0])
    limits = _eq1_limit_bytes(interval_ns, np.asarray(round_trip_s_per_byte)[:, None],
                              out)
    return np.less_equal(sizes, limits, out=limits).mean(axis=1)


def swappable_fraction(arrays: IntervalArrays, bandwidths: BandwidthConfig) -> float:
    """Fraction of ATIs whose block fits through Eq. 1 (0.0 for an empty set)."""
    return float(swappable_fractions(arrays.interval_ns[None, :], arrays.size,
                                     [bandwidths.round_trip_s_per_byte])[0])


@dataclass
class SwapCandidate:
    """One behavior the planner considers swapping during its ATI."""

    interval: AccessInterval
    feasible: bool
    swap_limit_bytes: float
    round_trip_ns: float
    slack_ns: float               # ATI minus round-trip time (negative => overhead)
    savings_bytes: int            # bytes absent from the device while swapped out

    @property
    def overhead_ns(self) -> float:
        """Runtime overhead if this candidate is swapped anyway (0 when feasible)."""
        return max(0.0, -self.slack_ns)

    def to_dict(self) -> Dict[str, object]:
        """Serialize for reports."""
        return {
            "block_id": self.interval.block_id,
            "tag": self.interval.tag,
            "size_bytes": self.interval.size,
            "ati_us": self.interval.interval_us,
            "feasible": self.feasible,
            "swap_limit_bytes": self.swap_limit_bytes,
            "round_trip_us": ns_to_us(self.round_trip_ns),
            "slack_us": ns_to_us(self.slack_ns),
            "savings_bytes": self.savings_bytes,
        }


@dataclass
class SwapPlan:
    """The planner's output: chosen candidates and their aggregate effect."""

    candidates: List[SwapCandidate]
    selected: List[SwapCandidate]
    peak_bytes_before: int
    estimated_peak_bytes_after: int
    total_overhead_ns: float
    bandwidths: BandwidthConfig

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
        """Compact description used by benchmarks and examples."""
        return {
            "num_candidates": len(self.candidates),
            "num_selected": len(self.selected),
            "peak_bytes_before": self.peak_bytes_before,
            "peak_bytes_after": self.estimated_peak_bytes_after,
            "savings_bytes": self.savings_bytes,
            "savings_fraction": self.savings_fraction,
            "total_overhead_ns": self.total_overhead_ns,
        }

    def describe(self) -> str:
        """Human-readable multi-line description of the plan."""
        lines = [
            f"peak before: {format_bytes(self.peak_bytes_before)}",
            f"peak after : {format_bytes(self.estimated_peak_bytes_after)} "
            f"({100.0 * self.savings_fraction:.1f}% saved)",
            f"overhead   : {format_duration(self.total_overhead_ns)}",
            f"selected   : {len(self.selected)} of {len(self.candidates)} candidates",
        ]
        for candidate in self.selected:
            lines.append(
                f"  - block {candidate.interval.block_id} "
                f"({candidate.interval.tag or candidate.interval.category.value}): "
                f"{format_bytes(candidate.interval.size)} over "
                f"{format_duration(candidate.interval.interval_ns)} ATI"
            )
        return "\n".join(lines)


class SwapPlanner:
    """The paper's future-work "automatic cost model", built on recorded traces.

    Parameters
    ----------
    bandwidths:
        Host↔device bandwidths used in Eq. 1.
    min_candidate_bytes:
        Blocks smaller than this are never considered (swapping them cannot
        meaningfully reduce pressure, as the paper's 79 KB example shows).
    allow_overhead_ns:
        Total runtime overhead the planner may introduce (0 means only
        Eq.-1-feasible candidates are selected).
    """

    def __init__(self, bandwidths: Optional[BandwidthConfig] = None,
                 min_candidate_bytes: int = 32 * MIB,
                 allow_overhead_ns: float = 0.0):
        self.bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
        self.min_candidate_bytes = int(min_candidate_bytes)
        self.allow_overhead_ns = float(allow_overhead_ns)

    # -- candidate evaluation ----------------------------------------------------------

    def evaluate(self, intervals: Sequence[AccessInterval]) -> List[SwapCandidate]:
        """Score every interval large enough to be worth considering."""
        candidates = []
        for interval in intervals:
            if interval.size < self.min_candidate_bytes:
                continue
            limit = max_swap_bytes(interval.interval_ns, self.bandwidths)
            round_trip = swap_round_trip_ns(interval.size, self.bandwidths)
            slack = interval.interval_ns - round_trip
            candidates.append(SwapCandidate(
                interval=interval,
                feasible=interval.size <= limit,
                swap_limit_bytes=limit,
                round_trip_ns=round_trip,
                slack_ns=slack,
                savings_bytes=interval.size,
            ))
        candidates.sort(key=lambda c: (c.feasible, c.savings_bytes), reverse=True)
        return candidates

    # -- planning -----------------------------------------------------------------------

    def plan(self, trace: MemoryTrace, intervals: Sequence[AccessInterval],
             target_bytes: Optional[int] = None) -> SwapPlan:
        """Choose a set of swaps that reduces peak memory the most.

        At most one swap is selected per block (a block absent from the device
        during its largest idle interval is the best that block can do), and
        selection stops once ``target_bytes`` of savings (if given) is reached
        or the allowed overhead is exhausted.
        """
        return self.plan_from_intervals(intervals, trace.peak_live_bytes(),
                                        target_bytes=target_bytes)

    def plan_from_intervals(self, intervals: Sequence[AccessInterval],
                            peak_before: int,
                            target_bytes: Optional[int] = None) -> SwapPlan:
        """:meth:`plan` without a trace: candidates plus a known peak.

        This is the entry point the closed-loop swap-execution engine
        (:mod:`repro.swap`) uses after its warm-up iteration — it observed
        the intervals and the peak itself, and routing its selection through
        the same code as the offline planner is what makes the
        predicted-vs-simulated comparison an apples-to-apples regression.
        """
        candidates = self.evaluate(intervals)

        selected: List[SwapCandidate] = []
        selected_blocks: set = set()
        overhead_budget = self.allow_overhead_ns
        savings = 0
        for candidate in candidates:
            if candidate.interval.block_id in selected_blocks:
                continue
            if not candidate.feasible:
                if candidate.overhead_ns > overhead_budget:
                    continue
                overhead_budget -= candidate.overhead_ns
            selected.append(candidate)
            selected_blocks.add(candidate.interval.block_id)
            savings += candidate.savings_bytes
            if target_bytes is not None and savings >= target_bytes:
                break

        total_overhead = sum(candidate.overhead_ns for candidate in selected)
        estimated_after = max(0, peak_before - savings)
        return SwapPlan(
            candidates=candidates,
            selected=selected,
            peak_bytes_before=peak_before,
            estimated_peak_bytes_after=estimated_after,
            total_overhead_ns=total_overhead,
            bandwidths=self.bandwidths,
        )
