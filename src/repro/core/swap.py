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
columns of idle windows — a trace's ATIs or the swap engine's observed gaps:
it ranks swappable windows by footprint savings, checks Eq. 1 per candidate
and reports the expected peak-memory reduction and runtime overhead of a
chosen plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..units import GB, MIB, format_bytes, format_duration
from .ati import IntervalArrays
from .trace import CATEGORY_FROM_CODE, MemoryTrace


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
    """One idle window the planner considers swapping its block out for."""

    block_id: int
    size: int                     # bytes absent from the device while swapped out
    interval_ns: int              # the window: an ATI or an observed idle gap
    label: str                    # how :meth:`SwapPlan.describe` names the block
    feasible: bool
    swap_limit_bytes: float
    round_trip_ns: float
    slack_ns: float               # ATI minus round-trip time (negative => overhead)

    @property
    def overhead_ns(self) -> float:
        """Runtime overhead if this candidate is swapped anyway (0 when feasible)."""
        return max(0.0, -self.slack_ns)


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
                f"  - block {candidate.block_id} ({candidate.label}): "
                f"{format_bytes(candidate.size)} over "
                f"{format_duration(candidate.interval_ns)} ATI"
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

    def evaluate(self, block_id, size, interval_ns,
                 labels: Callable[[np.ndarray], List[str]]) -> List[SwapCandidate]:
        """Score every window whose block reaches the size floor, best first.

        ``block_id``, ``size`` and ``interval_ns`` are parallel columns, one
        row per idle window; ``labels`` is asked once for the names of the
        rows the floor keeps (their indices, in row order).  Feasible
        candidates rank first, then larger ones; equal keys keep row order.
        """
        size = np.asarray(size)
        rows = np.flatnonzero(size >= self.min_candidate_bytes)
        if rows.size == 0:
            return []
        candidates = []
        for block, nbytes, gap, label in zip(np.asarray(block_id)[rows].tolist(),
                                             size[rows].tolist(),
                                             np.asarray(interval_ns)[rows].tolist(),
                                             labels(rows)):
            limit = max_swap_bytes(gap, self.bandwidths)
            round_trip = swap_round_trip_ns(nbytes, self.bandwidths)
            candidates.append(SwapCandidate(
                block_id=block, size=nbytes, interval_ns=gap, label=label,
                feasible=nbytes <= limit, swap_limit_bytes=limit,
                round_trip_ns=round_trip, slack_ns=gap - round_trip))
        candidates.sort(key=lambda c: (c.feasible, c.size), reverse=True)
        return candidates

    # -- planning -----------------------------------------------------------------------

    def plan(self, trace: MemoryTrace, arrays: IntervalArrays) -> SwapPlan:
        """Choose a set of swaps over ``trace``'s ATIs (``arrays``) that
        reduces its peak memory the most.

        A candidate is named by the tag of the access closing its ATI, or by
        its block's category when that access has no tag.
        """
        def labels(rows: np.ndarray) -> List[str]:
            tags, _ops = trace.event_strings()
            return [tags[end] or CATEGORY_FROM_CODE[code].value
                    for end, code in zip(arrays.end_index[rows].tolist(),
                                         arrays.category_code[rows].tolist())]

        return self.plan_columns(arrays.block_id, arrays.size, arrays.interval_ns,
                                 labels, trace.peak_live_bytes())

    def plan_columns(self, block_id, size, interval_ns,
                     labels: Callable[[np.ndarray], List[str]],
                     peak_before: int) -> SwapPlan:
        """:meth:`plan` on bare columns (see :meth:`evaluate`) plus a known peak.

        At most one swap is selected per block (a block absent from the device
        during its largest idle interval is the best that block can do), and
        an infeasible candidate is taken only while the allowed overhead lasts.
        The closed-loop swap-execution engine (:mod:`repro.swap`) plans its
        warm-up's observed idle windows here, so its selection and the
        offline planner's are one code path — what makes the
        predicted-vs-simulated comparison an apples-to-apples regression.
        """
        candidates = self.evaluate(block_id, size, interval_ns, labels)

        selected: List[SwapCandidate] = []
        selected_blocks: set = set()
        overhead_budget = self.allow_overhead_ns
        savings = 0
        for candidate in candidates:
            if candidate.block_id in selected_blocks:
                continue
            if not candidate.feasible:
                if candidate.overhead_ns > overhead_budget:
                    continue
                overhead_budget -= candidate.overhead_ns
            selected.append(candidate)
            selected_blocks.add(candidate.block_id)
            savings += candidate.size

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
