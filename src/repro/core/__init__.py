"""The paper's contribution: block-level memory-behavior recording and analysis.

The recorder side (:class:`~repro.core.profiler.MemoryProfiler` /
:class:`~repro.core.recorder.TraceRecorder`) produces a
:class:`~repro.core.trace.MemoryTrace`; the analysis side (ATI, breakdown,
gantt, periodicity, fragmentation, Eq.-1 swap planning) consumes it.  The hot
analyses — ATI pairing, occupation breakdown, Eq.-1 screening — are
vectorized over the trace's columnar NumPy view
(:meth:`~repro.core.trace.MemoryTrace.columns`, see the module docstring of
:mod:`repro.core.trace` for the layout).  The access-time intervals have one
record, :class:`~repro.core.ati.IntervalArrays` (one row per ATI): the
figures, the outlier report and the swap planner read its columns and keep
row indices into it.
"""

from .ati import AtiSummary, IntervalArrays, compute_interval_arrays, summarize_values_us
from .breakdown import (
    BreakdownSeries,
    OccupationBreakdown,
    model_state_bytes,
    occupation_breakdown,
)
from .events import (
    PAPER_BUCKETS,
    IterationMark,
    MemoryCategory,
    MemoryEventKind,
)
from .fragmentation import (
    FragmentationReport,
    analyze_fragmentation,
    internal_fragmentation_bytes,
)
from .gantt import GanttChart, GanttRectangle, build_gantt_chart
from .outliers import (
    DEFAULT_ATI_THRESHOLD_NS,
    DEFAULT_SIZE_THRESHOLD_BYTES,
    OutlierReport,
    find_outliers,
    pairwise_ati_size,
    top_swap_candidates,
)
from .patterns import Periodicity, periodicity
from .profiler import MemoryProfiler
from .recorder import TraceRecorder
from .stats import (
    CdfResult,
    ViolinStats,
    empirical_cdf,
    gaussian_kde_trace,
    violin_stats,
)
from .swap import (
    BandwidthConfig,
    SwapCandidate,
    SwapPlan,
    SwapPlanner,
    max_swap_bytes,
    swap_round_trip_ns,
)
from .trace import MemoryTrace, TRACE_FORMAT_VERSION, merge_rank_traces

__all__ = [
    "AtiSummary",
    "BandwidthConfig",
    "BreakdownSeries",
    "CdfResult",
    "DEFAULT_ATI_THRESHOLD_NS",
    "DEFAULT_SIZE_THRESHOLD_BYTES",
    "FragmentationReport",
    "GanttChart",
    "GanttRectangle",
    "IntervalArrays",
    "IterationMark",
    "MemoryCategory",
    "MemoryEventKind",
    "MemoryProfiler",
    "MemoryTrace",
    "OccupationBreakdown",
    "OutlierReport",
    "PAPER_BUCKETS",
    "Periodicity",
    "SwapCandidate",
    "SwapPlan",
    "SwapPlanner",
    "TRACE_FORMAT_VERSION",
    "TraceRecorder",
    "ViolinStats",
    "analyze_fragmentation",
    "build_gantt_chart",
    "compute_interval_arrays",
    "empirical_cdf",
    "find_outliers",
    "gaussian_kde_trace",
    "merge_rank_traces",
    "internal_fragmentation_bytes",
    "max_swap_bytes",
    "model_state_bytes",
    "occupation_breakdown",
    "pairwise_ati_size",
    "periodicity",
    "summarize_values_us",
    "swap_round_trip_ns",
    "top_swap_candidates",
    "violin_stats",
]
