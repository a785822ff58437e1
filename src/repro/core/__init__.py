"""The paper's contribution: block-level memory-behavior recording and analysis.

The recorder side (:class:`~repro.core.profiler.MemoryProfiler` /
:class:`~repro.core.recorder.TraceRecorder`) produces a
:class:`~repro.core.trace.MemoryTrace`; the analysis side (ATI, breakdown,
gantt, patterns, fragmentation, Eq.-1 swap planning) consumes it.  The hot
analyses — ATI pairing, occupation breakdown, Eq.-1 screening — are
vectorized over the trace's columnar NumPy view
(:meth:`~repro.core.trace.MemoryTrace.columns`, see the module docstring of
:mod:`repro.core.trace` for the layout).
"""

from .ati import (
    AccessInterval,
    AtiSummary,
    compute_access_intervals,
    fraction_below,
    interval_values_us,
    intervals_by_category,
    intervals_by_kind,
    summarize_intervals,
)
from .breakdown import (
    BreakdownSeries,
    OccupationBreakdown,
    model_state_bytes,
    occupation_breakdown,
)
from .events import (
    PAPER_BUCKETS,
    BlockLifetime,
    IterationMark,
    MemoryCategory,
    MemoryEvent,
    MemoryEventKind,
)
from .fragmentation import (
    FragmentationReport,
    analyze_fragmentation,
    internal_fragmentation_bytes,
    snapshot_external_fragmentation,
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
from .patterns import (
    IterationSignature,
    PatternReport,
    detect_iterative_pattern,
    iteration_signature,
    jaccard_similarity,
    sequence_similarity,
)
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
    is_swappable,
    max_swap_bytes,
    swap_round_trip_ns,
)
from .trace import MemoryTrace, TRACE_FORMAT_VERSION, merge_rank_traces

__all__ = [
    "AccessInterval",
    "AtiSummary",
    "BandwidthConfig",
    "BlockLifetime",
    "BreakdownSeries",
    "CdfResult",
    "DEFAULT_ATI_THRESHOLD_NS",
    "DEFAULT_SIZE_THRESHOLD_BYTES",
    "FragmentationReport",
    "GanttChart",
    "GanttRectangle",
    "IterationMark",
    "IterationSignature",
    "MemoryCategory",
    "MemoryEvent",
    "MemoryEventKind",
    "MemoryProfiler",
    "MemoryTrace",
    "OccupationBreakdown",
    "OutlierReport",
    "PAPER_BUCKETS",
    "PatternReport",
    "SwapCandidate",
    "SwapPlan",
    "SwapPlanner",
    "TRACE_FORMAT_VERSION",
    "TraceRecorder",
    "ViolinStats",
    "analyze_fragmentation",
    "build_gantt_chart",
    "compute_access_intervals",
    "detect_iterative_pattern",
    "empirical_cdf",
    "find_outliers",
    "fraction_below",
    "gaussian_kde_trace",
    "merge_rank_traces",
    "internal_fragmentation_bytes",
    "interval_values_us",
    "intervals_by_category",
    "intervals_by_kind",
    "is_swappable",
    "iteration_signature",
    "jaccard_similarity",
    "max_swap_bytes",
    "model_state_bytes",
    "occupation_breakdown",
    "pairwise_ati_size",
    "sequence_similarity",
    "snapshot_external_fragmentation",
    "summarize_intervals",
    "swap_round_trip_ns",
    "top_swap_candidates",
    "violin_stats",
]
