"""One entry point per paper figure/table, plus the ablations of DESIGN.md.

Every experiment reduces to scenarios executed by the sweep engine
(:mod:`repro.experiments.sweep`), which analyzes each recorded trace through
the column store introduced in PR 1 (:meth:`repro.core.trace.MemoryTrace.columns`
and the vectorized ATI/breakdown analyses on top of it) and caches the
reduced :class:`~repro.experiments.sweep.ScenarioResult`s on disk.  The
report generator (:mod:`repro.report`) turns those cached results into
EXPERIMENTS.md and the per-figure docs pages.
"""

from .ablations import (
    AllocatorAblationRow,
    TimingAblationRow,
    run_allocator_ablation,
    run_timing_ablation,
)
from .configs import (
    PAPER_MLP_BATCH_SIZE,
    PAPER_MLP_HOST_LATENCY,
    PAPER_MLP_ITERATIONS,
    breakdown_config,
    paper_mlp_config,
    small_mlp_config,
)
from .eq1_swap import Eq1Result, PAPER_EXPECTED_SWAP_BYTES, PAPER_OPERATING_POINTS_US, run_eq1
from .fig2_gantt import Fig2Result, run_fig2
from .fig3_ati import Fig3Result, run_fig3
from .fig4_outliers import Fig4Result, run_fig4
from .fig5_breakdown import DEFAULT_FIG5_WORKLOADS, Fig5Result, run_fig5
from .fig6_alexnet import DEFAULT_FIG6_BATCH_SIZES, Fig6Result, run_fig6
from .fig7_resnet import DEFAULT_FIG7_BATCH_SIZE, DEFAULT_FIG7_DEPTHS, Fig7Result, run_fig7
from .swap_planner import SwapPlannerResult, run_swap_planner
from .sweep import (
    Scenario,
    ScenarioResult,
    SweepGrid,
    SweepResult,
    SweepRunner,
    run_scenario,
)

__all__ = [
    "AllocatorAblationRow",
    "DEFAULT_FIG5_WORKLOADS",
    "DEFAULT_FIG6_BATCH_SIZES",
    "DEFAULT_FIG7_BATCH_SIZE",
    "DEFAULT_FIG7_DEPTHS",
    "Eq1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "PAPER_EXPECTED_SWAP_BYTES",
    "PAPER_MLP_BATCH_SIZE",
    "PAPER_MLP_HOST_LATENCY",
    "PAPER_MLP_ITERATIONS",
    "PAPER_OPERATING_POINTS_US",
    "Scenario",
    "ScenarioResult",
    "SwapPlannerResult",
    "SweepGrid",
    "SweepResult",
    "SweepRunner",
    "TimingAblationRow",
    "breakdown_config",
    "paper_mlp_config",
    "run_allocator_ablation",
    "run_eq1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_scenario",
    "run_swap_planner",
    "run_timing_ablation",
    "small_mlp_config",
]
