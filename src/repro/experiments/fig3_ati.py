"""Experiment E2/E3 — Figure 3: CDF and violin plot of the MLP's ATIs.

The paper reports that the ATIs of most behaviors are concentrated in the
10-25 us band and that 90% of behaviors have an ATI below 25 us.  This
experiment computes the full CDF (Fig. 3a) and per-behavior-kind violin
statistics (Fig. 3b) from the MLP scenario's trace (served by the sweep
runner) and quantifies the concentration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.ati import (
    AccessInterval,
    AtiSummary,
    compute_access_intervals,
    fraction_below,
    interval_values_us,
    intervals_by_kind,
    summarize_intervals,
)
from ..core.stats import CdfResult, ViolinStats, empirical_cdf, violin_stats
from ..train.session import TrainingRunConfig
from .configs import paper_mlp_config
from .sweep import Scenario, SweepRunner


@dataclass
class Fig3Result:
    """Data behind Figure 3a (CDF) and Figure 3b (violin per behavior kind)."""

    label: str
    intervals: List[AccessInterval]
    cdf: CdfResult
    violins: Dict[str, ViolinStats]
    summary_stats: AtiSummary
    fraction_below_25us: float

    def summary(self) -> Dict[str, object]:
        """Compact summary recorded in EXPERIMENTS.md."""
        return {
            "workload": self.label,
            "num_intervals": len(self.intervals),
            "ati": self.summary_stats.to_dict(),
            "fraction_below_25us": self.fraction_below_25us,
            "p90_us": self.summary_stats.p90_us,
            "violin_medians_us": {kind: stats.median
                                  for kind, stats in self.violins.items()},
        }


def run_fig3(config: Optional[TrainingRunConfig] = None,
             runner: Optional[SweepRunner] = None) -> Fig3Result:
    """Run the Figure-3 experiment on the trace ``runner`` serves for ``config``."""
    runner = runner if runner is not None else SweepRunner()
    scenario = Scenario(config if config is not None else paper_mlp_config())
    intervals = compute_access_intervals(runner.trace(scenario))
    grouped = intervals_by_kind(intervals)
    return Fig3Result(
        label=scenario.label,
        intervals=intervals,
        cdf=empirical_cdf(interval_values_us(intervals)),
        violins={kind: violin_stats([i.interval_us for i in group], label=kind)
                 for kind, group in sorted(grouped.items())},
        summary_stats=summarize_intervals(intervals),
        fraction_below_25us=fraction_below(intervals, 25.0),
    )
