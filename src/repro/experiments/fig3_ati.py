"""Experiment E2/E3 — Figure 3: CDF and violin plot of the MLP's ATIs.

The paper reports that the ATIs of most behaviors are concentrated in the
10-25 us band and that 90% of behaviors have an ATI below 25 us.  This
experiment computes the full CDF (Fig. 3a) and per-behavior-kind violin
statistics (Fig. 3b) from the MLP scenario's trace (served by the sweep
runner) and quantifies the concentration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.ati import AtiSummary, IntervalArrays, compute_interval_arrays, summarize_values_us
from ..core.stats import CdfResult, ViolinStats, empirical_cdf, violin_stats
from ..core.trace import KIND_FROM_CODE
from ..train.session import TrainingRunConfig
from .configs import paper_mlp_config
from .sweep import Scenario, SweepRunner


@dataclass
class Fig3Result:
    """Data behind Figure 3a (CDF) and Figure 3b (violin per behavior kind)."""

    label: str
    intervals: IntervalArrays
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
    intervals = compute_interval_arrays(runner.trace(scenario))
    values = intervals.interval_us
    # One violin per kind of the access closing the ATI, in kind-name order.
    kinds = sorted((KIND_FROM_CODE[code].value, code)
                   for code in np.unique(intervals.end_kind_code).tolist())
    cdf = empirical_cdf(values)
    return Fig3Result(
        label=scenario.label,
        intervals=intervals,
        cdf=cdf,
        violins={kind: violin_stats(values[intervals.end_kind_code == code], label=kind)
                 for kind, code in kinds},
        summary_stats=summarize_values_us(values),
        fraction_below_25us=cdf.fraction_below(25.0),
    )
