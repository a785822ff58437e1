"""Experiment E10 — the paper's future work: an automatic swap cost model.

Section IV of the paper announces "an automatic cost model to sift out these
memory access behaviors to reduce the device memory pressure during
training".  This experiment runs the :class:`~repro.core.swap.SwapPlanner`
on the recorded MLP trace and compares it against two reference policies
inspired by the works the paper cites: a SwapAdvisor-style policy (swap the
largest tensors regardless of timing) and a ZeRO-Offload-style policy
(offload all optimizer state and gradients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.ati import compute_access_intervals
from ..core.swap import BandwidthConfig, SwapPlan, SwapPlanner
from ..swap.policies import PolicySummary, get_policy
from ..train.session import TrainingRunConfig
from .configs import paper_mlp_config
from .sweep import Scenario, SweepRunner


@dataclass
class SwapPlannerResult:
    """The planner's plan plus the two reference policies on the same trace."""

    label: str
    plan: SwapPlan
    swap_advisor_baseline: PolicySummary
    zero_offload_baseline: PolicySummary

    def summary(self) -> Dict[str, object]:
        """Compact summary recorded in EXPERIMENTS.md."""
        return {
            "workload": self.label,
            "planner": self.plan.summary(),
            "swap_advisor_style": self.swap_advisor_baseline,
            "zero_offload_style": self.zero_offload_baseline,
        }


def run_swap_planner(config: Optional[TrainingRunConfig] = None,
                     bandwidths: Optional[BandwidthConfig] = None,
                     allow_overhead_ns: float = 0.0,
                     runner: Optional[SweepRunner] = None) -> SwapPlannerResult:
    """Plan swapping on the MLP trace and evaluate the reference policies."""
    runner = runner if runner is not None else SweepRunner()
    scenario = Scenario(config if config is not None else paper_mlp_config())
    bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
    trace = runner.trace(scenario)
    planner = SwapPlanner(bandwidths=bandwidths, allow_overhead_ns=allow_overhead_ns)
    return SwapPlannerResult(
        label=scenario.label,
        plan=planner.plan(trace, compute_access_intervals(trace)),
        swap_advisor_baseline=get_policy("swap_advisor").evaluate(trace, bandwidths),
        zero_offload_baseline=get_policy("zero_offload").evaluate(trace, bandwidths),
    )
