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
from typing import Dict, List, Optional

from ..core.ati import AccessInterval, compute_access_intervals
from ..core.swap import BandwidthConfig, SwapPlan, SwapPlanner
from ..swap.policies import PolicySummary, get_policy
from ..train.session import SessionResult, TrainingRunConfig, run_training_session
from .configs import paper_mlp_config


@dataclass
class SwapPlannerResult:
    """The planner's plan plus the two reference policies on the same trace."""

    session: SessionResult
    plan: SwapPlan
    swap_advisor_baseline: PolicySummary
    zero_offload_baseline: PolicySummary

    def summary(self) -> Dict[str, object]:
        """Compact summary recorded in EXPERIMENTS.md."""
        return {
            "workload": self.session.label,
            "planner": self.plan.summary(),
            "swap_advisor_style": self.swap_advisor_baseline,
            "zero_offload_style": self.zero_offload_baseline,
        }


def run_swap_planner(config: Optional[TrainingRunConfig] = None,
                     session: Optional[SessionResult] = None,
                     bandwidths: Optional[BandwidthConfig] = None,
                     allow_overhead_ns: float = 0.0) -> SwapPlannerResult:
    """Plan swapping on the MLP trace and evaluate the reference policies."""
    if session is None:
        config = config if config is not None else paper_mlp_config()
        session = run_training_session(config)
    bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
    intervals = compute_access_intervals(session.trace)
    planner = SwapPlanner(bandwidths=bandwidths, allow_overhead_ns=allow_overhead_ns)
    plan = planner.plan(session.trace, intervals)
    return SwapPlannerResult(
        session=session,
        plan=plan,
        swap_advisor_baseline=get_policy("swap_advisor").evaluate(session.trace, bandwidths),
        zero_offload_baseline=get_policy("zero_offload").evaluate(session.trace, bandwidths),
    )
