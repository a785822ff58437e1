"""Pluggable memory-pressure-reduction policies.

The paper compares swapping against the other families of footprint
reduction — recomputation (gradient checkpointing) and parameter compression
(pruning / quantization).  This module puts every baseline behind one
:class:`MemoryPolicy` interface so that the sweep engine, the report
generator and the CLI treat them uniformly: a policy takes a recorded
:class:`~repro.core.trace.MemoryTrace` and returns a *normalized* summary
dictionary that always contains

``policy``
    The registry name of the policy.
``savings_bytes`` / ``savings_fraction``
    Estimated peak-footprint reduction (absolute and relative).
``overhead_ns``
    Estimated runtime cost of achieving the reduction (0 when free).

plus whatever policy-specific extras the underlying estimator reports.  The
``none`` policy evaluates to ``None`` — no reduction is attempted.

Policies are looked up by name through :func:`get_policy`; the registry is
the single source of truth for the sweep dimension ``swap_policies`` (kept
under its historical name even though it now spans recompute and compression
baselines too).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple

from ..core.ati import compute_access_intervals
from ..core.swap import BandwidthConfig, SwapPlanner
from ..core.trace import MemoryTrace

#: The normalized summary type every policy evaluation produces.
PolicySummary = Dict[str, object]


class MemoryPolicy(ABC):
    """One memory-pressure-reduction strategy, evaluated on a recorded trace."""

    #: Registry name of the policy (set by subclasses).
    name: str = "base"

    #: Name of this policy's executable twin in the closed-loop swap engine
    #: (:data:`repro.swap.EXECUTION_POLICIES`), or ``None`` when the policy
    #: is analysis-only (recompute/compression estimators have no swap-engine
    #: counterpart).  ``scenario.swap = policy.executable_name`` runs the same
    #: strategy for real instead of estimating it.
    executable_name: Optional[str] = None

    def make_executable(self, **kwargs):
        """Instantiate the executable twin for the swap-execution engine.

        Raises ``ValueError`` for analysis-only policies.
        """
        if self.executable_name is None:
            raise ValueError(
                f"policy '{self.name}' is analysis-only and has no executable "
                f"swap-engine counterpart")
        from ..swap import get_execution_policy
        return get_execution_policy(self.executable_name, **kwargs)

    @abstractmethod
    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Evaluate the policy on ``trace`` and return a normalized summary.

        Returns ``None`` when the policy performs no reduction (the ``none``
        baseline), otherwise a dictionary with at least the keys ``policy``,
        ``savings_bytes``, ``savings_fraction`` and ``overhead_ns``.
        """

    def _normalize(self, summary: PolicySummary, savings_bytes: int,
                   savings_fraction: float, overhead_ns: float) -> PolicySummary:
        """Stamp the shared keys onto a policy-specific summary."""
        summary = dict(summary)
        summary["policy"] = self.name
        summary["savings_bytes"] = int(savings_bytes)
        summary["savings_fraction"] = float(savings_fraction)
        summary["overhead_ns"] = float(overhead_ns)
        return summary


class NoPolicy(MemoryPolicy):
    """The do-nothing baseline: the footprint is reported as recorded."""

    name = "none"

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """No reduction is attempted; evaluates to ``None``."""
        return None


class PlannerPolicy(MemoryPolicy):
    """The paper's Eq.-1 swap planner: swap only where the ATI hides the copy."""

    name = "planner"
    executable_name = "planner"

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Plan interval-aware swapping and summarize the chosen plan."""
        bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
        planner = SwapPlanner(bandwidths=bandwidths)
        intervals = compute_access_intervals(trace,
                                             min_size=planner.min_candidate_bytes)
        plan = planner.plan(trace, intervals)
        summary = plan.summary()
        return self._normalize(summary, plan.savings_bytes, plan.savings_fraction,
                               plan.total_overhead_ns)


class SwapAdvisorPolicy(MemoryPolicy):
    """Size-ranked swapping in the spirit of SwapAdvisor (timing-oblivious)."""

    name = "swap_advisor"
    executable_name = "swap_advisor"

    def __init__(self, top_k: int = 5):
        self.top_k = int(top_k)

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Swap the largest blocks and charge the transfer time the ATIs cannot hide."""
        from .swapping import swap_advisor_style_policy
        result = swap_advisor_style_policy(trace, bandwidths, top_k=self.top_k)
        return self._normalize(result.summary(), result.savings_bytes,
                               result.savings_fraction, result.overhead_ns)


class ZeroOffloadPolicy(MemoryPolicy):
    """Optimizer-state/gradient offload in the spirit of ZeRO-Offload."""

    name = "zero_offload"
    executable_name = "zero_offload"

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Keep optimizer state and gradients on the host, one round trip per step."""
        from .swapping import zero_offload_style_policy
        result = zero_offload_style_policy(trace, bandwidths)
        return self._normalize(result.summary(), result.savings_bytes,
                               result.savings_fraction, result.overhead_ns)


class RecomputePolicy(MemoryPolicy):
    """Gradient checkpointing: discard activations, re-run forward segments."""

    name = "recompute"

    def __init__(self, keep_every: int = 2):
        self.keep_every = int(keep_every)

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Estimate checkpointing every ``keep_every``-th activation."""
        from .recompute import estimate_recompute_plan
        plan = estimate_recompute_plan(trace, keep_every=self.keep_every)
        return self._normalize(plan.summary(), plan.savings_bytes,
                               plan.savings_fraction, plan.recompute_time_overhead_ns)


class PruningPolicy(MemoryPolicy):
    """Weight pruning: remove a fraction of the parameter bytes."""

    name = "pruning"

    def __init__(self, sparsity: float = 0.9):
        self.sparsity = float(sparsity)

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Estimate the total-footprint effect of pruning the weights."""
        from .pruning import estimate_pruning
        estimate = estimate_pruning(trace, sparsity=self.sparsity)
        savings = estimate.peak_bytes_before - estimate.estimated_peak_bytes_after
        return self._normalize(estimate.summary(), savings,
                               estimate.total_reduction_fraction, 0.0)


class QuantizationPolicy(MemoryPolicy):
    """Weight quantization: shrink parameter bytes to ``bits`` per element."""

    name = "quantization"

    def __init__(self, bits: int = 8):
        self.bits = int(bits)

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Estimate the total-footprint effect of quantizing the weights."""
        from .pruning import estimate_quantization
        estimate = estimate_quantization(trace, bits=self.bits)
        savings = estimate.peak_bytes_before - estimate.estimated_peak_bytes_after
        return self._normalize(estimate.summary(), savings,
                               estimate.total_reduction_fraction, 0.0)


#: Factories for every registered policy, in presentation order.
POLICY_REGISTRY: Dict[str, Callable[[], MemoryPolicy]] = {
    NoPolicy.name: NoPolicy,
    PlannerPolicy.name: PlannerPolicy,
    SwapAdvisorPolicy.name: SwapAdvisorPolicy,
    ZeroOffloadPolicy.name: ZeroOffloadPolicy,
    RecomputePolicy.name: RecomputePolicy,
    PruningPolicy.name: PruningPolicy,
    QuantizationPolicy.name: QuantizationPolicy,
}


def available_policies() -> Tuple[str, ...]:
    """Names of every registered policy, in presentation order."""
    return tuple(POLICY_REGISTRY)


def get_policy(name: str) -> MemoryPolicy:
    """Instantiate a registered policy by name.

    Raises ``ValueError`` with the list of known policies when unknown.
    """
    try:
        factory = POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(available_policies())
        raise ValueError(
            f"unknown swap policy '{name}'; known policies: {known}") from None
    return factory()
