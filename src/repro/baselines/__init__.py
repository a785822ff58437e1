"""Trace-level estimators behind the analysis-only memory policies.

Recomputation (:func:`estimate_recompute_plan`) and parameter compression
(:func:`estimate_pruning`, :func:`estimate_quantization`) are estimated on a
recorded trace.  The policy classes that put them — and the swapping
techniques — on the sweep's ``swap_policies`` axis live with the one registry
in :mod:`repro.swap.policies`.
"""

from .pruning import CompressionEstimate, estimate_pruning, estimate_quantization
from .recompute import RecomputePlan, estimate_recompute_plan

__all__ = [
    "CompressionEstimate",
    "RecomputePlan",
    "estimate_pruning",
    "estimate_quantization",
    "estimate_recompute_plan",
]
