"""Weight pruning / quantization footprint estimator.

The paper argues (from the Figure-5 breakdown) that "weight pruning or
quantization techniques are not efficient for reducing the memory pressures
of DNN training" because parameters are a small fraction of the footprint.
This estimator quantifies that argument on a recorded trace: given a pruning
ratio or a quantized bit width applied to the parameter bytes, how much does
the *total* training footprint actually shrink?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.events import MemoryCategory
from ..core.trace import CATEGORY_CODES, MemoryTrace


@dataclass
class CompressionEstimate:
    """Effect of compressing parameters on the total training footprint."""

    technique: str
    parameter_bytes_before: int
    parameter_bytes_after: int
    peak_bytes_before: int
    estimated_peak_bytes_after: int

    @property
    def parameter_reduction_fraction(self) -> float:
        """Fraction of the parameter bytes removed."""
        if self.parameter_bytes_before == 0:
            return 0.0
        return 1.0 - self.parameter_bytes_after / self.parameter_bytes_before

    @property
    def total_reduction_fraction(self) -> float:
        """Fraction of the *total* footprint removed — the paper's point."""
        if self.peak_bytes_before == 0:
            return 0.0
        return 1.0 - self.estimated_peak_bytes_after / self.peak_bytes_before

    def summary(self) -> Dict[str, object]:
        """Compact summary for reports."""
        return {
            "technique": self.technique,
            "parameter_reduction_fraction": self.parameter_reduction_fraction,
            "total_reduction_fraction": self.total_reduction_fraction,
            "peak_bytes_before": self.peak_bytes_before,
            "peak_bytes_after": self.estimated_peak_bytes_after,
        }


_PARAMETER_CODES = np.array([CATEGORY_CODES[MemoryCategory.PARAMETER],
                             CATEGORY_CODES[MemoryCategory.OPTIMIZER_STATE]])


def _peak_parameter_bytes(trace: MemoryTrace) -> int:
    """Bytes of parameter-bucket blocks live at the footprint peak: the first
    malloc/free row at which cumulative live bytes reach their maximum (a
    later tie does not move it), none if they never reach zero."""
    cols = trace.columns()
    lifecycle = cols.is_malloc | cols.is_free
    deltas = cols.live_deltas()[lifecycle]
    live = np.cumsum(deltas)
    if live.size == 0 or live.max() < 0:
        return 0
    parameters = np.cumsum(np.where(
        np.isin(cols.category_code[lifecycle], _PARAMETER_CODES), deltas, 0))
    return max(0, int(parameters[np.argmax(live)]))


def estimate_pruning(trace: MemoryTrace, sparsity: float = 0.9) -> CompressionEstimate:
    """Estimate the footprint effect of pruning ``sparsity`` of the weights."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    parameter_bytes = _peak_parameter_bytes(trace)
    removed = int(parameter_bytes * sparsity)
    peak_before = trace.peak_live_bytes()
    return CompressionEstimate(
        technique=f"pruning(sparsity={sparsity:.0%})",
        parameter_bytes_before=parameter_bytes,
        parameter_bytes_after=parameter_bytes - removed,
        peak_bytes_before=peak_before,
        estimated_peak_bytes_after=max(0, peak_before - removed),
    )


def estimate_quantization(trace: MemoryTrace, bits: int = 8) -> CompressionEstimate:
    """Estimate the footprint effect of quantizing float32 weights to ``bits`` bits."""
    if bits <= 0 or bits > 32:
        raise ValueError("bits must be in (0, 32]")
    parameter_bytes = _peak_parameter_bytes(trace)
    after = int(parameter_bytes * bits / 32.0)
    peak_before = trace.peak_live_bytes()
    return CompressionEstimate(
        technique=f"quantization({bits}-bit)",
        parameter_bytes_before=parameter_bytes,
        parameter_bytes_after=after,
        peak_bytes_before=peak_before,
        estimated_peak_bytes_after=max(0, peak_before - (parameter_bytes - after)),
    )
