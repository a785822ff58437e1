"""Distribution statistics used by the figures: CDFs and violin data.

Figure 3a of the paper is an empirical CDF of the ATIs; Figure 3b is a violin
plot (box-plot quartiles plus a kernel-density trace).  These helpers compute
the underlying data so that the CLI and the examples can print the same
numbers the figures encode, without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np


def percentiles_of_sorted(sorted_values: np.ndarray,
                          percents: Sequence[float]) -> np.ndarray:
    """``np.percentile(values, percents, axis=-1)`` read off already sorted values.

    The only order-statistics kernel under ``src/``: callers sort once
    (``np.sort`` — the vectorised sort is several times faster here than the
    multi-pivot ``partition`` behind ``np.percentile``; ``make kernel-probe``
    prints the ranking for the running host) and read every percentile, the
    minimum and the maximum off the result.  Reproduces numpy's default
    ``linear`` method bit for bit on finite values: virtual index
    ``(n - 1) * (p / 100)``, its floor and the next position clipped to
    ``n - 1``, and numpy's two-branch interpolation.  Like ``np.percentile``
    the percentiles come first in the result: shape ``(len(percents), ...)``.
    """
    last = sorted_values.shape[-1] - 1
    virtual = last * np.true_divide(percents, 100)
    floor = np.floor(virtual)
    lower = floor.astype(np.intp)
    below = sorted_values[..., lower]
    above = sorted_values[..., np.minimum(lower + 1, last)]
    weight = virtual - floor
    step = above - below
    result = below + step * weight
    np.subtract(above, step * (1 - weight), out=result, where=weight >= 0.5)
    return np.moveaxis(result, -1, 0)


@dataclass
class CdfResult:
    """An empirical cumulative distribution function."""

    values: np.ndarray          # sorted sample values
    probabilities: np.ndarray   # cumulative probability at each value

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples at or below ``threshold``."""
        if self.values.size == 0:
            return 0.0
        return float(np.searchsorted(self.values, threshold, side="right") / self.values.size)



def empirical_cdf(samples: Sequence[float]) -> CdfResult:
    """Build the empirical CDF of a sample set."""
    array = np.asarray(list(samples), dtype=np.float64)
    if array.size == 0:
        return CdfResult(values=np.array([]), probabilities=np.array([]))
    sorted_values = np.sort(array)
    probabilities = np.arange(1, sorted_values.size + 1) / sorted_values.size
    return CdfResult(values=sorted_values, probabilities=probabilities)


@dataclass
class ViolinStats:
    """The data a violin plot encodes: quartiles, whiskers and a density trace."""

    label: str
    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    density_x: np.ndarray = field(default_factory=lambda: np.array([]))
    density_y: np.ndarray = field(default_factory=lambda: np.array([]))

    def to_dict(self) -> Dict[str, object]:
        """Serialize the scalar part of the violin statistics."""
        return {
            "label": self.label,
            "count": self.count,
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
        }

    @property
    def iqr(self) -> float:
        """Inter-quartile range."""
        return self.q3 - self.q1


def gaussian_kde_trace(samples: np.ndarray, num_points: int = 100) -> Tuple[np.ndarray, np.ndarray]:
    """A simple Gaussian kernel-density estimate (Scott's rule bandwidth)."""
    if samples.size == 0:
        return np.array([]), np.array([])
    if samples.size == 1 or float(np.std(samples)) == 0.0:
        # Degenerate distribution: a single spike.
        x = np.array([float(samples[0])])
        return x, np.array([1.0])
    std = float(np.std(samples, ddof=1))
    bandwidth = 1.06 * std * samples.size ** (-1.0 / 5.0)
    bandwidth = max(bandwidth, 1e-9)
    grid = np.linspace(float(samples.min()), float(samples.max()), num_points)
    diffs = (grid[:, None] - samples[None, :]) / bandwidth
    density = np.exp(-0.5 * diffs ** 2).sum(axis=1) / (samples.size * bandwidth * np.sqrt(2 * np.pi))
    return grid, density


def violin_stats(samples: Sequence[float], label: str = "",
                 density_points: int = 100) -> ViolinStats:
    """Compute the violin-plot statistics of a sample set."""
    array = np.asarray(list(samples), dtype=np.float64)
    if array.size == 0:
        return ViolinStats(label=label, count=0, minimum=0.0, q1=0.0, median=0.0,
                           q3=0.0, maximum=0.0)
    density_x, density_y = gaussian_kde_trace(array, num_points=density_points)
    ordered = np.sort(array)
    q1, median, q3 = percentiles_of_sorted(ordered, (25, 50, 75))
    return ViolinStats(
        label=label,
        count=int(array.size),
        minimum=float(ordered[0]),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(ordered[-1]),
        density_x=density_x,
        density_y=density_y,
    )
