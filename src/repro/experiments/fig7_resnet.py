"""Experiment E8 — Figure 7: ResNet breakdown versus depth (ImageNet).

The paper repeats the Figure-6 analysis for the non-linear ResNet family
(ResNet-18/34/50/101/152) on ImageNet-sized inputs and finds the same trend:
intermediate results dominate and deepen their dominance with more residual
layer blocks, while the parameter share stays minor.

Like Figure 6, the sweep runs through the scenario-sweep engine so results
are cached and can execute across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.breakdown import BreakdownSeries
from .configs import breakdown_config
from .sweep import Scenario, SweepRunner

#: ResNet depths the paper sweeps.
DEFAULT_FIG7_DEPTHS = ("resnet18", "resnet34", "resnet50", "resnet101", "resnet152")

#: Default per-GPU batch size for the ImageNet-sized sweep.
DEFAULT_FIG7_BATCH_SIZE = 16


@dataclass
class Fig7Result:
    """Breakdown-vs-depth series for the ResNet family."""

    series: BreakdownSeries
    batch_size: int
    dataset: str
    input_size: int

    def rows(self) -> List[Dict[str, object]]:
        """One row per ResNet depth with the bucket fractions."""
        return self.series.fractions_table()

    def intermediates_dominant_everywhere(self, threshold: float = 0.5) -> bool:
        """Whether intermediates exceed ``threshold`` of the footprint at every depth."""
        return all(fraction >= threshold
                   for fraction in self.series.trend("intermediate results"))

    def parameters_always_minor(self, threshold: float = 0.5) -> bool:
        """Whether parameters stay below ``threshold`` of the footprint at every depth."""
        return all(fraction <= threshold for fraction in self.series.trend("parameters"))

    def total_footprint_grows_with_depth(self) -> bool:
        """Whether the absolute footprint grows with network depth."""
        totals = [breakdown.total_bytes for _, breakdown in self.series.entries]
        return all(b >= a for a, b in zip(totals, totals[1:]))


def fig7_scenarios(depths: Sequence[str] = DEFAULT_FIG7_DEPTHS,
                   batch_size: int = DEFAULT_FIG7_BATCH_SIZE,
                   dataset: str = "imagenet", input_size: int = 224,
                   num_classes: int = 1000) -> List[Scenario]:
    """The concrete sweep points behind Figure 7 (one per ResNet depth)."""
    scenarios = []
    for depth in depths:
        config = breakdown_config(model=depth, dataset=dataset, batch_size=batch_size,
                                  input_size=input_size, num_classes=num_classes)
        config.label = f"{depth}-batch{batch_size}"
        scenarios.append(Scenario(config=config))
    return scenarios


def run_fig7(depths: Sequence[str] = DEFAULT_FIG7_DEPTHS,
             batch_size: int = DEFAULT_FIG7_BATCH_SIZE,
             dataset: str = "imagenet", input_size: int = 224,
             num_classes: int = 1000,
             runner: "Optional[SweepRunner]" = None) -> Fig7Result:
    """Sweep the ResNet depth at a fixed batch size on ImageNet-sized inputs."""
    runner = runner if runner is not None else SweepRunner()
    sweep = runner.run(fig7_scenarios(depths, batch_size=batch_size, dataset=dataset,
                                      input_size=input_size, num_classes=num_classes))
    series = BreakdownSeries(parameter_name="depth")
    for depth, result in zip(depths, sweep.results):
        series.add(depth, result.occupation())
    return Fig7Result(series=series, batch_size=batch_size, dataset=dataset,
                      input_size=input_size)
