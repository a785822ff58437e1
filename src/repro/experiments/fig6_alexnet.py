"""Experiment E7 — Figure 6: AlexNet breakdown versus batch size (CIFAR-100).

The paper's observation: as the batch size grows, intermediate results
gradually dominate the device memory consumption, the share of parameters
shrinks and the share of input data grows slightly.  This experiment sweeps
the batch size for AlexNet on CIFAR-100-shaped data and reports the breakdown
at every point.

The sweep itself runs through the scenario-sweep engine
(:mod:`repro.experiments.sweep`), so it shares result caching and process
parallelism with ``repro sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.breakdown import BreakdownSeries
from .configs import breakdown_config
from .sweep import Scenario, SweepRunner

#: Batch sizes swept by default (the paper sweeps batch size on a log-ish grid).
DEFAULT_FIG6_BATCH_SIZES = (32, 64, 128, 256, 512, 1024)


@dataclass
class Fig6Result:
    """Breakdown-vs-batch-size series for AlexNet."""

    series: BreakdownSeries
    model: str
    dataset: str
    input_size: int

    def rows(self) -> List[Dict[str, object]]:
        """One row per batch size with the bucket fractions."""
        return self.series.fractions_table()

    def intermediates_grow_with_batch(self) -> bool:
        """The paper's claim: the intermediate share grows with batch size."""
        return self.series.is_monotonic_increasing("intermediate results")

    def parameters_shrink_with_batch(self) -> bool:
        """The paper's claim: the parameter share weakens with batch size."""
        return self.series.is_monotonic_decreasing("parameters")


def fig6_scenarios(batch_sizes: Sequence[int] = DEFAULT_FIG6_BATCH_SIZES,
                   model: str = "alexnet", dataset: str = "cifar100",
                   input_size: int = 32, num_classes: int = 100) -> List[Scenario]:
    """The concrete sweep points behind Figure 6 (one per batch size)."""
    scenarios = []
    for batch_size in batch_sizes:
        config = breakdown_config(model=model, dataset=dataset, batch_size=batch_size,
                                  input_size=input_size, num_classes=num_classes)
        config.label = f"{model}-batch{batch_size}"
        scenarios.append(Scenario(config=config))
    return scenarios


def run_fig6(batch_sizes: Sequence[int] = DEFAULT_FIG6_BATCH_SIZES,
             model: str = "alexnet", dataset: str = "cifar100",
             input_size: int = 32, num_classes: int = 100,
             runner: Optional[SweepRunner] = None) -> Fig6Result:
    """Sweep the batch size for AlexNet (or another registered model).

    ``runner`` (defaulting to a serial, uncached :class:`SweepRunner`)
    controls caching and parallelism — pass one with a ``cache_dir`` and
    ``workers`` to reuse previous figure runs.
    """
    runner = runner if runner is not None else SweepRunner()
    sweep = runner.run(fig6_scenarios(batch_sizes, model=model, dataset=dataset,
                                      input_size=input_size, num_classes=num_classes))
    series = BreakdownSeries(parameter_name="batch_size")
    for batch_size, result in zip(batch_sizes, sweep.results):
        series.add(batch_size, result.occupation())
    return Fig6Result(series=series, model=model, dataset=dataset, input_size=input_size)
