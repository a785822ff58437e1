"""Experiment E6 — Figure 5: memory occupation breakdown of typical DNNs.

The paper's observation: for most DNNs, parameters account for only a small
fraction of the training footprint; intermediate results dominate.  This
experiment profiles a family of "typical" models (the MLP, LeNet-5, AlexNet,
VGG-11/16, a small Inception and ResNet-18/50) in symbolic execution and
reports the three-way breakdown at peak occupancy for each.

The workloads run through the scenario-sweep engine
(:mod:`repro.experiments.sweep`), so they share result caching and process
parallelism with ``repro sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.breakdown import BreakdownSeries, OccupationBreakdown
from ..train.session import TrainingRunConfig
from .configs import breakdown_config
from .sweep import Scenario, SweepRunner

#: Default class count per dataset (used when the workload does not override it).
DATASET_NUM_CLASSES = {"cifar100": 100, "cifar10": 10, "imagenet": 1000,
                       "mnist": 10, "two_cluster": 2}

#: Default model family for the Figure-5 breakdown: (label, model, dataset,
#: batch size, input size).  CIFAR-sized inputs keep the sweep fast while the
#: two ImageNet entries show the large-model regime.
DEFAULT_FIG5_WORKLOADS: Tuple[Tuple[str, str, str, int, int], ...] = (
    ("mlp", "mlp", "two_cluster", 512, 0),
    ("lenet5", "lenet5", "mnist", 128, 28),
    ("alexnet-imagenet", "alexnet", "imagenet", 64, 224),
    ("vgg11-cifar", "vgg11", "cifar100", 128, 32),
    ("vgg16-imagenet", "vgg16", "imagenet", 32, 224),
    ("inception-cifar", "inception_small", "cifar100", 128, 32),
    ("resnet18-imagenet", "resnet18", "imagenet", 32, 224),
    ("resnet50-imagenet", "resnet50", "imagenet", 16, 224),
)


@dataclass
class Fig5Result:
    """Per-model breakdowns for the "typical DNNs" figure."""

    #: One entry per workload, keyed by the workload's label.
    series: BreakdownSeries

    @property
    def breakdowns(self) -> List[OccupationBreakdown]:
        """The per-model breakdowns, in workload order."""
        return [breakdown for _, breakdown in self.series.entries]

    def rows(self) -> List[Dict[str, object]]:
        """One report row per model: total footprint and per-bucket fractions."""
        return self.series.fractions_table()

    def parameters_always_minor(self, threshold: float = 0.5) -> bool:
        """The paper's claim: parameters are a small fraction for every model."""
        return all(fraction <= threshold
                   for fraction in self.series.trend("parameters"))

    def intermediates_dominant_count(self) -> int:
        """How many models have intermediate results as the largest bucket."""
        count = 0
        for b in self.breakdowns:
            fractions = b.fractions()
            if max(fractions, key=fractions.get) == "intermediate results":
                count += 1
        return count


def fig5_config(label: str, model: str, dataset: str, batch_size: int,
                input_size: int,
                num_classes_override: Optional[int] = None) -> TrainingRunConfig:
    """The training configuration of one Figure-5 workload tuple."""
    kwargs: Dict[str, Optional[int]] = {}
    if model not in ("mlp", "paper_mlp"):
        kwargs["input_size"] = input_size or None
        kwargs["num_classes"] = (num_classes_override
                                 if num_classes_override is not None
                                 else DATASET_NUM_CLASSES[dataset])
    config = breakdown_config(model=model, dataset=dataset, batch_size=batch_size,
                              input_size=kwargs.get("input_size"),
                              num_classes=kwargs.get("num_classes"))
    config.label = label
    return config


def fig5_scenarios(workloads: Optional[Sequence[Tuple[str, str, str, int, int]]] = None,
                   num_classes_override: Optional[int] = None) -> List[Scenario]:
    """The concrete sweep points behind Figure 5 (one per workload tuple)."""
    workloads = workloads if workloads is not None else DEFAULT_FIG5_WORKLOADS
    return [Scenario(config=fig5_config(*workload,
                                        num_classes_override=num_classes_override))
            for workload in workloads]


def run_fig5(workloads: Optional[Sequence[Tuple[str, str, str, int, int]]] = None,
             num_classes_override: Optional[int] = None,
             runner: Optional[SweepRunner] = None) -> Fig5Result:
    """Profile every model of the Figure-5 family and compute its breakdown.

    ``runner`` (defaulting to a serial, uncached :class:`SweepRunner`)
    controls caching and parallelism.
    """
    workloads = workloads if workloads is not None else DEFAULT_FIG5_WORKLOADS
    runner = runner if runner is not None else SweepRunner()
    sweep = runner.run(fig5_scenarios(workloads, num_classes_override))
    series = BreakdownSeries(parameter_name="label")
    for (label, *_), result in zip(workloads, sweep.results):
        series.add(label, result.occupation())
    return Fig5Result(series=series)
