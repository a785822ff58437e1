"""Shared workload configurations for the paper's experiments.

The MLP trace behind Figures 2, 3 and 4 is produced once by
:func:`paper_mlp_config`; the breakdown figures (5, 6, 7) build their own
per-model configurations.  Everything is expressed as
:class:`~repro.train.session.TrainingRunConfig` so that benchmarks, examples
and tests all exercise the same code path.
"""

from __future__ import annotations

from typing import Optional

from ..data.loader import HostLatencyModel
from ..train.session import TrainingRunConfig
from ..units import GIB

#: Batch size used for the paper-MLP trace.  The paper does not state its
#: batch size; this value makes the largest saved activation ~768 MiB, which
#: reproduces the ">600 MB outlier blocks" regime of Figure 4.
PAPER_MLP_BATCH_SIZE = 16_384

#: Number of iterations shown in the paper's Figure 2 Gantt chart.
PAPER_MLP_ITERATIONS = 5

#: Host-side latency model for the MLP workload.  Per-sample preprocessing of
#: ~50 us makes one iteration take ~0.85 s of host time, matching the ~0.84 s
#: outlier access intervals the paper reports.
PAPER_MLP_HOST_LATENCY = HostLatencyModel(
    per_batch_ns=2_000_000,
    per_sample_ns=50_000,
    per_byte_ns=0.05,
)


def paper_mlp_config(batch_size: int = PAPER_MLP_BATCH_SIZE,
                     iterations: int = PAPER_MLP_ITERATIONS,
                     execution_mode: str = "symbolic",
                     seed: int = 0) -> TrainingRunConfig:
    """The workload behind Figures 2-4: the Fig.-1 MLP trained for 5 iterations."""
    return TrainingRunConfig(
        model="paper_mlp",
        dataset="two_cluster",
        batch_size=batch_size,
        iterations=iterations,
        execution_mode=execution_mode,
        host_latency=PAPER_MLP_HOST_LATENCY,
        seed=seed,
        label=f"paper MLP (batch={batch_size})",
    )


def small_mlp_config(batch_size: int = 64, iterations: int = 5,
                     hidden_dim: int = 256, seed: int = 0) -> TrainingRunConfig:
    """A scaled-down eager MLP used by tests and the quickstart example."""
    return TrainingRunConfig(
        model="mlp",
        model_kwargs={"hidden_dim": hidden_dim},
        dataset="two_cluster",
        batch_size=batch_size,
        iterations=iterations,
        execution_mode="eager",
        seed=seed,
        label=f"small MLP (hidden={hidden_dim}, batch={batch_size})",
    )


def breakdown_config(model: str, dataset: str, batch_size: int, iterations: int = 2,
                     input_size: Optional[int] = None, num_classes: Optional[int] = None,
                     device_memory_capacity: int = 48 * GIB,
                     seed: int = 0) -> TrainingRunConfig:
    """A symbolic-execution configuration for the occupation-breakdown figures.

    Two iterations are enough: the footprint peaks during the backward pass
    once gradients and optimizer state exist.  The simulated device capacity
    is raised to 48 GiB so that configurations the paper could not fit on the
    Titan X (e.g. large-batch AlexNet, deep ResNets) still produce a
    breakdown instead of an out-of-memory error; the breakdown itself is
    capacity-independent.
    """
    model_kwargs = {}
    if input_size is not None:
        model_kwargs["input_size"] = input_size
    if num_classes is not None:
        model_kwargs["num_classes"] = num_classes
    return TrainingRunConfig(
        model=model,
        model_kwargs=model_kwargs,
        dataset=dataset,
        batch_size=batch_size,
        iterations=iterations,
        execution_mode="symbolic",
        device_memory_capacity=device_memory_capacity,
        seed=seed,
        label=f"{model}/{dataset}/batch{batch_size}",
    )
