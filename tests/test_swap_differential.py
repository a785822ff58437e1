"""The swap executor against its per-behavior oracle.

:class:`~repro.swap.executor.SwapExecutor` learns from its recorder's log in
one columnar pass per replan and hooks only the blocks it acts on;
``tests.helpers.ReferenceSwapExecutor`` is the executor that ran every rule
in Python at every malloc, free, read and write.  For each scenario both must
produce the same ``ScenarioResult`` (wall time aside), the same merged trace
(columns, tags and ops), the same ``SwapExecutionSummary.to_dict()`` for
every replica, and hand ``plan()`` the same observations at every replan —
or raise the same error.

Tier-1 runs a pinned corpus (the 23 ``swap_ladder`` benchmark rows at its
seed 100) plus a few generated draws; the swap-smoke CI leg draws wide with
``--hypothesis-profile=swap-wide``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.experiments.grid import SweepGrid
from repro.swap import SwapExecutor
from repro.train.session import TrainingRunConfig, run_training_session
from repro.units import MIB

from tests.helpers import (CAPACITY_RUNGS_MIB, assert_swap_matches_reference,
                           swap_scenarios)

#: The model seed ``swap_ladder`` draws at benchmark seed 100.
LADDER_SEED = 314590
LADDER_MODES = ("off", "planner", "swap_advisor", "zero_offload", "lru", "unified")


def ladder_scenarios():
    """The ``swap_ladder`` rows: every mode on a 4096-wide MLP, the capacity
    ladder under ``lru`` / ``unified`` on a 2048-wide one, every mode on a
    32-pixel resnet18 and its two-replica ``zero_offload`` row."""
    mlp = dict(models=("mlp",), batch_sizes=(512,), dataset="two_cluster",
               iterations=(5,), seeds=(LADDER_SEED,))
    resnet = dict(models=("resnet18",), batch_sizes=(8,), dataset="cifar10",
                  model_kwargs={"input_size": 32, "num_classes": 10},
                  iterations=(5,), seeds=(LADDER_SEED,))
    grids = [
        SweepGrid(**mlp, swaps=LADDER_MODES,
                  model_kwargs={"hidden_dim": 4096, "num_hidden_layers": 4}),
        SweepGrid(**mlp, swaps=("lru", "unified"),
                  model_kwargs={"hidden_dim": 2048, "num_hidden_layers": 4},
                  device_memory_capacities=[mib * MIB for mib in CAPACITY_RUNGS_MIB]),
        SweepGrid(**resnet, swaps=LADDER_MODES),
        SweepGrid(**resnet, swaps=("zero_offload",), n_devices=(2,)),
    ]
    return [scenario for grid in grids for scenario in grid.expand()]


LADDER = ladder_scenarios()


def test_the_corpus_is_the_ladder():
    assert len(LADDER) == 23


@pytest.mark.parametrize("scenario", LADDER, ids=lambda s: s.config.describe()
                         + f", cap={s.config.device_memory_capacity}")
def test_ladder_rows_match_the_reference(scenario):
    assert_swap_matches_reference(scenario)


WIDE = settings.get_current_profile_name() == "swap-wide"


@settings(max_examples=settings.default.max_examples if WIDE else 4,
          deadline=None, derandomize=not WIDE)
@given(scenario=swap_scenarios())
def test_generated_scenarios_match_the_reference(scenario):
    assert_swap_matches_reference(scenario)


@pytest.mark.parametrize("swap,capacity,width", [
    ("zero_offload", None, 2048), ("unified", None, 4096),
    ("lru", 96 * MIB, 2048), ("unified", 64 * MIB, 2048)])
def test_resident_bytes_follow_the_trace(swap, capacity, width):
    """``Device.resident_bytes`` (allocated minus the running swapped-out
    total) equals the running sum of the log's residency deltas at every
    iteration end."""
    checked = []
    original = SwapExecutor.end_iteration

    def end_iteration(executor, index):
        original(executor, index)
        deltas = executor.recorder.to_trace().columns().resident_deltas()
        assert executor.device.resident_bytes == int(np.sum(deltas))
        checked.append(index)

    config = TrainingRunConfig(
        model="mlp", dataset="two_cluster", batch_size=512, iterations=5,
        execution_mode="symbolic", swap=swap, device_memory_capacity=capacity,
        model_kwargs={"hidden_dim": width, "num_hidden_layers": 4})
    with mock.patch.object(SwapExecutor, "end_iteration", end_iteration):
        result = run_training_session(config)
    assert checked == list(range(5))
    assert result.swap_execution["swap_out_count"] + \
        result.swap_execution["recompute_drop_count"] > 0
