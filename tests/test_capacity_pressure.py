"""Tests for real capacity pressure: the executor's capacity governor.

``--device-memory-gib`` used to be a label; now it is enforced.  With the
swap engine off the allocator itself is shrunk and an allocation that does
not fit raises a raw ``OutOfMemoryError``.  With any execution policy on,
the executor governs the bound instead:

* a scenario whose unconstrained peak *exceeds* the capacity still
  completes — forced LRU evictions (counted as ``pressure_evictions`` with
  their ``pressure_stall_ns``) keep the measured resident peak at or below
  the capacity for the whole run, warm-up included;
* tightening the capacity costs monotonically more stall;
* when even evicting every resident block cannot fit the working set, the
  structured :class:`~repro.errors.InfeasibleScenarioError` is raised up
  front — never a raw OOM — carrying ``requested``/``resident``/
  ``evictable``/``capacity`` for the feasibility report;
* the sweep axis (``device_memory_capacities``), the scenario payload and
  the summary-row columns carry the capacity end to end.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.events import MemoryEventKind
from repro.errors import (
    DeviceError,
    InfeasibleScenarioError,
    OutOfMemoryError,
)
from repro.experiments.sweep import SweepGrid, run_scenario
from repro.train.session import TrainingRunConfig, run_training_session
from repro.units import GIB, MIB

from tests.helpers import trace_events


#: A workload whose unconstrained resident peak is well above 96 MiB, so a
#: 64 MiB capacity exercises the governor without being infeasible.
PRESSURE = dict(
    model="mlp", dataset="two_cluster", batch_size=512, iterations=5,
    model_kwargs={"hidden_dim": 2048, "num_hidden_layers": 4},
)


def run_capped(capacity, swap="unified", **overrides):
    config = TrainingRunConfig(**{**PRESSURE, **overrides, "swap": swap,
                                  "device_memory_capacity": capacity})
    return run_training_session(config)


# -- graceful degradation under pressure ----------------------------------------------


def test_over_capacity_scenario_completes_within_capacity():
    capacity = 64 * MIB
    uncapped = run_capped(None)
    assert uncapped.swap_execution["peak_resident_bytes"] > capacity
    result = run_capped(capacity)
    summary = result.swap_execution
    assert summary["capacity_bytes"] == capacity
    assert summary["peak_resident_bytes"] <= capacity
    assert summary["pressure_evictions"] > 0
    assert len(result.iteration_stats) == PRESSURE["iterations"]


def test_pressure_evictions_emit_stall_and_swap_events():
    result = run_capped(64 * MIB)
    summary = result.swap_execution
    assert summary["pressure_stall_ns"] > 0
    assert summary["pressure_stall_ns"] <= summary["stall_ns_total"]
    trace = result.trace
    outs = [e for e in trace_events(trace) if e.kind is MemoryEventKind.SWAP_OUT]
    ins = [e for e in trace_events(trace) if e.kind is MemoryEventKind.SWAP_IN]
    assert outs and len(outs) == len(ins)
    assert {e.op for e in ins} <= {"demand", "prefetch", "discard", "shutdown"}
    _, resident = trace.resident_bytes_series()
    assert int(resident.min()) >= 0


def test_pressure_stalls_lengthen_iterations():
    free_run = run_capped(None)
    capped = run_capped(64 * MIB)
    assert (sum(s.duration_ns for s in capped.iteration_stats)
            > sum(s.duration_ns for s in free_run.iteration_stats))


def test_tighter_capacity_costs_more_stall():
    tight = run_capped(48 * MIB).swap_execution
    loose = run_capped(96 * MIB).swap_execution
    assert tight["peak_resident_bytes"] <= 48 * MIB
    assert loose["peak_resident_bytes"] <= 96 * MIB
    assert tight["pressure_stall_ns"] >= loose["pressure_stall_ns"]


def test_capacity_governor_works_under_every_execution_policy():
    capacity = 96 * MIB
    for swap in ("planner", "swap_advisor", "zero_offload", "lru", "unified"):
        summary = run_capped(capacity, swap=swap).swap_execution
        assert summary["peak_resident_bytes"] <= capacity, swap
        assert summary["capacity_bytes"] == capacity, swap


# -- structured infeasibility ----------------------------------------------------------


def test_infeasible_capacity_raises_structured_error():
    with pytest.raises(InfeasibleScenarioError) as excinfo:
        run_capped(4 * MIB)
    error = excinfo.value
    assert error.capacity == 4 * MIB
    assert error.requested > 0
    assert error.evictable >= 0
    assert error.requested + max(0, error.resident - error.evictable) > error.capacity
    assert "infeasible" in str(error)
    assert not isinstance(error, OutOfMemoryError)


def test_infeasible_error_is_a_device_error_but_not_an_oom():
    assert issubclass(InfeasibleScenarioError, DeviceError)
    assert not issubclass(InfeasibleScenarioError, OutOfMemoryError)


def test_infeasible_error_pickles_for_sweep_workers():
    error = InfeasibleScenarioError(requested=10, resident=20, evictable=5,
                                    capacity=16)
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, InfeasibleScenarioError)
    assert (clone.requested, clone.resident, clone.evictable, clone.capacity) \
        == (10, 20, 5, 16)


def test_swap_off_capacity_still_raises_raw_oom():
    """Without the engine the capacity stays an allocator limit: the failure
    is the historical raw OOM, not the structured infeasibility."""
    with pytest.raises(OutOfMemoryError):
        run_capped(4 * MIB, swap="off")


# -- sweep / CLI integration -----------------------------------------------------------


def test_capacity_is_a_sweep_axis():
    grid = SweepGrid(models=("mlp",), batch_sizes=(16,),
                     device_memory_capacities=(None, 1 * GIB))
    scenarios = grid.expand()
    assert grid.size() == len(scenarios) == 2
    capacities = {s.config.device_memory_capacity for s in scenarios}
    assert capacities == {None, 1 * GIB}
    assert len({s.key() for s in scenarios}) == 2   # part of the cache identity
    described = [s.describe() for s in scenarios]
    assert any("cap=" in text for text in described)


def test_scenario_payload_and_row_carry_capacity_columns():
    grid = SweepGrid(models=("mlp",), batch_sizes=(512,), iterations=(5,),
                     swaps=("unified",), model_kwargs=PRESSURE["model_kwargs"],
                     device_memory_capacities=(64 * MIB,))
    result = run_scenario(grid.expand()[0])
    assert result.scenario["device_memory_capacity"] == 64 * MIB
    summary = result.swap_execution
    assert summary["pressure_evictions"] > 0
    row = result.row()
    assert row["pressure_stall_ms"] > 0
    assert row["peak_resident_mib"] <= 64
    assert row["recompute_ms"] >= 0


def test_cli_device_memory_gib_is_a_csv_axis(capsys):
    from repro.cli import main

    assert main(["sweep", "--models", "mlp", "--batch-sizes", "16",
                 "--device-memory-gib", "0.5,1", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "2 scenarios" in out or "cap=" in out


def test_cli_reports_infeasible_capacity_without_a_traceback(capsys, tmp_path):
    """An over-tight capacity surfaces as a one-line CLI error (exit 1), not
    a raw worker traceback."""
    from repro.cli import main

    code = main(["sweep", "--models", "mlp", "--batch-sizes", "512",
                 "--iterations", "5", "--hidden-dim", "2048",
                 "--num-layers", "4", "--swap", "off",
                 "--device-memory-gib", "0.0625",
                 "--cache-dir", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "--device-memory-gib" in captured.err
    assert "Traceback" not in captured.err


def test_cli_rejects_malformed_device_memory_gib(capsys):
    from repro.cli import main

    assert main(["sweep", "--models", "mlp", "--batch-sizes", "16",
                 "--device-memory-gib", "lots", "--dry-run"]) == 2
