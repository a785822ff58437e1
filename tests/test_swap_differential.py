"""The swap overlay against its live oracle, and the premise it rests on.

:func:`~repro.swap.executor.overlay` executes a policy over a run's swap-off
recording; ``tests.helpers.ReferenceSwapExecutor`` is the executor that ran
live, as a listener ahead of the recorder, every rule in Python at every
malloc, free, read and write.  For each scenario both must produce the same
``ScenarioResult`` (wall time aside), the same merged trace (columns, tags
and ops, every trace passing ``validate()``), the same
``SwapExecutionSummary.to_dict()`` for every replica, and hand ``plan()``
the same observations at every replan — or raise the same error.

The overlay is exact only because swap execution never moves an allocation:
the premise tests hold the live oracle's trace, engine rows removed, to the
swap-off run of the same config, and its clocks to that run's plus a delay
that never shrinks between two gradient barriers (each barrier hands every
rank the same delay).

A sweep simulates one recording per swap-off twin and overlays it once per
row, so a row's session on a recording another row made — and two other
policies already overlaid — must equal its own fresh session, and the
recording must come out of every overlay unchanged.

Tier-1 runs a pinned corpus (the 23 ``swap_ladder`` benchmark rows at its
seed 100) plus a few generated draws; the swap-smoke CI leg draws wide with
``--hypothesis-profile=swap-wide``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.trace import barrier_rows
from repro.errors import InfeasibleScenarioError
from repro.experiments.grid import Scenario, SweepGrid, recording_token
from repro.swap import SwapExecutor
from repro.train.session import (TrainingRunConfig, record_session, run_training_session,
                                 workload_metadata)
from repro.units import MIB

from tests.helpers import (CAPACITY_RUNGS_MIB, assert_swap_matches_reference, json_digest,
                           live_swap_session, swap_scenarios)

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


#: Copy-stream outcomes of three ladder rows, recorded at commit ceef508.
#: Both sides of the differential reserve through ``repro.device.stream``,
#: so a change there moves them alike; it moves these.
COPY_STREAM_GOLDEN = {
    ("planner", 4096, None): dict(
        copy_busy_ns=63_473_883, prefetches_scheduled=3, prefetch_hits=0,
        late_prefetches=2, demand_fetches=0, stall_ns_total=70_474,
        pressure_stall_ns=0),
    ("swap_advisor", 4096, None): dict(
        copy_busy_ns=423_159_220, prefetches_scheduled=20, prefetch_hits=7,
        late_prefetches=9, demand_fetches=0, stall_ns_total=350_652_195,
        pressure_stall_ns=0),
    ("lru", 2048, 64 * MIB): dict(
        copy_busy_ns=468_611_656, prefetches_scheduled=0, prefetch_hits=0,
        late_prefetches=0, demand_fetches=278, stall_ns_total=468_611_656,
        pressure_stall_ns=240_572_800),
}


def _ladder_row(swap, width, capacity):
    (scenario,) = [s for s in LADDER if s.config.model == "mlp"
                   and (s.config.swap, s.config.model_kwargs["hidden_dim"],
                        s.config.device_memory_capacity) == (swap, width, capacity)]
    return scenario


@pytest.mark.parametrize("row", list(COPY_STREAM_GOLDEN), ids=str)
def test_copy_stream_outcomes_are_golden(row):
    execution = run_training_session(_ladder_row(*row).config).swap_execution
    assert {name: execution[name] for name in COPY_STREAM_GOLDEN[row]} \
        == COPY_STREAM_GOLDEN[row]


#: sha256 of the ``predicted`` block (unified decisions included) of four
#: ladder rows: what the planners predict, every float as computed.
PREDICTED_GOLDEN = {
    ("planner", 4096, None):
        "9376ae272fe7ec69502483f8910e170844e817ea7e8ce425aff3d9ed9b951b32",
    ("unified", 4096, None):
        "743b13bc692f7950df7ddf4fe00e1ca7df7199424bdfddff9b17202fbe791f85",
    ("unified", 2048, 64 * MIB):
        "ddd903ac799284abf5f5f89160b78cca1661eeca988094a252dc2a9d8d620de4",
    ("unified", 2048, 128 * MIB):
        "dd894cd3ab859ab6b1d787c7b1f00813fdb2c9ccd8c93898f2d592fef925ee03",
}


@pytest.mark.parametrize("row", list(PREDICTED_GOLDEN), ids=str)
def test_predicted_blocks_are_golden(row):
    execution = run_training_session(_ladder_row(*row).config).swap_execution
    assert json_digest(execution["predicted"]) == PREDICTED_GOLDEN[row]


#: The 4096-wide ladder MLP under ``unified`` at a capacity below its
#: predicted peak (624 MiB uncapped): the ladder's own capacity rungs are on
#: the 2048-wide MLP, whose blocks all sit under the 32 MiB candidate floor,
#: so only here does the plan force a block it would keep onto the link.
FORCED = Scenario(replace(_ladder_row("unified", 4096, None).config,
                          device_memory_capacity=560 * MIB))


def test_capacity_forces_a_kept_block_onto_the_copy_stream(monkeypatch):
    """``UnifiedPolicy``'s forced-swap loop on a real session: a block the
    capacity-free plan of the same warm-up keeps is swapped, which
    ``predicted`` shows with the stall its window cannot hide; the governor
    keeps residency under the capacity; the live oracle agrees."""
    from repro.swap.policies import UnifiedPolicy

    flips = []
    plan = UnifiedPolicy.plan

    def planned(policy, warmup, bandwidths):
        uncapped = UnifiedPolicy()
        plan(uncapped, warmup, bandwidths)
        plan(policy, warmup, bandwidths)
        kept = {decision["block_id"] for decision in uncapped.predicted["decisions"]
                if decision["mechanism"] == "keep"}
        flips.append({decision["block_id"] for decision in policy.predicted["decisions"]
                      if decision["mechanism"] == "swap"} & kept)

    capacity = FORCED.config.device_memory_capacity
    with monkeypatch.context() as patch:
        patch.setattr(UnifiedPolicy, "plan", planned)
        execution = run_training_session(FORCED.config).swap_execution
    predicted = execution["predicted"]
    assert predicted["capacity_bytes"] == capacity < predicted["peak_bytes_before"]
    assert flips[-1], "the last plan flipped no keep"
    assert {decision["block_id"] for decision in predicted["decisions"]
            if decision["mechanism"] == "swap"} >= flips[-1]
    assert predicted["num_kept"] == 0
    assert predicted["total_overhead_ns"] > predicted["recompute_overhead_ns"]
    assert 0 < execution["peak_resident_bytes"] <= capacity
    assert_swap_matches_reference(FORCED)


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


def assert_swap_moves_no_allocation(scenario):
    """Per rank, the live oracle's trace with its engine rows removed is the
    swap-off run of the same config with no capacity in every field but
    time, and its clock runs behind that run's by a delay that never
    shrinks between two barriers.  A barrier hands every rank one delay:
    the latest delayed arrival minus the latest recorded one, which can be
    less than what a rank that arrived early had accumulated."""
    try:
        live = live_swap_session(scenario.config)[0].trace
    except InfeasibleScenarioError:   # no trace to hold
        return
    off = run_training_session(replace(scenario.config, swap="off",
                                       device_memory_capacity=None)).trace
    assert live.ranks() == off.ranks()
    after_barriers = []
    for rank in off.ranks():
        swapped, recorded = live.for_rank(rank), off.for_rank(rank)
        columns, behaviors = swapped.columns(), recorded.columns()
        kept = ~(columns.is_swap | columns.is_rematerialization)
        for name in ("kind_code", "block_id", "size", "address", "category_code",
                     "iteration"):
            assert np.array_equal(getattr(columns, name)[kept],
                                  getattr(behaviors, name)), (rank, name)
        for mine, theirs in zip(swapped.event_strings(), recorded.event_strings()):
            assert [value for value, keep in zip(mine, kept) if keep] == theirs, rank
        delay = columns.timestamp_ns[kept] - behaviors.timestamp_ns
        barriers = barrier_rows(recorded)
        for segment in np.split(delay, barriers):
            assert segment[0] >= 0 and np.all(np.diff(segment) >= 0), rank
        after_barriers.append(delay[barriers].tolist())
    assert all(delays == after_barriers[0] for delays in after_barriers)


@pytest.mark.parametrize("scenario", LADDER, ids=lambda s: s.config.describe()
                         + f", cap={s.config.device_memory_capacity}")
def test_ladder_rows_move_no_allocation(scenario):
    assert_swap_moves_no_allocation(scenario)


@settings(max_examples=settings.default.max_examples if WIDE else 4,
          deadline=None, derandomize=not WIDE)
@given(scenario=swap_scenarios())
def test_generated_scenarios_move_no_allocation(scenario):
    assert_swap_moves_no_allocation(scenario)


#: Uneven shards (5 samples over 2 devices): two replica classes, whose walks
#: meet at every gradient barrier with different delays.
UNEVEN = [Scenario(TrainingRunConfig(
    model="resnet18", dataset="cifar10", batch_size=5, iterations=3, n_devices=2,
    swap=swap, device_memory_capacity=capacity,
    model_kwargs={"input_size": 32, "num_classes": 10}))
    for swap, capacity in (("zero_offload", None), ("lru", 96 * MIB), ("unified", None))]


@pytest.mark.parametrize("scenario", UNEVEN, ids=lambda s: s.config.swap)
def test_uneven_replicas_match_the_reference(scenario):
    assert_swap_matches_reference(scenario)
    assert_swap_moves_no_allocation(scenario)


@pytest.mark.parametrize("swap,capacity,width", [
    ("zero_offload", None, 2048), ("unified", None, 4096),
    ("lru", 96 * MIB, 2048), ("unified", 64 * MIB, 2048)])
def test_resident_bytes_follow_the_trace(swap, capacity, width):
    """The overlay's running resident total (recorded allocated bytes minus
    its swapped-out total) equals the cumulative residency deltas of the
    rows it has logged, at every iteration end."""
    checked = []
    original = SwapExecutor.end_iteration

    def end_iteration(executor, index):
        original(executor, index)
        deltas = executor._laid_out().columns().resident_deltas()
        assert executor.resident_bytes == int(np.sum(deltas))
        checked.append(index)

    config = TrainingRunConfig(
        model="mlp", dataset="two_cluster", batch_size=512, iterations=5,
        swap=swap, device_memory_capacity=capacity,
        model_kwargs={"hidden_dim": width, "num_hidden_layers": 4})
    with mock.patch.object(SwapExecutor, "end_iteration", end_iteration):
        result = run_training_session(config)
    assert checked == list(range(5))
    assert result.swap_execution["swap_out_count"] + \
        result.swap_execution["recompute_drop_count"] > 0


def _trace_view(trace):
    """Everything a consumer reads off a trace, metadata as its JSON text
    (key order included)."""
    columns = trace.columns()
    return ({field.name: getattr(columns, field.name).tolist()
             for field in dataclasses.fields(columns)},
            trace.event_strings(),
            [(mark.index, mark.start_ns, mark.end_ns) for mark in trace.iteration_marks],
            trace.end_ns, json.dumps(trace.metadata))


def _session_view(config, recording=None):
    """A session's merged and per-rank traces, iteration statistics,
    ``swap_execution`` block and structure — or the error it raised.  Each
    rank's metadata ends with the row's own workload metadata and its rank,
    whichever row the recording was made for."""
    try:
        session = run_training_session(config, recording=recording)
    except InfeasibleScenarioError as error:
        return ("raised", str(error))
    session.trace.validate()
    workload = list(workload_metadata(config, config.n_devices).items())
    for rank, trace in enumerate(session.rank_traces or [session.trace]):
        assert list(trace.metadata.items())[-len(workload) - 1:] == \
            workload + [("device_rank", rank)]
    return ([_trace_view(trace) for trace in (session.trace, *(session.rank_traces or ()))],
            session.iteration_stats, session.swap_execution, session.structure())


def _digest(recording):
    """sha256 over every class trace's columns (its malloc and free calls
    among them, each malloc row with its request's size), strings, marks and
    metadata."""
    digest = hashlib.sha256()
    for trace in recording.traces:
        columns = trace.columns()
        for field in dataclasses.fields(columns):
            digest.update(getattr(columns, field.name).tobytes())
        digest.update(repr(_trace_view(trace)[1:]).encode())
    return digest.hexdigest()


def assert_overlay_on_a_shared_recording(scenario):
    """``scenario``'s session on a recording another row with its token made,
    after two other policies overlaid it, equals its own fresh session; the
    recording comes out of all three overlays unchanged."""
    config = scenario.config
    others = [replace(config, swap=swap, device_memory_capacity=capacity)
              for swap, capacity in zip([mode for mode in ("lru", "unified", "planner")
                                         if mode != config.swap][:2], (None, 64 * MIB))]
    assert {recording_token(other) for other in others} == {recording_token(config)}
    recording = record_session(others[0])
    digest = _digest(recording)
    first, second = (_session_view(other, recording) for other in others)
    assert first != second
    assert _session_view(config, recording) == _session_view(config)
    assert _digest(recording) == digest


@pytest.mark.parametrize("scenario", LADDER + UNEVEN,
                         ids=lambda s: s.config.describe()
                         + f", cap={s.config.device_memory_capacity}")
def test_ladder_rows_overlay_a_shared_recording(scenario):
    assert_overlay_on_a_shared_recording(scenario)


@settings(max_examples=settings.default.max_examples if WIDE else 4,
          deadline=None, derandomize=not WIDE)
@given(scenario=swap_scenarios())
def test_generated_scenarios_overlay_a_shared_recording(scenario):
    assert_overlay_on_a_shared_recording(scenario)
