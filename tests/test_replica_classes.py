"""Replica classes: one simulated replica per distinct shard shape.

A data-parallel session materialises one replica per *replica class* — the
ranks the simulator cannot tell apart — and derives the other ranks from it.
The oracle here is full materialisation: with the class function patched
(test-only; there is nothing in ``src/`` to switch) so that every rank is its
own class, a session must produce exactly what the default one does, down to
the template bytes every rank is served from its archive.
"""

from __future__ import annotations

import json
import time
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import EventColumns, MemoryTrace, merge_rank_traces
from repro.errors import InfeasibleScenarioError, OutOfMemoryError
from repro.experiments.replay import ReplayEngine, save_family, template_key
from repro.errors import TraceInvariantError
from repro.experiments.results import evaluate_policy, reduce_trace, run_scenario
from repro.experiments.sweep import Scenario, reduce_session
from repro.train import session as session_module
from repro.train.session import (TrainingRunConfig, build_device_group,
                                 run_training_session)
from repro.train.trainer import replica_classes, shard_batch
from repro.units import MIB

from tests.helpers import validating, trace_lifetimes

# Every session this file runs must also satisfy the trace invariants.
run_training_session = validating(run_training_session)

STRUCTURES = {
    "mlp": dict(model="mlp", dataset="two_cluster",
                model_kwargs={"hidden_dim": 64, "num_hidden_layers": 2}),
    "lenet5": dict(model="lenet5", dataset="mnist",
                   model_kwargs={"num_classes": 10}),
}
COLUMN_NAMES = tuple(EventColumns.__dataclass_fields__)


def make_config(structure, **overrides):
    return TrainingRunConfig(**{"iterations": 2, "seed": 5, **STRUCTURES[structure],
                                **overrides})


@contextmanager
def every_rank_materialised():
    """Sessions started inside simulate each rank on its own replica."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "replica_classes",
                      lambda batch_size, n_devices: list(range(n_devices)))
        yield


def outcome(config):
    """``("ok", session)`` or ``(exception type, message)`` of one session."""
    try:
        return "ok", run_training_session(config)
    except (OutOfMemoryError, InfeasibleScenarioError) as error:
        return type(error), str(error)


@lru_cache(maxsize=None)
def pressure_capacity(structure, shard_samples, dtype, allocator):
    """~70 % of the unswapped peak of the largest shard: real eviction pressure."""
    free = run_training_session(make_config(
        structure, batch_size=shard_samples, dtype=dtype, allocator=allocator))
    return int(0.7 * free.peak_allocated_bytes)


# -- comparison helpers ----------------------------------------------------------------


def assert_traces_equal(left: MemoryTrace, right: MemoryTrace):
    for name in COLUMN_NAMES:
        assert np.array_equal(getattr(left.columns(), name),
                              getattr(right.columns(), name)), name
    assert left.event_strings() == right.event_strings()
    assert trace_lifetimes(left) == trace_lifetimes(right)
    assert ([mark.to_dict() for mark in left.iteration_marks]
            == [mark.to_dict() for mark in right.iteration_marks])
    assert left.end_ns == right.end_ns
    assert left.metadata == right.metadata


def assert_sessions_equal(default, oracle):
    assert_traces_equal(default.trace, oracle.trace)
    n_devices = default.config.n_devices
    if n_devices == 1:
        assert default.rank_traces is None and oracle.rank_traces is None
    else:
        assert len(default.rank_traces) == len(oracle.rank_traces) == n_devices
        for rank, (left, right) in enumerate(zip(default.rank_traces,
                                                 oracle.rank_traces)):
            assert left.metadata["device_rank"] == rank
            assert_traces_equal(left, right)
    for name in ("iteration_stats", "parameter_bytes", "parameter_count",
                 "peak_allocated_bytes", "peak_reserved_bytes", "allocator_stats",
                 "n_devices", "collective", "swap_execution"):
        assert getattr(default, name) == getattr(oracle, name), name
    assert default.structure() == oracle.structure()


def reduced(session):
    scenario = Scenario(config=session.config)
    result = reduce_session(scenario, scenario.resolve_bandwidths(), session,
                            time.perf_counter())
    row = result.to_dict()
    row.pop("wall_time_s")
    return row


def reduced_merged(session):
    """``session`` reduced off its merged trace: the one-recording call of
    the reduction :func:`reduced` runs on the class recordings."""
    scenario = Scenario(config=session.config)
    bandwidths = scenario.resolve_bandwidths()
    merged = merge_rank_traces(session.rank_traces or [session.class_traces[0]])
    structure = session.structure()
    assert (structure.num_events, structure.num_blocks) == (len(merged),
                                                            len(merged.block_ids()))
    rank0 = (session.rank_traces or session.class_traces)[0]
    result = reduce_trace(
        scenario, bandwidths, [merged], (0,), structure,
        [stats.duration_ns for stats in session.iteration_stats],
        evaluate_policy(scenario.swap_policy, rank0, bandwidths),
        session.collective, session.swap_execution, time.perf_counter())
    row = result.to_dict()
    row.pop("wall_time_s")
    return row


def rank_members(path):
    """What the archive gives each rank — its class's array payloads and
    class header — plus the template's ``meta``; not the zip timestamps,
    and not how the ranks are grouped into classes."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
    return header["meta"], [
        (header["classes"][index],
         [(name.split("_", 1)[1], payload) for name, payload in members.items()
          if name.startswith(f"c{index}_")])
        for index in header["rank_classes"]]


def compiled_family(config, directory):
    """Compile ``config``'s family, price a small grid from it, save it."""
    engine = ReplayEngine()
    scenarios = [Scenario(config=TrainingRunConfig(**{
        **asdict(config), "device_spec": spec, "interconnect": link,
        "host_dispatch_overhead_ns": overhead}))
        for spec in ("titan_x_pascal", "v100_sxm2_16gb")
        for link in ("pcie_gen3", "nvlink2") for overhead in (None, 7_000)]
    priced = engine.price_batch(scenarios,
                                [s.resolve_bandwidths() for s in scenarios])
    # best_fit declines a spec of another capacity; the compile spec always prices.
    assert priced[0] is not None, engine.fallback_reasons
    rows = []
    for result in priced:
        row = result.to_dict() if result is not None else {}
        row.pop("wall_time_s", None)
        rows.append(row)
    path = directory / "family.npz"
    save_family(engine._families[template_key(config)], path)
    return rows, rank_members(path)


# -- the differential property ---------------------------------------------------------


@st.composite
def configs(draw):
    structure = draw(st.sampled_from(sorted(STRUCTURES)))
    n_devices = draw(st.integers(1, 8))
    per_rank = draw(st.integers(1, 3))
    remainder = draw(st.sampled_from([0, 0, 1, n_devices - 1])) % n_devices
    batch_size = n_devices * per_rank + remainder
    dtype = draw(st.sampled_from(["float32", "float16"]))
    allocator = draw(st.sampled_from(["caching", "best_fit"]))
    swap = draw(st.sampled_from(["off", "off", "lru", "zero_offload", "unified"]))
    capacity = None
    if swap in ("lru", "unified"):
        capacity = pressure_capacity(structure, -(-batch_size // n_devices),
                                     dtype, allocator)
    return make_config(
        structure, n_devices=n_devices, batch_size=batch_size, dtype=dtype,
        allocator=allocator, swap=swap, device_memory_capacity=capacity,
        interconnect=draw(st.sampled_from(["pcie_gen3", "nvlink2", "ethernet_25g"])),
        allreduce_algorithm=draw(st.sampled_from(["ring", "naive"])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=configs())
def test_class_session_equals_the_fully_materialised_one(config, tmp_path_factory):
    sizes = {len(s) for s in shard_batch(np.empty(config.batch_size), config.n_devices)}
    assert build_device_group(config).n_materialized == len(sizes) <= 2
    status, default = outcome(config)
    with every_rank_materialised():
        assert build_device_group(config).n_materialized == config.n_devices
        oracle_status, oracle = outcome(config)
    assert status == oracle_status
    if status != "ok":
        assert default == oracle   # the same message, rank 0 fails first
        return
    assert_sessions_equal(default, oracle)
    assert reduced(default) == reduced(oracle) == reduced_merged(default)
    if config.swap == "off":    # replay-routed: the compiled family must agree too
        rows, members = compiled_family(config, tmp_path_factory.mktemp("default"))
        with every_rank_materialised():
            oracle_rows, oracle_members = compiled_family(
                config, tmp_path_factory.mktemp("oracle"))
        assert rows == oracle_rows
        assert members == oracle_members


# -- pinned cases ----------------------------------------------------------------------


def test_uneven_shards_yield_two_classes_and_every_rank_trace():
    """Batch 512 on 3 devices shards 171/171/170: ranks 0 ≡ 1 ≠ 2."""
    config = make_config("mlp", batch_size=512, n_devices=3)
    assert replica_classes(512, 3) == [171, 171, 170]
    group = build_device_group(config)
    assert (group.n_devices, group.n_materialized) == (3, 2)
    assert group.rank_classes == (0, 0, 1)
    assert group.class_ranks == ((0, 1), (2,))
    result = run_training_session(config)
    first, second, third = result.rank_traces
    assert [t.metadata["device_rank"] for t in result.rank_traces] == [0, 1, 2]
    assert first.columns() is second.columns()
    assert len(third) == len(first) and third.columns() is not first.columns()
    assert not np.array_equal(third.columns().size, first.columns().size)
    assert result.collective["world_size"] == 3
    with every_rank_materialised():
        assert_sessions_equal(result, run_training_session(config))


@pytest.mark.parametrize("n_devices", [2, 3])
def test_even_shards_materialise_one_replica_for_every_rank(n_devices):
    """Shards of one shape are one class: a single replica stands for all."""
    config = make_config("mlp", batch_size=4 * n_devices, n_devices=n_devices)
    assert replica_classes(config.batch_size, n_devices) == [4] * n_devices
    group = build_device_group(config)
    assert (group.n_devices, group.n_materialized) == (n_devices, 1)
    assert group.rank_classes == (0,) * n_devices
    result = run_training_session(config)
    columns = [trace.columns() for trace in result.rank_traces]
    assert all(cols is columns[0] for cols in columns)
    with every_rank_materialised():
        assert_sessions_equal(result, run_training_session(config))


@pytest.mark.parametrize("model", ["resnet18", "vgg11"])
def test_conv_nets_on_uneven_shards_equal_full_materialisation(model):
    """The benchmark's conv structures, batch 8 on 3 devices (3/3/2)."""
    config = TrainingRunConfig(
        model=model, dataset="cifar10", batch_size=8, iterations=2, n_devices=3,
        model_kwargs={"input_size": 32, "num_classes": 10},
        allocator="best_fit", dtype="float16")
    default = run_training_session(config)
    with every_rank_materialised():
        oracle = run_training_session(config)
    assert_sessions_equal(default, oracle)
    assert reduced(default) == reduced(oracle)


@pytest.mark.parametrize("swap,capacity,error", [
    ("off", 4 * MIB, OutOfMemoryError),
    ("lru", 4 * MIB, InfeasibleScenarioError),
])
def test_multi_rank_failures_read_as_before(swap, capacity, error):
    """Rank 0 is always materialised and always first, so the exception a
    capacity failure raises is the one full materialisation raises."""
    config = make_config("mlp", batch_size=515, n_devices=4, swap=swap,
                         device_memory_capacity=capacity,
                         model_kwargs={"hidden_dim": 2048, "num_hidden_layers": 2})
    with pytest.raises(error) as default:
        run_training_session(config)
    with every_rank_materialised(), pytest.raises(error) as oracle:
        run_training_session(config)
    assert type(default.value) is type(oracle.value)
    assert str(default.value) == str(oracle.value)


# -- no hidden per-rank work -----------------------------------------------------------


def test_derived_ranks_share_their_class_arrays_and_nothing_mutates_them(monkeypatch):
    config = make_config("lenet5", batch_size=16, n_devices=4)
    result = run_training_session(config)
    representative, *derived = result.rank_traces
    for trace in derived:
        assert trace is not representative
        assert trace.columns() is representative.columns()
        assert trace._event_tags is representative._event_tags
        assert trace._event_ops is representative._event_ops
        assert trace_lifetimes(trace) == trace_lifetimes(representative)
        assert trace.iteration_marks is representative.iteration_marks
        assert trace.metadata is not representative.metadata

    # Freeze the shared arrays: an in-place write anywhere downstream raises.
    columns = representative.columns()
    for name in COLUMN_NAMES:
        getattr(columns, name).flags.writeable = False
    lifetimes = [lifetime._asdict() for lifetime in trace_lifetimes(representative)]
    marks = [mark.to_dict() for mark in representative.iteration_marks]
    strings = representative.event_strings()

    calls = []
    original = MemoryTrace.event_strings
    monkeypatch.setattr(MemoryTrace, "event_strings",
                        lambda trace: calls.append(trace) or original(trace))
    merged = merge_rank_traces(result.rank_traces)
    assert calls == []         # the merge reads the stored lists: it copies none
    monkeypatch.undo()
    assert_traces_equal(merged, result.trace)
    reduced(result)

    assert [lifetime._asdict() for lifetime in trace_lifetimes(representative)] == lifetimes
    assert [mark.to_dict() for mark in representative.iteration_marks] == marks
    assert representative.event_strings() == strings


# -- no merged trace on the sweep path -------------------------------------------------


@pytest.mark.parametrize("overrides", [
    dict(n_devices=2, batch_size=8),
    dict(n_devices=3, batch_size=8),
    dict(n_devices=2, batch_size=8, swap="zero_offload"),
], ids=["two-ranks", "three-uneven-ranks", "two-ranks-swap-on"])
def test_a_multi_rank_row_merges_no_trace(overrides):
    """A data-parallel row is measured off its class recordings: it runs with
    the merge refused, and reads what its merged trace reduces to."""
    from repro.core import trace as trace_module

    scenario = Scenario(config=make_config("mlp", **overrides))
    with pytest.MonkeyPatch.context() as patch:
        for module in (trace_module, session_module):
            patch.setattr(module, "merge_rank_traces",
                          lambda traces: pytest.fail("rank traces were merged"))
        row = run_scenario(scenario).to_dict()
    row.pop("wall_time_s")
    assert row == reduced_merged(run_training_session(scenario.config))


def test_the_session_trace_is_merged_on_its_first_read():
    session = session_module.run_training_session(make_config(
        "mlp", n_devices=3, batch_size=8))
    assert "trace" not in vars(session)
    reduced(session)
    assert "trace" not in vars(session)
    assert_traces_equal(session.trace, merge_rank_traces(session.rank_traces))
    assert session.trace is session.trace


def test_a_rank_clock_that_steps_back_is_refused():
    """Pairing a class's accesses in recording order is the merge's pairing
    only while every rank's clock never goes back: that is checked, and one
    recording measured as it stands is not."""
    session = run_training_session(make_config("mlp", n_devices=2, batch_size=8))
    trace = session.class_traces[0]
    stamps = trace.columns().timestamp_ns.copy()
    row = len(stamps) // 2
    stamps[row] = stamps[row - 1] - 1
    stepped = MemoryTrace(
        columns=replace(trace.columns(), timestamp_ns=stamps),
        event_tags=trace.event_tags, event_ops=trace.event_ops,
        iteration_marks=trace.iteration_marks, metadata=trace.metadata,
        end_ns=trace.end_ns)
    with pytest.raises(TraceInvariantError) as refused:
        reduced(replace(session, class_traces=[stepped]))
    assert refused.value.event_index == row
    scenario = Scenario(config=session.config)
    reduce_trace(scenario, scenario.resolve_bandwidths(), [stepped], (0,),
                 session.structure(), [], None, None, None, 0.0)
