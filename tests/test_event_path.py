"""The instrumentation hot path: row-store log, pre-bound dispatch, columnar policies.

The optimized recorder is compared, event for event, with the obvious
:class:`tests.helpers.ReferenceRecorder`; the composite listener's dispatch
contract (order, add/remove mid-run, class hooks patched before the device is
built) and the columnar-first offline policies are pinned against their plain
Python formulations.
"""

from collections import Counter
from dataclasses import astuple, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ati import compute_access_intervals
from repro.core.profiler import MemoryProfiler
from repro.core.recorder import TraceRecorder
from repro.core.swap import BandwidthConfig, SwapPlanner, swap_round_trip_ns
from repro.core.trace import ROW_FIELDS, ColumnarEventLog
from repro.core.events import MemoryCategory, MemoryEventKind
from repro.device import Device, small_test_device
from repro.device.clock import DeviceClock
from repro.device.hooks import HOOK_NAMES, CompositeListener, CountingListener
from repro.experiments.sweep import Scenario, run_scenario
from repro.swap.policies import PlannerPolicy, SwapAdvisorPolicy
from repro.tensor import functional as F
from repro.tensor import randn
from repro.train.session import (TrainingRunConfig, build_device_group,
                                 run_training_session)
from repro.units import MIB

from tests.helpers import ReferenceRecorder, validating

# Every session this file runs must also satisfy the trace invariants.
run_training_session = validating(run_training_session)

STRUCTURES = {
    "mlp": dict(model="mlp", dataset="two_cluster", batch_size=512,
                model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 4}),
    "resnet18": dict(model="resnet18", dataset="cifar10", batch_size=8,
                     model_kwargs={"input_size": 32, "num_classes": 10}),
    "vgg11": dict(model="vgg11", dataset="cifar10", batch_size=8,
                  model_kwargs={"input_size": 32, "num_classes": 10}),
}
#: ~60 % of each structure's unswapped peak: real eviction pressure under lru.
LRU_CAPACITY = {"mlp": 29 * MIB, "resnet18": 103 * MIB, "vgg11": 74 * MIB}
#: The swap engine's rows (inserted by the overlay, never recorded).
ENGINE_KINDS = {MemoryEventKind.SWAP_OUT, MemoryEventKind.SWAP_IN,
                MemoryEventKind.RECOMPUTE_DROP, MemoryEventKind.RECOMPUTE}


def _config(structure, **overrides):
    return TrainingRunConfig(**{"iterations": 3, "execution_mode": "symbolic",
                                "seed": 3, **STRUCTURES[structure], **overrides})


# -- (a) the real recorder against the reference recorder ------------------------------


@pytest.fixture
def side_by_side(monkeypatch):
    """Every profiler started from here on gets a reference recorder attached
    right behind its real one; yields the ``(real, reference)`` pairs."""
    pairs = []
    original_start = MemoryProfiler.start

    def start(profiler):
        original_start(profiler)
        real = profiler.recorder
        reference = ReferenceRecorder(profiler.device.clock,
                                      iteration_of=lambda: real.current_iteration)
        profiler.device.add_listener(reference)
        pairs.append((real, reference))
        return profiler

    monkeypatch.setattr(MemoryProfiler, "start", start)
    return pairs


@pytest.mark.parametrize("swap", ["off", "lru"])
@pytest.mark.parametrize("n_devices", [1, 2, 3])
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_recorder_matches_the_reference_recorder(side_by_side, structure, n_devices, swap):
    """One recorder pair per replica *class* (batch 512 or 8: one class on 1-2
    devices, two on 3); the reference stream must equal every rank trace of
    its class, field for field.  A swap-on run records its swap-off stream:
    its rank traces are that stream overlaid, equal to it in everything but
    time once the engine's rows are dropped."""
    capacity = LRU_CAPACITY[structure] if swap == "lru" else None
    config = _config(structure, n_devices=n_devices, swap=swap,
                     device_memory_capacity=capacity)
    result = run_training_session(config)
    rank_classes = build_device_group(config).rank_classes
    assert len(side_by_side) == len(set(rank_classes)) == (2 if n_devices == 3 else 1)
    rank_traces = result.rank_traces if n_devices > 1 else [result.trace]
    assert len(rank_traces) == n_devices
    merged_lifetimes, block_offset = [], 0
    for rank, rank_trace in enumerate(rank_traces):
        real, reference = side_by_side[rank_classes[rank]]
        # kind, timestamp, block, address, size, category, iteration, tag, op
        assert real.to_trace().events == reference.events
        if swap == "off":
            assert rank_trace.events == reference.events
            assert rank_trace.lifetimes == reference.lifetimes
        else:
            untimed = [replace(event, event_id=0, timestamp_ns=0)
                       for event in rank_trace.events if event.kind not in ENGINE_KINDS]
            assert untimed == [replace(event, event_id=0, timestamp_ns=0)
                               for event in reference.events]
        assert rank_trace.metadata["device_rank"] == rank
        assert len(rank_trace) > 500
        # The merged trace sees this rank's lifetimes under its block-id
        # offset and rank stamp: the rank slice in order, the whole as a set.
        shifted = [replace(lifetime, block_id=lifetime.block_id + block_offset,
                           device_rank=rank) for lifetime in rank_trace.lifetimes]
        assert result.trace.for_rank(rank).lifetimes == shifted
        merged_lifetimes += shifted
        block_offset += max(abs(event.block_id) for event in reference.events)
    assert (Counter(map(astuple, result.trace.lifetimes))
            == Counter(map(astuple, merged_lifetimes)))
    if swap == "lru":
        assert result.trace.columns().is_swap.any()


def test_recorder_matches_the_reference_across_a_pause_window(test_device):
    real = TraceRecorder(test_device.clock)
    reference = ReferenceRecorder(test_device.clock,
                                  iteration_of=lambda: real.current_iteration)
    test_device.add_listener(real)
    test_device.add_listener(reference)

    def paused(flag):
        real.enabled = reference.enabled = not flag

    real.begin_iteration(0)
    a = randn(test_device, (8, 8), tag="a")
    b = randn(test_device, (8, 8), tag="b")
    paused(True)
    c = F.matmul(a, b, tag="c")        # malloc of c is not recorded ...
    b.free()                           # ... nor is the free of b
    paused(False)
    d = F.matmul(a, c, tag="d")        # accesses to c: no open lifetime to bump
    c.free()                           # free with no recorded malloc
    e = randn(test_device, (8, 8), tag="e")   # reuses b's cached block id
    F.matmul(d, e)
    real.end_iteration(0)

    trace = real.to_trace()
    assert trace.events == reference.events
    assert trace.lifetimes == reference.lifetimes
    by_tag = {lifetime.tag: lifetime for lifetime in trace.lifetimes}
    assert "c" not in by_tag
    assert by_tag["b"].free_ns is None          # its free fell in the window
    assert by_tag["a"].access_count == 2        # init write + the recorded matmul read
    assert {e.tag for e in trace.events} >= {"a", "b", "d", "e", "c"}


_HOOK_STEPS = st.tuples(st.sampled_from(["malloc", "free", "read", "write"]),
                        st.integers(1, 4),          # block id: reuse is the point
                        st.integers(0, 3))          # clock advance (0: same instant)
_CONTROL_STEPS = st.tuples(st.sampled_from(["pause", "resume", "iteration"]),
                           st.just(0), st.just(0))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.one_of(_HOOK_STEPS, _HOOK_STEPS, _CONTROL_STEPS), max_size=60))
def test_derived_lifetimes_match_the_reference_on_generated_streams(steps):
    """Id reuse, double frees, accesses after a free, frees and mallocs lost
    to a pause window, blocks already live when recording starts (a free or an
    access before any malloc): the lifetimes read off the columns are the ones
    the reference recorder keeps by hand."""
    clock = DeviceClock()
    real = TraceRecorder(clock)
    reference = ReferenceRecorder(clock, iteration_of=lambda: real.current_iteration)
    categories = list(MemoryCategory)
    for position, (step, block_id, advance) in enumerate(steps):
        clock.advance(advance)
        if step == "pause":
            real.pause()
            reference.enabled = False
        elif step == "resume":
            real.resume()
            reference.enabled = True
        elif step == "iteration":
            real.begin_iteration(real.current_iteration + 1)
        else:
            # Every call sees its own size/category/tag: a lifetime must carry
            # its malloc's, whatever the later events of the block say.
            block = SimpleNamespace(block_id=block_id, address=0x1000 * block_id + position,
                                    size=64 * (position + 1),
                                    category=categories[position % len(categories)],
                                    tag=f"step{position}")
            arguments = {"malloc": (block, block.size), "free": (block,)}.get(
                step, (block, block.size, f"op{position}"))
            for recorder in (real, reference):
                getattr(recorder, f"on_{step}")(*arguments)
    trace = real.to_trace()
    assert trace.events == reference.events
    assert trace.lifetimes == reference.lifetimes


@pytest.mark.parametrize("rows", [0, 1, 2, 9])
def test_log_keeps_growing_after_a_snapshot(rows):
    # Zero- and one-row tables are already "contiguous" when transposed: the
    # snapshot must copy them anyway, or the row store stays pinned by a view.
    log = ColumnarEventLog()
    for i in range(rows):
        assert log.append(i % 4, 10 * i, i + 1, 512 * i, 512, 5, 0, f"t{i}", "op") == i
    columns = log.snapshot_columns()
    assert log.append(1, 999, 77, 0, 512, 8, 1, "late", "") == rows
    assert len(columns) == rows and len(log) == rows + 1
    assert columns.block_id.tolist() == list(range(1, rows + 1))
    assert columns.timestamp_ns.tolist() == [10 * i for i in range(rows)]
    assert all(getattr(columns, name).flags["C_CONTIGUOUS"] for name in ROW_FIELDS)
    assert log.snapshot_columns().block_id.tolist()[-1] == 77


# -- (b) composite dispatch ------------------------------------------------------------


class _Probe(CountingListener):
    """Counts like its base and notes the order deliveries arrive in."""

    def __init__(self, name, order):
        super().__init__()
        self.name, self.order = name, order

    def on_write(self, block, nbytes, op):
        super().on_write(block, nbytes, op)
        self.order.append(self.name)


def test_composite_with_no_child_one_child_and_two_children(test_device):
    order = []
    first, second = _Probe("first", order), _Probe("second", order)
    composite = test_device.listeners
    assert len(composite) == 0
    randn(test_device, (4,))                    # nobody listens: a no-op
    composite.add(first)
    # one child: the composite's hooks *are* the child's bound methods
    assert all(getattr(composite, name) == getattr(first, name) for name in HOOK_NAMES)
    randn(test_device, (4,))
    assert (first.mallocs, first.writes) == (1, 1)
    composite.add(second)                       # added mid-run
    tensor = randn(test_device, (4,))
    assert order == ["first", "first", "second"]   # attachment order
    assert (second.mallocs, second.writes) == (1, 1)
    composite.remove(first)                     # removed mid-run
    composite.remove(first)                     # absent: a no-op
    tensor.free()
    assert (first.frees, second.frees) == (0, 1)
    assert all(getattr(composite, name) == getattr(second, name) for name in HOOK_NAMES)
    composite.remove(second)
    assert len(composite) == 0
    randn(test_device, (4,))
    assert (first.mallocs, second.mallocs) == (2, 1)


def test_constructor_children_are_bound_too(test_device):
    order = []
    composite = CompositeListener([_Probe("a", order), _Probe("b", order)])
    composite.on_write(test_device.allocate(512), 512, "op")
    assert order == ["a", "b"]


def test_class_hook_patched_before_the_device_is_built_is_the_one_that_fires(monkeypatch):
    seen = []
    original = TraceRecorder.on_read

    def traced(recorder, block, nbytes, op):
        seen.append(op)
        return original(recorder, block, nbytes, op)

    monkeypatch.setattr(TraceRecorder, "on_read", traced)
    device = Device(small_test_device(), execution_mode="symbolic")
    with MemoryProfiler(device) as profiler:
        a = randn(device, (4, 4))
        F.matmul(a, a)
    reads = profiler.trace().counts_by_kind()["read"]
    assert reads == 2 and seen == ["matmul", "matmul"]


# -- (c) columnar-first offline policies -----------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    """Three pinned traces; the wide MLP has blocks above the 32 MiB floor."""
    return [run_training_session(config).trace for config in (
        _config("mlp", model_kwargs={"hidden_dim": 4096, "num_hidden_layers": 4}),
        _config("resnet18", n_devices=2),
        _config("vgg11", dtype="float16"),
    )]


@pytest.mark.parametrize("floor", [0, 1, 64 * 1024, MIB, 32 * MIB, 10**12])
def test_size_floor_equals_filtering_the_full_list(corpus, floor):
    for trace in corpus:
        everything = compute_access_intervals(trace)
        assert compute_access_intervals(trace, min_size=floor) == [
            interval for interval in everything if interval.size >= floor]
        lifecycle = compute_access_intervals(trace, include_lifecycle=True,
                                             min_interval_ns=1_000)
        assert compute_access_intervals(
            trace, include_lifecycle=True, min_interval_ns=1_000, min_size=floor
        ) == [interval for interval in lifecycle if interval.size >= floor]


def test_interval_objects_match_the_event_objects_they_point_at(corpus):
    trace = corpus[1]
    events = trace.events
    for interval in compute_access_intervals(trace)[::37]:
        start, end = events[interval.start_event_id], events[interval.end_event_id]
        assert (interval.block_id, interval.size, interval.category, interval.tag,
                interval.iteration) == (end.block_id, end.size, end.category,
                                        end.tag, end.iteration)
        assert (interval.start_kind, interval.end_kind) == (start.kind, end.kind)
        assert interval.interval_ns == end.timestamp_ns - start.timestamp_ns


def test_planner_policy_equals_planning_over_the_unfiltered_intervals(corpus):
    selected = 0
    for trace in corpus:
        bandwidths = BandwidthConfig.from_paper()
        plan = SwapPlanner(bandwidths=bandwidths).plan(
            trace, compute_access_intervals(trace))
        summary = PlannerPolicy().evaluate(trace, bandwidths)
        assert {key: summary[key] for key in plan.summary()} == plan.summary()
        assert summary["savings_bytes"] == plan.savings_bytes
        assert summary["overhead_ns"] == plan.total_overhead_ns
        selected += summary["num_selected"]
    assert selected > 0


def test_swap_advisor_equals_the_per_interval_python_loop(corpus):
    # A link slow enough that no interval hides a round trip: every selected
    # block's largest interval shows in the overhead.
    slow = BandwidthConfig(h2d_bytes_per_s=1e8, d2h_bytes_per_s=1e8)
    overheads = []
    for trace in corpus:
        for floor in (MIB, 32 * MIB):
            policy = SwapAdvisorPolicy(min_block_bytes=floor)
            overhead_ns = policy.evaluate(trace, slow)["overhead_ns"]
            largest = {}
            for interval in compute_access_intervals(trace):
                largest[interval.block_id] = max(largest.get(interval.block_id, 0),
                                                 interval.interval_ns)
            sizes = {}
            for lifetime in trace.lifetimes:
                sizes[lifetime.block_id] = max(sizes.get(lifetime.block_id, 0),
                                               lifetime.size)
            expected = sum(
                max(0.0, swap_round_trip_ns(sizes[block_id], slow)
                    - largest.get(block_id, 0))
                for block_id, _ in policy.select(trace))
            assert overhead_ns == expected
            overheads.append(overhead_ns)
    assert any(overheads)


# -- allocator-owned identities ---------------------------------------------------------


def test_swap_on_scenario_repeats_exactly_within_one_process():
    scenario = Scenario(_config(
        "mlp", swap="unified", iterations=5,
        model_kwargs={"hidden_dim": 4096, "num_hidden_layers": 4}))

    def payload():
        data = run_scenario(scenario).to_dict()
        data.pop("wall_time_s")
        return data

    first = payload()
    run_scenario(Scenario(_config("resnet18")))     # something else in between
    assert payload() == first
    decisions = first["swap_execution"]["predicted"]["decisions"]
    assert decisions and all(decision["block_id"] > 0 for decision in decisions)


def test_every_device_numbers_its_blocks_and_segments_from_one():
    for allocator in ("caching", "best_fit", "bump"):
        for _ in range(2):
            device = Device(small_test_device(), allocator=allocator)
            block = device.allocate(1024)
            other = device.allocate(1024)
            assert block.block_id == 1 and block.segment.segment_id == 1
            assert other.block_id == 2
