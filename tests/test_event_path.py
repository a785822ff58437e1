"""The instrumentation hot path: row-store log, the recorder slot, columnar policies.

The optimized recorder is compared, event for event, with the obvious
:class:`tests.helpers.ReferenceRecorder`, and the placed traces with the
reference's requests mapped through their placement; the device's recorder
(made with the device, recording from its first behavior, class hooks
patched before the device is built) and the columnar-first offline policies
are pinned against their plain Python formulations.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.core.ati import compute_interval_arrays
from repro.core.profiler import MemoryProfiler
from repro.core.recorder import TraceRecorder, place_traces
from repro.core.swap import BandwidthConfig, SwapPlanner, swap_round_trip_ns
from array import array

from repro.core.trace import (ROW_FIELDS, MemoryTrace, barrier_rows, columns_from_rows,
                              merge_rank_traces, pack_row)
from repro.core.events import MemoryCategory, MemoryEventKind
from repro.device import Device, small_test_device
from repro.device.clock import DeviceClock
from repro.experiments.sweep import Scenario, run_scenario
from repro.swap.executor import WalkIndex
from repro.swap.policies import PlannerPolicy, SwapAdvisorPolicy
from repro.tensor import functional as F
from repro.tensor import randn
from repro.train import trainer as trainer_module
from repro.train.session import (TrainingRunConfig, build_device_group,
                                 run_training_session)
from repro.units import MIB

from tests.helpers import (ReferenceRecorder, RequestReference, trace_events,
                           trace_from_events, trace_lifetimes, validating)

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
    return TrainingRunConfig(**{"iterations": 3,
                                "seed": 3, **STRUCTURES[structure], **overrides})


# -- (a) the real recorder against the reference recorder ------------------------------


class _Tee:
    """A recorder slot holding two recorders: each behavior reaches both, an
    iteration mark the ones that keep marks; its length, its request tags and
    a hook's result (a malloc's request id) are the first one's."""

    def __init__(self, *recorders):
        self.recorders = recorders

    def __len__(self):
        return len(self.recorders[0])

    @property
    def tags(self):
        return self.recorders[0].tags

    def on_kernel(self, op, reads, writes, duration_ns, flops, bytes_moved):
        """The first recorder's kernel hook moves the clock; the others log
        the launch's reads before it and its writes after."""
        first, *others = self.recorders
        for recorder in others:
            for operand in reads:
                recorder.on_read(operand.storage.request, op)
        first.on_kernel(op, reads, writes, duration_ns, flops, bytes_moved)
        for recorder in others:
            for operand in writes:
                recorder.on_write(operand.storage.request, op)

    def __getattr__(self, name):
        hooks = [getattr(recorder, name) for recorder in self.recorders
                 if hasattr(recorder, name)]

        def deliver(*args):
            results = [hook(*args) for hook in hooks]
            return results[0] if results else None
        return deliver


@pytest.fixture
def side_by_side(monkeypatch):
    """Every profiler made from here on puts a reference recorder beside its
    device's real one, before any behavior, and every iteration is simulated
    (a copied one reaches no hook); yields the ``(real, reference)`` pairs."""
    pairs = []
    original_init = MemoryProfiler.__init__

    def init(profiler, device, metadata=None):
        original_init(profiler, device, metadata)
        real = profiler.recorder
        reference = RequestReference(device, iteration_of=lambda: real.current_iteration)
        device.recorder = _Tee(real, reference)
        pairs.append((real, reference))

    monkeypatch.setattr(MemoryProfiler, "__init__", init)
    monkeypatch.setattr(trainer_module, "left_as_found", lambda *args: False)
    return pairs


_PLACEMENT_KINDS = ENGINE_KINDS | {MemoryEventKind.SEGMENT_ALLOC,
                                   MemoryEventKind.SEGMENT_FREE}


def _placed(events, placement):
    """Request-level events with each request's block, address and size."""
    return [event._replace(block_id=int(placement.block_id[event.block_id]),
                           address=int(placement.address[event.block_id]),
                           size=int(placement.size[event.block_id]))
            for event in events]


@pytest.mark.parametrize("swap", ["off", "lru"])
@pytest.mark.parametrize("n_devices", [1, 2, 3])
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_recorder_matches_the_reference_recorder(side_by_side, structure, n_devices, swap):
    """One recorder pair per replica *class* (batch 512 or 8: one class on 1-2
    devices, two on 3); the reference stream must equal its class's
    recording, field for field, and every rank trace of the class must be
    that stream with each request's block, address and size from the
    placement — segment rows between, every row as late as the segment
    overheads before it on one replica class.  A swap-on run places its
    swap-off stream: its rank traces are that stream overlaid, equal to it
    in everything but time once the engine's rows are dropped."""
    capacity = LRU_CAPACITY[structure] if swap == "lru" else None
    config = _config(structure, n_devices=n_devices, swap=swap,
                     device_memory_capacity=capacity)
    result = run_training_session(config)
    rank_classes = build_device_group(config).rank_classes
    assert len(side_by_side) == len(set(rank_classes)) == (2 if n_devices == 3 else 1)
    recording = result.recording
    placed = recording.placed(config)
    overhead = recording.spec.cuda_malloc_overhead_ns
    rank_traces = result.rank_traces if n_devices > 1 else [result.trace]
    assert len(rank_traces) == n_devices
    merged_lifetimes, block_offset = [], 0
    for rank, rank_trace in enumerate(rank_traces):
        real, reference = side_by_side[rank_classes[rank]]
        placement = placed.placements[rank_classes[rank]]
        # kind, timestamp, block, address, size, category, iteration, tag, op
        assert trace_events(real.to_trace()) == reference.events
        expected = _placed(reference.events, placement)
        events = trace_events(rank_trace)
        behaviors = [event for event in events if event.kind not in _PLACEMENT_KINDS]
        untimed = [event._replace(event_id=0, timestamp_ns=0) for event in behaviors]
        assert untimed == [event._replace(event_id=0, timestamp_ns=0)
                           for event in expected]
        if swap == "off" and len(set(rank_classes)) == 1:
            # One replica class waits at no barrier: every row runs as late
            # as the segment overheads before it, the preamble's included.
            segments, recorded = placement.preamble_segments, iter(reference.events)
            for event in events:
                if event.kind in _PLACEMENT_KINDS:
                    segments += 1
                else:
                    assert event.timestamp_ns == (next(recorded).timestamp_ns
                                                  + segments * overhead)
        if swap == "off":
            lifetimes = trace_lifetimes(rank_trace)
            assert [lifetime._replace(malloc_ns=0, free_ns=None, device_rank=0)
                    for lifetime in lifetimes] == [
                lifetime._replace(block_id=int(placement.block_id[lifetime.block_id]),
                                  address=int(placement.address[lifetime.block_id]),
                                  size=int(placement.size[lifetime.block_id]),
                                  malloc_ns=0, free_ns=None)
                for lifetime in reference.lifetimes]
        assert rank_trace.metadata["device_rank"] == rank
        assert len(rank_trace) > 500
        # The merged trace sees this rank's lifetimes under its block-id
        # offset and rank stamp: the rank slice in order, the whole as a set.
        shifted = [lifetime._replace(block_id=lifetime.block_id + block_offset,
                                     device_rank=rank)
                   for lifetime in trace_lifetimes(rank_trace)]
        assert trace_lifetimes(result.trace.for_rank(rank)) == shifted
        merged_lifetimes += shifted
        block_offset += max(abs(event.block_id) for event in events)
    assert Counter(trace_lifetimes(result.trace)) == Counter(merged_lifetimes)
    if swap == "lru":
        assert result.trace.columns().is_swap.any()


def test_recorder_matches_the_reference_from_the_first_behavior(test_device):
    """A device's recorder holds every behavior since the device was built:
    with a reference beside it from the start, the two agree, every request
    has its malloc row, and placed, the recorded rows keep their order, each
    as late as the segment overheads before it."""
    real = test_device.recorder
    reference = RequestReference(test_device, iteration_of=lambda: real.current_iteration)
    test_device.recorder = _Tee(real, reference)
    real.begin_iteration(0)
    a = randn(test_device, (8, 8), tag="a")
    b = randn(test_device, (8, 8), tag="b")
    c = F.matmul(a, b, tag="c")
    b.free()
    d = F.matmul(a, c, tag="d")
    c.free()
    e = randn(test_device, (8, 8), tag="e")
    F.matmul(d, e)
    real.end_iteration(0)
    test_device.recorder = real

    trace = real.to_trace()
    assert trace_events(trace) == reference.events
    assert trace_lifetimes(trace) == reference.lifetimes
    by_tag = {lifetime.tag: lifetime for lifetime in trace_lifetimes(trace)}
    assert by_tag["b"].free_ns is not None and by_tag["d"].free_ns is None
    assert trace.counts_by_kind()["malloc"] == len(real.tags) == len(reference.requests) == 6
    placement = test_device.place()
    placed = place_traces([trace], [placement],
                          test_device.spec.cuda_malloc_overhead_ns)[0].trace
    segments, recorded = placement.preamble_segments, iter(reference.events)
    for event in trace_events(placed):
        if event.kind in _PLACEMENT_KINDS:
            segments += 1
        else:
            expected = next(recorded)
            assert (event.tag, event.timestamp_ns) == (
                expected.tag,
                expected.timestamp_ns + segments * test_device.spec.cuda_malloc_overhead_ns)
    assert next(recorded, None) is None


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
    iteration = [-1]
    reference = ReferenceRecorder(clock, iteration_of=lambda: iteration[0])
    categories = list(MemoryCategory)
    for position, (step, block_id, advance) in enumerate(steps):
        clock.advance(advance)
        if step == "pause":
            reference.enabled = False
        elif step == "resume":
            reference.enabled = True
        elif step == "iteration":
            iteration[0] += 1
        else:
            # Every call sees its own size/category/tag: a lifetime must carry
            # its malloc's, whatever the later events of the block say.
            block = SimpleNamespace(block_id=block_id, address=0x1000 * block_id + position,
                                    size=64 * (position + 1),
                                    category=categories[position % len(categories)],
                                    tag=f"step{position}")
            arguments = {"malloc": (block, block.size), "free": (block,)}.get(
                step, (block, block.size, f"op{position}"))
            getattr(reference, f"on_{step}")(*arguments)
    trace = trace_from_events(reference.events)
    assert trace_events(trace) == reference.events
    assert trace_lifetimes(trace) == reference.lifetimes


@pytest.mark.parametrize("rows", [0, 1, 2, 9])
def test_log_keeps_growing_after_a_snapshot(rows):
    # Zero- and one-row tables are already "contiguous" when transposed: the
    # snapshot must copy them anyway, or the row store stays pinned by a view.
    log = array("q")
    for i in range(rows):
        log.frombytes(pack_row(i % 4, 10 * i, i + 1, 512 * i, 512, 5, 0))
    columns = columns_from_rows(log)
    log.frombytes(pack_row(1, 999, 77, 0, 512, 8, 1))
    assert len(columns) == rows and len(log) == (rows + 1) * len(ROW_FIELDS)
    assert columns.block_id.tolist() == list(range(1, rows + 1))
    assert columns.timestamp_ns.tolist() == [10 * i for i in range(rows)]
    assert all(getattr(columns, name).flags["C_CONTIGUOUS"] for name in ROW_FIELDS)
    assert columns_from_rows(log).block_id.tolist()[-1] == 77


# -- (b) the recorder slot --------------------------------------------------------------


def test_a_device_records_from_its_first_behavior():
    """A fresh device's recorder is a plain :class:`TraceRecorder`, and every
    request the device logs has its malloc row there."""
    device = Device(small_test_device())
    assert type(device.recorder) is TraceRecorder and len(device.recorder) == 0
    randn(device, (4,))
    randn(device, (4,)).free()
    counts = device.recorder.to_trace().counts_by_kind()
    assert (counts["malloc"], counts["write"], counts["free"]) == (2, 2, 1)
    assert len(device.recorder.tags) == 2


def test_class_hook_patched_before_the_device_is_built_is_the_one_that_fires(monkeypatch):
    seen = []
    original = TraceRecorder.on_kernel

    def traced(recorder, op, reads, writes, *atom):
        seen.append((op, len(reads), len(writes)))
        return original(recorder, op, reads, writes, *atom)

    monkeypatch.setattr(TraceRecorder, "on_kernel", traced)
    device = Device(small_test_device())
    profiler = MemoryProfiler(device)
    a = randn(device, (4, 4))
    F.matmul(a, a)
    reads = profiler.trace().counts_by_kind()["read"]
    assert reads == 2 and seen == [("matmul", 2, 1)]


def test_internal_readers_copy_no_string_list(monkeypatch):
    """``event_strings()`` hands out copies of a trace's stored tag and op
    lists; placement, the barrier search, the rank merge and the overlay's
    walk index read the stored lists and copy neither."""
    config = _config("mlp", n_devices=2)
    recording = run_training_session(config).recording
    trace = recording.traces[0]
    tags, ops = trace.event_strings()
    assert (tags, ops) == (trace.event_tags, trace.event_ops)
    assert tags is not trace.event_tags and ops is not trace.event_ops
    calls = []
    original = MemoryTrace.event_strings
    monkeypatch.setattr(MemoryTrace, "event_strings",
                        lambda trace: calls.append(trace) or original(trace))
    recording.placements.clear()
    rank_traces = [placed.trace for placed in recording.placed(config).traces]
    assert barrier_rows(rank_traces[0]) and WalkIndex(trace).barriers
    merge_rank_traces(rank_traces)
    assert calls == []


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
def test_planner_floor_equals_filtering_the_full_list(corpus, floor):
    """The planner's size floor is a mask over the rows: it scores exactly
    the floor-free candidates at or above it, in the same order, and names
    only the rows it keeps."""
    for trace in corpus:
        for arrays in (compute_interval_arrays(trace),
                       compute_interval_arrays(trace, include_lifecycle=True)):
            asked = []

            def labels(rows):
                asked.append(rows.tolist())
                return [str(row) for row in rows.tolist()]

            columns = (arrays.block_id, arrays.size, arrays.interval_ns)
            everything = SwapPlanner(min_candidate_bytes=0).evaluate(*columns, labels)
            floored = SwapPlanner(min_candidate_bytes=floor).evaluate(*columns, labels)
            assert floored == [c for c in everything if c.size >= floor]
            kept = np.flatnonzero(arrays.size >= floor).tolist()
            assert asked[1:] == ([kept] if kept else [])


def test_interval_rows_match_the_event_rows_they_index(corpus):
    trace = corpus[1]
    cols = trace.columns()
    tags, _ops = trace.event_strings()
    events = trace_events(trace)
    arrays = compute_interval_arrays(trace)
    for row in range(0, len(arrays), 37):
        start, end = int(arrays.start_index[row]), int(arrays.end_index[row])
        assert (arrays.block_id[row], arrays.size[row], arrays.category_code[row],
                arrays.iteration[row]) == (cols.block_id[end], cols.size[end],
                                           cols.category_code[end], cols.iteration[end])
        assert (arrays.start_event_id[row], arrays.end_event_id[row]) == (
            cols.event_id[start], cols.event_id[end])
        assert (arrays.start_kind_code[row], arrays.end_kind_code[row]) == (
            cols.kind_code[start], cols.kind_code[end])
        assert arrays.interval_ns[row] == cols.timestamp_ns[end] - cols.timestamp_ns[start]
        # The rows are the event tuples' positions too, tags included.
        assert (events[start].event_id, events[end].event_id, events[end].tag) == (
            arrays.start_event_id[row], arrays.end_event_id[row], tags[end])


def test_planner_policy_equals_planning_over_the_unfiltered_intervals(corpus):
    selected = 0
    for trace in corpus:
        bandwidths = BandwidthConfig.from_paper()
        plan = SwapPlanner(bandwidths=bandwidths).plan(
            trace, compute_interval_arrays(trace))
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
            arrays = compute_interval_arrays(trace)
            for block_id, interval_ns in zip(arrays.block_id.tolist(),
                                             arrays.interval_ns.tolist()):
                largest[block_id] = max(largest.get(block_id, 0), interval_ns)
            sizes = {}
            for lifetime in trace_lifetimes(trace):
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
            device.allocate(1024)
            device.allocate(1024)
            placement = device.place()
            assert placement.block_id.tolist() == [1, 2]
            # best-fit's one segment is its pre-reserved arena
            assert (placement.segment_id[:1].tolist()
                    or [placement.preamble_segments]) == [1]
