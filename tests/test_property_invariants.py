"""Property-based tests over trace-level invariants of the whole stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ati import compute_interval_arrays
from repro.core.events import MemoryEventKind
from repro.core.profiler import MemoryProfiler
from repro.core.trace import MemoryTrace
from repro.device import Device, small_test_device
from repro.models import MLP
from repro.nn import SGD, CrossEntropyLoss
from repro.tensor import from_numpy

from tests.helpers import trace_events


def run_tiny_training(hidden_dim, batch_size, iterations):
    """Train a tiny MLP and return the trace."""
    device = Device(small_test_device(1 << 30))
    profiler = MemoryProfiler(device)
    with profiler:
        model = MLP(device, hidden_dim=hidden_dim)
        loss_fn = CrossEntropyLoss(device)
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
        rng = np.random.default_rng(0)
        for iteration in range(iterations):
            profiler.begin_iteration(iteration)
            x = from_numpy(device, rng.standard_normal((batch_size, 2)).astype(np.float32),
                           tag="input")
            labels = from_numpy(device, rng.integers(0, 2, batch_size).astype(np.int64),
                                tag="labels")
            logits = model(x)
            loss = loss_fn(logits, labels)
            logits.release()
            optimizer.zero_grad()
            grad = loss_fn.backward()
            model.backward(grad).release()
            grad.release()
            optimizer.step()
            loss.release()
            x.release()
            labels.release()
            profiler.end_iteration(iteration)
    return profiler.trace()


def check_trace_invariants(trace: MemoryTrace):
    """Invariants that must hold for every recorded trace."""
    # 1. Event ids and timestamps are monotonically non-decreasing.
    ids = [event.event_id for event in trace_events(trace)]
    assert ids == sorted(ids)
    times = [event.timestamp_ns for event in trace_events(trace)]
    assert all(b >= a for a, b in zip(times, times[1:]))

    # 2. Per block: first event is a malloc, accesses only while allocated,
    #    frees alternate with mallocs.
    by_block = {}
    for event in trace_events(trace):
        if event.block_id > 0 and event.kind.is_block_behavior:
            by_block.setdefault(event.block_id, []).append(event)
    for block_id, events in by_block.items():
        allocated = False
        for event in events:
            if event.kind is MemoryEventKind.MALLOC:
                assert not allocated, f"double malloc on block {block_id}"
                allocated = True
            elif event.kind is MemoryEventKind.FREE:
                assert allocated, f"free of unallocated block {block_id}"
                allocated = False
            else:
                assert allocated, f"access to unallocated block {block_id}"

    # 3. Live bytes never go negative and the peak matches the reported peak.
    live = 0
    peak = 0
    for event in trace_events(trace):
        if event.kind is MemoryEventKind.MALLOC:
            live += event.size
        elif event.kind is MemoryEventKind.FREE:
            live -= event.size
        assert live >= 0
        peak = max(peak, live)
    assert peak == trace.peak_live_bytes()

    # 4. Every access interval is non-negative and pairs events of the same block.
    if trace_events(trace):
        arrays = compute_interval_arrays(trace)
        block_id = trace.columns().block_id
        assert np.all(arrays.interval_ns >= 0)
        assert np.all(arrays.start_event_id < arrays.end_event_id)
        assert np.array_equal(block_id[arrays.start_index], block_id[arrays.end_index])


@settings(max_examples=8, deadline=None)
@given(hidden_dim=st.sampled_from([8, 32, 128]),
       batch_size=st.sampled_from([4, 16, 64]),
       iterations=st.integers(min_value=1, max_value=4))
def test_training_traces_always_satisfy_invariants(hidden_dim, batch_size, iterations):
    trace = run_tiny_training(hidden_dim, batch_size, iterations)
    assert len(trace) > 0
    check_trace_invariants(trace)
    assert trace.iterations() == list(range(iterations))


def test_invariants_hold_on_shared_sessions(small_mlp_session, paper_mlp_session):
    check_trace_invariants(small_mlp_session.trace)
    check_trace_invariants(paper_mlp_session.trace)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=1 << 20),
                          st.booleans()), min_size=1, max_size=60))
def test_device_allocation_roundtrip_property(requests):
    """Allocating and freeing arbitrary sizes always returns to zero allocated bytes."""
    device = Device(small_test_device(1 << 28))
    live = []
    for size, free_something in requests:
        if free_something and live:
            device.free(live.pop())
        live.append(device.allocate(size))
    for request in live:
        device.free(request)
    stats = device.place().stats
    assert stats.allocated_bytes == 0
    assert stats.peak_allocated_bytes > 0
