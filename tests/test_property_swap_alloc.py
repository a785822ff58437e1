"""Randomized property-style invariants for the swap planner and the allocator.

These complement ``test_property_invariants.py`` (whole-stack trace
invariants) with targeted properties of the two subtlest components:

* :class:`~repro.core.swap.SwapPlanner` — Eq.-1 consistency and conservative
  savings accounting;
* :class:`~repro.device.allocator.CachingAllocator` — no overlapping live
  blocks, byte conservation across alloc/free streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ati import AccessInterval, compute_interval_arrays
from repro.core.events import MemoryCategory, MemoryEventKind
from repro.core.swap import (
    BandwidthConfig,
    SwapPlanner,
    is_swappable,
    max_swap_bytes,
    swap_round_trip_ns,
    swappable_fraction,
    swappable_mask,
)
from repro.device import Device, small_test_device
from repro.units import KB, MIB

from tests.helpers import build_trace

BANDWIDTHS = BandwidthConfig.from_paper()


def make_interval(block_id, size, interval_ns, iteration=0):
    """A standalone ATI sample for planner-level tests."""
    return AccessInterval(
        block_id=block_id, size=size, category=MemoryCategory.ACTIVATION,
        tag=f"block{block_id}", interval_ns=interval_ns,
        start_event_id=2 * block_id, end_event_id=2 * block_id + 1,
        start_kind=MemoryEventKind.WRITE, end_kind=MemoryEventKind.READ,
        iteration=iteration,
    )


# -- Eq. 1 consistency ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(size=st.integers(min_value=0, max_value=1 << 34),
       interval_ns=st.integers(min_value=-10, max_value=10**12))
def test_is_swappable_consistent_with_max_swap_bytes(size, interval_ns):
    interval = make_interval(1, size, interval_ns)
    limit = max_swap_bytes(interval_ns, BANDWIDTHS)
    assert is_swappable(interval, BANDWIDTHS) == (size <= limit)
    if interval_ns <= 0:
        assert limit == 0.0
    else:
        # Eq. 1: shipping `limit` bytes out and back takes exactly the ATI.
        assert swap_round_trip_ns(limit, BANDWIDTHS) == pytest.approx(interval_ns, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=1 << 30),
                          st.integers(min_value=1, max_value=10**10)),
                min_size=1, max_size=40))
def test_vectorized_swappable_mask_matches_scalar_eq1(pairs):
    """swappable_mask/swappable_fraction agree with per-interval is_swappable."""
    us = 1_000
    events = []
    t = 0
    for block_id, (size, gap) in enumerate(pairs, start=1):
        events += [("malloc", t, block_id, size), ("write", t + us, block_id, size),
                   ("read", t + us + gap, block_id, size),
                   ("free", t + 2 * us + gap, block_id, size)]
        t += 4 * us + gap
    trace = build_trace(events)
    arrays = compute_interval_arrays(trace)
    assert len(arrays) == len(pairs)
    mask = swappable_mask(arrays, BANDWIDTHS)
    for i in range(len(arrays)):
        expected = int(arrays.size[i]) <= max_swap_bytes(int(arrays.interval_ns[i]),
                                                         BANDWIDTHS)
        assert bool(mask[i]) == expected
    assert swappable_fraction(arrays, BANDWIDTHS) == pytest.approx(float(np.mean(mask)))


# -- SwapPlanner invariants -----------------------------------------------------------


interval_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=20),              # block id
              st.integers(min_value=1 * KB, max_value=1 << 31),    # size
              st.integers(min_value=0, max_value=2 * 10**9)),      # ATI (up to 2 s)
    min_size=0, max_size=60)


@settings(max_examples=100, deadline=None)
@given(intervals=interval_lists,
       allow_overhead_ns=st.sampled_from([0.0, 1e6, 1e9]))
def test_swap_plan_invariants(intervals, allow_overhead_ns):
    samples = [make_interval(block, size, ati) for block, size, ati in intervals]
    us = 1_000
    events = []
    for i, (block, size, _) in enumerate(intervals):
        events += [("malloc", i * us, block, size), ("free", (i + 1) * us, block, size)]
    trace = build_trace(events) if events else build_trace([("malloc", 0, 1, 1)])

    planner = SwapPlanner(bandwidths=BANDWIDTHS, allow_overhead_ns=allow_overhead_ns)
    plan = planner.plan(trace, samples)

    candidate_total = sum(c.savings_bytes for c in plan.candidates)
    selected_total = sum(c.savings_bytes for c in plan.selected)

    # Savings are conservative: bounded by the candidates and by the peak.
    assert 0 <= plan.savings_bytes <= plan.peak_bytes_before
    assert selected_total <= candidate_total
    assert plan.savings_bytes <= selected_total
    assert plan.estimated_peak_bytes_after >= 0

    # Candidates below the planner's size floor are never considered.
    assert all(c.interval.size >= planner.min_candidate_bytes for c in plan.candidates)

    # At most one selection per block.
    selected_blocks = [c.interval.block_id for c in plan.selected]
    assert len(selected_blocks) == len(set(selected_blocks))

    # Eq.-1 consistency: feasibility of every candidate matches is_swappable,
    # and the total overhead respects the planner's budget.
    for candidate in plan.candidates:
        assert candidate.feasible == is_swappable(candidate.interval, BANDWIDTHS)
    assert plan.total_overhead_ns <= allow_overhead_ns + 1e-6
    if allow_overhead_ns == 0.0:
        # (overhead == 0 admits the float edge where round-trip rounds to the ATI)
        assert all(c.feasible or c.overhead_ns == 0.0 for c in plan.selected)
        assert plan.total_overhead_ns == 0.0


@settings(max_examples=50, deadline=None)
@given(intervals=interval_lists)
def test_swap_plan_zero_overhead_selects_all_feasible_blocks(intervals):
    samples = [make_interval(block, size, ati) for block, size, ati in intervals]
    planner = SwapPlanner(bandwidths=BANDWIDTHS, allow_overhead_ns=0.0)
    plan = planner.plan(build_trace([("malloc", 0, 1, 1)]), samples)
    feasible_blocks = {c.interval.block_id for c in plan.candidates if c.feasible}
    selected_blocks = {c.interval.block_id for c in plan.selected}
    # Every feasible block is picked; anything extra must be zero-overhead.
    assert feasible_blocks <= selected_blocks
    assert all(c.feasible or c.overhead_ns == 0.0 for c in plan.selected)


# -- caching allocator invariants -----------------------------------------------------


def assert_no_overlapping_live_blocks(device):
    """No two live blocks may share device bytes."""
    spans = sorted((block.address, block.address + block.size)
                   for block in device.allocator.live_blocks())
    for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
        assert end_a <= start_b, "live blocks overlap"


allocation_programs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4 * MIB),  # request size
              st.integers(min_value=0, max_value=3)),       # frees before this alloc
    min_size=1, max_size=80)


@settings(max_examples=40, deadline=None)
@given(program=allocation_programs)
def test_caching_allocator_conserves_bytes_and_never_overlaps(program):
    device = Device(small_test_device(1 << 30), execution_mode="symbolic")
    live = []
    allocated_total = 0
    for size, frees in program:
        for _ in range(min(frees, len(live))):
            block = live.pop(0)
            allocated_total -= block.size
            device.free(block)
        block = device.allocate(size)
        assert block.size >= size, "allocator returned an undersized block"
        live.append(block)
        allocated_total += block.size

        # Conservation: the allocator's notion of allocated bytes equals the
        # sum of the blocks it has handed out and not yet been given back.
        assert device.allocated_bytes == allocated_total
        assert device.allocated_bytes == sum(b.size for b in device.allocator.live_blocks())
        assert device.reserved_bytes >= device.allocated_bytes
        assert_no_overlapping_live_blocks(device)
        device.allocator.check_invariants()

    for block in live:
        device.free(block)
    assert device.allocated_bytes == 0
    # Every reserved segment is fully reusable once everything is freed.
    assert all(segment.is_fully_free() for segment in device.allocator.segments())
    # And the cache can be dropped completely: freed bytes were conserved.
    reserved_before = device.reserved_bytes
    assert device.allocator.empty_cache() == reserved_before
    assert device.reserved_bytes == 0


# -- predicted peak: the broadcast against the loop it replaced -------------------------


def predict_peak_after_loop(windows, warmup):
    """The per-sample, per-window replay ``_predict_peak_after`` used to run."""
    series = warmup.live_series or []
    duration = warmup.iteration_duration_ns
    if not series or duration <= 0:
        return max(0, warmup.peak_resident_bytes - sum(size for _, _, size in windows))
    margin = duration // 50
    worst = 0
    for phase, live in series:
        absent = 0
        for start, end, size in windows:
            if (start <= phase < end - margin) or (phase < end - duration - margin):
                absent += size
        worst = max(worst, live - absent)
    return worst


@st.composite
def absence_profiles(draw):
    duration = draw(st.sampled_from([-5, 0, 1, 49, 50, 1_000, 10**9]))
    span = max(duration, 1)
    phases = st.integers(0, span + span // 10)
    series = draw(st.lists(st.tuples(phases, st.integers(0, 48 << 30)), max_size=40))
    windows = []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(phases)
        # empty, in-iteration and boundary-crossing (end > duration) windows
        length = draw(st.one_of(st.just(0), st.integers(0, 2 * span)))
        windows.append((start, start + length, draw(st.integers(0, 12 << 30))))
    return windows, series, duration


@settings(max_examples=300, deadline=None)
@given(profile=absence_profiles(), peak=st.integers(0, 48 << 30))
def test_predicted_peak_broadcast_equals_the_loop(profile, peak):
    from repro.swap.executor import WarmupObservations
    from repro.swap.policies import _predict_peak_after

    windows, series, duration = profile
    warmup = WarmupObservations(blocks=[], by_id={}, peak_resident_bytes=peak,
                                peak_phase_ns=None, iteration_duration_ns=duration,
                                live_series=series)
    predicted = _predict_peak_after(windows, warmup)
    assert type(predicted) is int
    assert predicted == predict_peak_after_loop(windows, warmup)
