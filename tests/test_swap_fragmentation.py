"""Tests for Eq. 1, the swap planner and the fragmentation analysis."""

import pytest

from repro.core.ati import AccessInterval, compute_access_intervals
from repro.core.events import MemoryCategory, MemoryEventKind
from repro.core.fragmentation import (
    analyze_fragmentation,
    fragmentation_series,
    internal_fragmentation_bytes,
    snapshot_external_fragmentation,
)
from repro.core.swap import (
    BandwidthConfig,
    SwapPlanner,
    is_swappable,
    max_swap_bytes,
    swap_round_trip_ns,
)
from repro.units import GB, KB, MIB, s_to_ns, us_to_ns

from tests.helpers import build_trace


def make_interval(block_id, size, interval_ns):
    return AccessInterval(block_id=block_id, size=size, category=MemoryCategory.ACTIVATION,
                          tag=f"b{block_id}", interval_ns=interval_ns, start_event_id=0,
                          end_event_id=1, start_kind=MemoryEventKind.WRITE,
                          end_kind=MemoryEventKind.READ, iteration=0)


# -- Equation 1 -------------------------------------------------------------------------------


def test_equation_one_reproduces_paper_numbers():
    bandwidths = BandwidthConfig.from_paper()
    at_25us = max_swap_bytes(us_to_ns(25), bandwidths)
    assert at_25us / KB == pytest.approx(79.37, abs=0.01)
    at_800ms = max_swap_bytes(s_to_ns(0.8), bandwidths)
    assert at_800ms / GB == pytest.approx(2.54, abs=0.01)


def test_equation_one_is_linear_in_ati():
    bandwidths = BandwidthConfig.from_paper()
    assert max_swap_bytes(2_000, bandwidths) == pytest.approx(
        2 * max_swap_bytes(1_000, bandwidths))
    assert max_swap_bytes(0, bandwidths) == 0.0
    assert max_swap_bytes(-5, bandwidths) == 0.0


def test_round_trip_and_feasibility():
    bandwidths = BandwidthConfig.from_paper()
    limit = max_swap_bytes(us_to_ns(100), bandwidths)
    assert swap_round_trip_ns(limit, bandwidths) == pytest.approx(us_to_ns(100), rel=1e-6)
    assert is_swappable(make_interval(1, int(limit) - 1, us_to_ns(100)), bandwidths)
    assert not is_swappable(make_interval(1, int(limit * 2), us_to_ns(100)), bandwidths)


def test_bandwidth_config_from_device_spec():
    from repro.device.spec import titan_x_pascal
    config = BandwidthConfig.from_device_spec(titan_x_pascal())
    assert config.h2d_bytes_per_s == pytest.approx(6.3e9)
    assert config.d2h_bytes_per_s == pytest.approx(6.4e9)


# -- planner ------------------------------------------------------------------------------------


def make_swap_trace():
    """One huge long-idle block, one huge busy block, one small block."""
    return build_trace([
        ("malloc", 0, 1, 800 * MIB, MemoryCategory.ACTIVATION, 0),
        ("malloc", 1, 2, 700 * MIB, MemoryCategory.ACTIVATION, 0),
        ("malloc", 2, 3, 64 * 1024, MemoryCategory.PARAMETER, 0),
    ], end_ns=s_to_ns(2.0))


def test_swap_planner_selects_only_feasible_candidates():
    trace = make_swap_trace()
    intervals = [
        make_interval(1, 800 * MIB, s_to_ns(1.0)),    # hides a 3.17 GB round trip: feasible
        make_interval(2, 700 * MIB, us_to_ns(50)),    # infeasible
        make_interval(3, 64 * 1024, s_to_ns(1.0)),    # too small to bother
    ]
    planner = SwapPlanner()
    plan = planner.plan(trace, intervals)
    selected_ids = [candidate.interval.block_id for candidate in plan.selected]
    assert selected_ids == [1]
    assert plan.total_overhead_ns == 0.0
    assert plan.savings_bytes == 800 * MIB
    assert 0 < plan.savings_fraction < 1
    assert "peak before" in plan.describe()


def test_swap_planner_with_overhead_budget_takes_infeasible_blocks():
    trace = make_swap_trace()
    intervals = [make_interval(2, 700 * MIB, us_to_ns(50))]
    eager_planner = SwapPlanner(allow_overhead_ns=10 * s_to_ns(1.0))
    plan = eager_planner.plan(trace, intervals)
    assert len(plan.selected) == 1
    assert plan.total_overhead_ns > 0


def test_swap_planner_target_bytes_stops_early():
    trace = make_swap_trace()
    intervals = [
        make_interval(1, 800 * MIB, s_to_ns(1.5)),
        make_interval(2, 700 * MIB, s_to_ns(1.5)),
    ]
    plan = SwapPlanner().plan(trace, intervals, target_bytes=700 * MIB)
    assert len(plan.selected) == 1


def test_swap_planner_one_swap_per_block():
    trace = make_swap_trace()
    intervals = [
        make_interval(1, 800 * MIB, s_to_ns(1.0)),
        make_interval(1, 800 * MIB, s_to_ns(1.2)),
    ]
    plan = SwapPlanner().plan(trace, intervals)
    assert len(plan.selected) == 1
    assert plan.summary()["num_candidates"] == 2


def test_swap_planner_on_real_trace(paper_mlp_session):
    intervals = compute_access_intervals(paper_mlp_session.trace)
    plan = SwapPlanner().plan(paper_mlp_session.trace, intervals)
    assert plan.peak_bytes_before > 0
    assert plan.savings_bytes >= 0
    assert plan.estimated_peak_bytes_after <= plan.peak_bytes_before


# -- fragmentation ---------------------------------------------------------------------------------


def make_fragmentation_trace():
    return build_trace([
        ("segment_alloc", 0, -1, 4 * MIB, MemoryCategory.UNKNOWN, 0),
        ("malloc", 1, 1, 1 * MIB, MemoryCategory.ACTIVATION, 0),
        ("malloc", 2, 2, 1 * MIB, MemoryCategory.ACTIVATION, 0),
        ("free", 3, 1, 1 * MIB, MemoryCategory.ACTIVATION, 0),
        ("free", 4, 2, 1 * MIB, MemoryCategory.ACTIVATION, 0),
        ("segment_free", 5, -1, 4 * MIB, MemoryCategory.UNKNOWN, 0),
    ])


def test_fragmentation_timeline_tracks_reserved_and_allocated():
    timestamps, allocated, reserved = fragmentation_series(make_fragmentation_trace())
    assert timestamps.tolist() == [0, 1, 2, 3, 4, 5]
    assert reserved[0] == 4 * MIB
    assert allocated[0] == 0
    assert allocated[2] == 2 * MIB
    assert allocated[2] / reserved[2] == pytest.approx(0.5)
    assert reserved[-1] == 0


def test_fragmentation_report_summary():
    report = analyze_fragmentation(make_fragmentation_trace())
    assert report.peak_allocated_bytes == 2 * MIB
    assert report.peak_reserved_bytes == 4 * MIB
    assert report.peak_cached_bytes == 4 * MIB
    assert 0 < report.mean_utilization <= 1.0
    assert set(report.summary()) == {"peak_allocated_bytes", "peak_reserved_bytes",
                                     "peak_cached_bytes", "mean_utilization",
                                     "min_utilization"}


def test_fragmentation_of_empty_trace():
    from repro.core.trace import MemoryTrace
    report = analyze_fragmentation(MemoryTrace())
    assert report.peak_allocated_bytes == 0
    assert report.mean_utilization == 1.0


def test_internal_fragmentation_bound(simple_trace):
    assert internal_fragmentation_bytes(simple_trace) == 2 * 511


def test_snapshot_external_fragmentation(test_device):
    block = test_device.allocate(512 * 1024)
    test_device.allocate(512 * 1024)
    test_device.free(block)
    snapshot = test_device.memory_snapshot()
    value = snapshot_external_fragmentation(snapshot)
    assert 0.0 <= value < 1.0
    # With exactly one free block the ratio is zero by definition.
    assert snapshot_external_fragmentation([{"blocks": [
        {"allocated": False, "size": 100}]}]) == 0.0
    assert snapshot_external_fragmentation([{"blocks": [
        {"allocated": True, "size": 100}]}]) == 0.0
