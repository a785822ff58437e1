"""Tests for Eq. 1, the swap planner and the fragmentation analysis."""

import pytest

from repro.core.ati import compute_interval_arrays
from repro.core.events import MemoryCategory
from repro.core.fragmentation import (
    analyze_fragmentation,
    fragmentation_series,
    internal_fragmentation_bytes,
    snapshot_external_fragmentation,
)
from repro.core.swap import (
    BandwidthConfig,
    SwapPlanner,
    max_swap_bytes,
    swap_round_trip_ns,
    swappable_mask,
)
from repro.device.allocator import make_allocator
from repro.units import GB, KB, MIB, s_to_ns, us_to_ns

from tests.helpers import build_trace, interval_arrays, plan_rows


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
    arrays = interval_arrays([(1, int(limit) - 1, us_to_ns(100)),
                              (1, int(limit * 2), us_to_ns(100))])
    assert swappable_mask(arrays, bandwidths).tolist() == [True, False]


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
    plan = plan_rows(SwapPlanner(), [
        (1, 800 * MIB, s_to_ns(1.0)),    # hides a 3.17 GB round trip: feasible
        (2, 700 * MIB, us_to_ns(50)),    # infeasible
        (3, 64 * 1024, s_to_ns(1.0)),    # too small to bother
    ], trace.peak_live_bytes())
    selected_ids = [candidate.block_id for candidate in plan.selected]
    assert selected_ids == [1]
    assert [candidate.block_id for candidate in plan.candidates] == [1, 2]
    assert plan.total_overhead_ns == 0.0
    assert plan.savings_bytes == 800 * MIB
    assert 0 < plan.savings_fraction < 1
    assert "peak before" in plan.describe()
    assert "  - block 1 (b1): 800.00 MiB over " in plan.describe()


def test_swap_planner_with_overhead_budget_takes_infeasible_blocks():
    trace = make_swap_trace()
    eager_planner = SwapPlanner(allow_overhead_ns=10 * s_to_ns(1.0))
    plan = plan_rows(eager_planner, [(2, 700 * MIB, us_to_ns(50))], trace.peak_live_bytes())
    assert len(plan.selected) == 1
    assert plan.total_overhead_ns > 0


def test_swap_planner_one_swap_per_block():
    trace = make_swap_trace()
    plan = plan_rows(SwapPlanner(), [
        (1, 800 * MIB, s_to_ns(1.0)),
        (1, 800 * MIB, s_to_ns(1.2)),
    ], trace.peak_live_bytes())
    assert len(plan.selected) == 1
    assert plan.summary()["num_candidates"] == 2


def test_swap_planner_on_real_trace(paper_mlp_session):
    trace = paper_mlp_session.trace
    plan = SwapPlanner().plan(trace, compute_interval_arrays(trace))
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
    allocator = make_allocator(test_device.allocator, test_device.spec.memory_capacity)
    block = allocator.allocate(512 * 1024)
    allocator.allocate(512 * 1024)
    allocator.free(block)
    snapshot = allocator.memory_snapshot()
    value = snapshot_external_fragmentation(snapshot)
    assert 0.0 <= value < 1.0
    # With exactly one free block the ratio is zero by definition.
    assert snapshot_external_fragmentation([{"blocks": [
        {"allocated": False, "size": 100}]}]) == 0.0
    assert snapshot_external_fragmentation([{"blocks": [
        {"allocated": True, "size": 100}]}]) == 0.0
