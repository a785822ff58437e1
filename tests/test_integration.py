"""End-to-end integration tests crossing every subsystem."""

import numpy as np
import pytest

from repro.core import (
    MemoryEventKind,
    analyze_fragmentation,
    build_gantt_chart,
    compute_access_intervals,
    detect_iterative_pattern,
    find_outliers,
    occupation_breakdown,
    summarize_intervals,
)
from repro.core.swap import SwapPlanner
from repro.train.session import TrainingRunConfig, run_training_session
from repro.viz import render_gantt, render_stacked_bars


def test_full_pipeline_on_shared_eager_session(small_mlp_session):
    """Every paper analysis runs on one real eager training trace."""
    trace = small_mlp_session.trace
    assert len(trace) > 100

    intervals = compute_access_intervals(trace)
    summary = summarize_intervals(intervals)
    assert summary.count == len(intervals) > 50
    assert summary.p50_us > 0

    chart = build_gantt_chart(trace, max_iterations=5)
    assert (max(rect.size for rect in chart.rectangles)
            <= small_mlp_session.peak_allocated_bytes)

    patterns = detect_iterative_pattern(trace)
    assert patterns.is_iterative

    breakdown = occupation_breakdown(trace)
    assert breakdown.total_bytes == trace.peak_live_bytes()
    assert breakdown.fraction("intermediate results") > breakdown.fraction("parameters")

    fragmentation = analyze_fragmentation(trace)
    assert fragmentation.peak_reserved_bytes >= fragmentation.peak_allocated_bytes

    plan = SwapPlanner().plan(trace, intervals)
    assert plan.estimated_peak_bytes_after <= plan.peak_bytes_before

    # Rendering never raises and produces non-trivial text.
    assert len(render_gantt(chart).splitlines()) > 5


def test_losses_decrease_in_shared_session(small_mlp_session):
    losses = [loss for loss in small_mlp_session.losses() if loss is not None]
    assert len(losses) == 5
    assert losses[-1] < losses[0]


def test_trace_is_reproducible_for_identical_configs():
    config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 16},
                               dataset="two_cluster", batch_size=8, iterations=2,
                               execution_mode="eager", seed=3)
    first = run_training_session(config)
    second = run_training_session(config)
    assert len(first.trace) == len(second.trace)
    first_kinds = [event.kind for event in first.trace.events]
    second_kinds = [event.kind for event in second.trace.events]
    assert first_kinds == second_kinds
    assert [event.size for event in first.trace.events] == \
        [event.size for event in second.trace.events]
    assert first.losses() == pytest.approx(second.losses())


def test_virtual_and_eager_modes_produce_equivalent_memory_behavior():
    """Memory behavior is shape-dependent, so both modes yield the same stream."""
    base = dict(model="mlp", model_kwargs={"hidden_dim": 64}, dataset="two_cluster",
                batch_size=32, iterations=2, seed=0)
    eager = run_training_session(TrainingRunConfig(execution_mode="eager", **base))
    virtual = run_training_session(TrainingRunConfig(execution_mode="symbolic", **base))
    eager_stream = [(e.kind, e.size, e.category) for e in eager.trace.events]
    virtual_stream = [(e.kind, e.size, e.category) for e in virtual.trace.events]
    assert eager_stream == virtual_stream


def test_convnet_session_has_workspace_and_conv_behaviors():
    config = TrainingRunConfig(model="lenet5", dataset="mnist", batch_size=8, iterations=2,
                               execution_mode="symbolic")
    result = run_training_session(config)
    ops = {event.op for event in result.trace.events if event.op}
    assert "conv2d_forward" in ops
    assert "maxpool2d_forward" in ops
    assert any(event.category.value == "workspace" for event in result.trace.events)


def test_memory_returns_to_steady_state_each_iteration(small_mlp_session):
    """Live bytes at iteration boundaries are identical from iteration 1 onward."""
    trace = small_mlp_session.trace
    live = 0
    live_at_iteration_end = {}
    for event in trace.events:
        if event.kind is MemoryEventKind.MALLOC:
            live += event.size
        elif event.kind is MemoryEventKind.FREE:
            live -= event.size
        live_at_iteration_end[event.iteration] = live
    steady_values = [live_at_iteration_end[i] for i in range(1, 5)]
    assert len(set(steady_values)) == 1


def test_outliers_scale_with_batch_size():
    """Bigger batches produce bigger long-idle blocks (the Figure-4 regime)."""
    def largest_idle_block(batch_size):
        config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 2048},
                                   dataset="two_cluster", batch_size=batch_size,
                                   iterations=3, execution_mode="symbolic")
        result = run_training_session(config)
        intervals = compute_access_intervals(result.trace)
        report = find_outliers(intervals, ati_threshold_ns=1_000_000,
                               size_threshold_bytes=1024)
        return max((interval.size for interval in report.outliers), default=0)

    assert largest_idle_block(256) < largest_idle_block(2048)
