"""End-to-end integration tests crossing every subsystem."""

from repro.core import (
    MemoryEventKind,
    analyze_fragmentation,
    build_gantt_chart,
    compute_interval_arrays,
    find_outliers,
    occupation_breakdown,
    periodicity,
    summarize_values_us,
)
from repro.core.swap import SwapPlanner
from repro.train.session import TrainingRunConfig, run_training_session
from repro.viz import render_gantt, render_stacked_bars

from tests.helpers import trace_events


def test_full_pipeline_on_shared_session(small_mlp_session):
    """Every paper analysis runs on one training trace."""
    trace = small_mlp_session.trace
    assert len(trace) > 100

    intervals = compute_interval_arrays(trace)
    summary = summarize_values_us(intervals.interval_us)
    assert summary.count == len(intervals) > 50
    assert summary.p50_us > 0

    chart = build_gantt_chart(trace, max_iterations=5)
    assert (max(rect.size for rect in chart.rectangles)
            <= small_mlp_session.peak_allocated_bytes)

    periodic = periodicity(trace)
    assert (periodic.start, periodic.period) == (1, 1)

    breakdown = occupation_breakdown(trace)
    assert breakdown.total_bytes == trace.peak_live_bytes()
    assert breakdown.fraction("intermediate results") > breakdown.fraction("parameters")

    fragmentation = analyze_fragmentation(trace)
    assert fragmentation.peak_reserved_bytes >= fragmentation.peak_allocated_bytes

    plan = SwapPlanner().plan(trace, intervals)
    assert plan.estimated_peak_bytes_after <= plan.peak_bytes_before

    # Rendering never raises and produces non-trivial text.
    assert len(render_gantt(chart).splitlines()) > 5


def test_trace_is_reproducible_for_identical_configs():
    config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 16},
                               dataset="two_cluster", batch_size=8, iterations=2,
                               seed=3)
    first = run_training_session(config)
    second = run_training_session(config)
    assert len(first.trace) == len(second.trace)
    first_kinds = [event.kind for event in trace_events(first.trace)]
    second_kinds = [event.kind for event in trace_events(second.trace)]
    assert first_kinds == second_kinds
    assert [event.size for event in trace_events(first.trace)] == \
        [event.size for event in trace_events(second.trace)]


def test_every_iteration_of_the_shared_session_reads_its_loss_back(small_mlp_session):
    readbacks = [event for event in trace_events(small_mlp_session.trace)
                 if event.op == "memcpy_d2h" and event.kind is MemoryEventKind.READ]
    assert [event.iteration for event in readbacks] == list(range(5))
    assert {event.tag for event in readbacks} == {"ce_loss"}


def test_value_only_settings_leave_the_memory_behavior_unchanged():
    """Memory behavior depends on shapes: the seed and the learning rate,
    which only ever set values, move no event."""
    base = dict(model="mlp", model_kwargs={"hidden_dim": 64}, dataset="two_cluster",
                batch_size=32, iterations=2)
    first = run_training_session(TrainingRunConfig(seed=0, learning_rate=0.1, **base))
    second = run_training_session(TrainingRunConfig(seed=11, learning_rate=0.5, **base))
    assert ([(e.kind, e.timestamp_ns, e.size, e.category, e.op) for e in trace_events(first.trace)]
            == [(e.kind, e.timestamp_ns, e.size, e.category, e.op)
                for e in trace_events(second.trace)])


def test_convnet_session_has_workspace_and_conv_behaviors():
    config = TrainingRunConfig(model="lenet5", dataset="mnist", batch_size=8, iterations=2)
    result = run_training_session(config)
    ops = {event.op for event in trace_events(result.trace) if event.op}
    assert "conv2d_forward" in ops
    assert "maxpool2d_forward" in ops
    assert any(event.category.value == "workspace" for event in trace_events(result.trace))


def test_memory_returns_to_steady_state_each_iteration(small_mlp_session):
    """Live bytes at iteration boundaries are identical from iteration 1 onward."""
    trace = small_mlp_session.trace
    live = 0
    live_at_iteration_end = {}
    for event in trace_events(trace):
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
                                   iterations=3)
        result = run_training_session(config)
        intervals = compute_interval_arrays(result.trace)
        report = find_outliers(intervals, result.trace.event_strings()[0],
                               ati_threshold_ns=1_000_000, size_threshold_bytes=1024)
        return max(intervals.size[report.rows].tolist(), default=0)

    assert largest_idle_block(256) < largest_idle_block(2048)
