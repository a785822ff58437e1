"""Tests for Gantt-chart extraction and iterative-pattern detection."""

import pytest

from repro.core.events import MemoryCategory
from repro.core.gantt import build_gantt_chart
from repro.core.patterns import (
    detect_iterative_pattern,
    iteration_signature,
    jaccard_similarity,
    sequence_similarity,
)

from tests.helpers import build_trace


def test_gantt_builds_one_rectangle_per_lifetime(simple_trace):
    chart = build_gantt_chart(simple_trace)
    assert len(chart) == 3
    block2 = next(rect for rect in chart.rectangles if rect.block_id == 2)
    assert block2.start_ns == 2_000
    assert block2.end_ns == 15_000
    assert block2.duration_ns == 13_000
    assert block2.size == 4096


def test_gantt_closes_live_blocks_at_trace_end(simple_trace):
    chart = build_gantt_chart(simple_trace)
    block1 = next(rect for rect in chart.rectangles if rect.block_id == 1)
    assert block1.end_ns == simple_trace.end_ns    # parameters live until the end


def test_gantt_iteration_filter(simple_trace):
    chart = build_gantt_chart(simple_trace, max_iterations=1)
    assert all(rect.iteration < 1 for rect in chart.rectangles)
    assert len(chart.iteration_bounds) == 1


def test_gantt_lifetime_stats_and_dict(simple_trace):
    chart = build_gantt_chart(simple_trace)
    assert len(chart) == 3
    assert max(rect.size for rect in chart.rectangles) == 4096
    assert chart.rectangles[0].to_dict()["block_id"] in {1, 2, 3}


def test_sequence_and_jaccard_similarity_basics():
    a = (("write", 10, "activation"), ("read", 10, "activation"))
    b = (("write", 10, "activation"), ("read", 10, "activation"))
    c = (("write", 99, "parameter"),)
    assert sequence_similarity(a, b) == 1.0
    assert jaccard_similarity(a, b) == 1.0
    assert sequence_similarity(a, c) < 0.5
    assert jaccard_similarity(a, c) == 0.0
    assert sequence_similarity((), ()) == 1.0
    assert jaccard_similarity((), ()) == 1.0


def make_periodic_trace(num_iterations=4, perturb_last=False):
    """Build a trace whose iterations repeat the same three behaviors."""
    events = []
    marks = []
    us = 1_000
    for iteration in range(num_iterations):
        base = iteration * 100 * us
        size = 2048 if not (perturb_last and iteration == num_iterations - 1) else 9999
        events += [
            ("malloc", base + 1 * us, 10 + iteration, size, MemoryCategory.ACTIVATION, iteration),
            ("write", base + 2 * us, 10 + iteration, size, MemoryCategory.ACTIVATION, iteration),
            ("read", base + 3 * us, 10 + iteration, size, MemoryCategory.ACTIVATION, iteration),
            ("free", base + 4 * us, 10 + iteration, size, MemoryCategory.ACTIVATION, iteration),
        ]
        marks.append((base, base + 50 * us))
    return build_trace(events, iteration_marks=marks)


def test_detect_iterative_pattern_on_periodic_trace():
    report = detect_iterative_pattern(make_periodic_trace(), skip_warmup=1)
    assert report.is_iterative
    assert report.mean_sequence_similarity == pytest.approx(1.0)
    assert report.mean_jaccard_similarity == pytest.approx(1.0)
    assert report.summary()["num_iterations"] == 4


def test_detect_iterative_pattern_flags_divergence():
    report = detect_iterative_pattern(make_periodic_trace(perturb_last=True), skip_warmup=1)
    assert report.mean_sequence_similarity < 1.0


def test_iteration_signature_contents(simple_trace):
    signature = iteration_signature(simple_trace, 0)
    assert signature.iteration == 0
    assert signature.event_count == 7
    assert signature.total_bytes_touched > 0
    assert signature.multiset()[("read", 4096, "activation")] == 1


def test_pattern_detection_on_real_training_trace(small_mlp_session):
    report = detect_iterative_pattern(small_mlp_session.trace, skip_warmup=1)
    assert report.is_iterative
    assert report.mean_sequence_similarity > 0.95
