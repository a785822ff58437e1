"""Tests for the occupation breakdown and the outlier analysis."""

import numpy as np
import pytest

from repro.core.ati import compute_interval_arrays
from repro.core.breakdown import BreakdownSeries, model_state_bytes, occupation_breakdown
from repro.core.events import MemoryCategory, PAPER_BUCKETS
from repro.core.outliers import find_outliers, pairwise_ati_size, top_swap_candidates
from repro.units import MIB, s_to_ns

from tests.helpers import build_trace, interval_arrays


def make_breakdown_trace():
    """Peak occupancy has 1 KiB input, 2 KiB parameters and 12 KiB activations."""
    us = 1_000
    return build_trace([
        ("malloc", 1 * us, 1, 2048, MemoryCategory.PARAMETER, -1),
        ("malloc", 2 * us, 2, 1024, MemoryCategory.INPUT, 0),
        ("malloc", 3 * us, 3, 8192, MemoryCategory.ACTIVATION, 0),
        ("malloc", 4 * us, 4, 4096, MemoryCategory.ACTIVATION_GRADIENT, 0),
        ("free", 5 * us, 4, 4096, MemoryCategory.ACTIVATION_GRADIENT, 0),
        ("free", 6 * us, 3, 8192, MemoryCategory.ACTIVATION, 0),
        ("free", 7 * us, 2, 1024, MemoryCategory.INPUT, 0),
    ], iteration_marks=[(0, 10 * us)])


def test_occupation_breakdown_at_peak():
    breakdown = occupation_breakdown(make_breakdown_trace(), label="toy")
    assert breakdown.total_bytes == 2048 + 1024 + 8192 + 4096
    assert breakdown.bucket_bytes["parameters"] == 2048
    assert breakdown.bucket_bytes["input data"] == 1024
    assert breakdown.bucket_bytes["intermediate results"] == 8192 + 4096
    assert breakdown.fraction("parameters") == pytest.approx(2048 / 15360)
    assert sum(breakdown.fractions().values()) == pytest.approx(1.0)
    assert breakdown.peak_time_ns == 4_000
    assert "toy" in breakdown.format_row()
    assert set(breakdown.to_dict()["bucket_fractions"]) == set(PAPER_BUCKETS)


def test_breakdown_category_peaks_tracked_independently():
    breakdown = occupation_breakdown(make_breakdown_trace())
    assert breakdown.category_peak_bytes["activation"] == 8192
    assert breakdown.category_peak_bytes["parameter"] == 2048


def test_breakdown_series_trends():
    series = BreakdownSeries(parameter_name="batch_size")
    for batch, activation_size in [(32, 8192), (64, 16384), (128, 32768)]:
        trace = build_trace([
            ("malloc", 1_000, 1, 4096, MemoryCategory.PARAMETER, 0),
            ("malloc", 2_000, 2, activation_size, MemoryCategory.ACTIVATION, 0),
        ])
        series.add(batch, occupation_breakdown(trace, label=f"batch{batch}"))
    assert series.is_monotonic_increasing("intermediate results")
    assert series.is_monotonic_decreasing("parameters")
    table = series.fractions_table()
    assert table[0]["batch_size"] == 32
    assert series.trend("parameters")[0] > series.trend("parameters")[-1]


def test_model_state_bytes(test_device):
    from repro.nn import SGD, Linear
    layer = Linear(test_device, 8, 8)
    optimizer = SGD(layer.parameters(), lr=0.1, momentum=0.9)
    state = model_state_bytes(layer, optimizer)
    assert state["parameters"] == layer.parameter_bytes()
    assert state["gradients"] == layer.parameter_bytes()
    assert state["optimizer_state"] == 0          # lazily allocated


def test_breakdown_on_real_session(small_mlp_session):
    breakdown = occupation_breakdown(small_mlp_session.trace, label="small-mlp")
    assert breakdown.fraction("intermediate results") > 0.5
    assert breakdown.fraction("parameters") < 0.5
    assert breakdown.total_bytes > 0


# -- outliers ---------------------------------------------------------------------------------


def tags_of(arrays):
    """A per-event tag list naming row ``i``'s closing access ``b<block_id>``."""
    return [f"b{block_id}" for block_id in arrays.block_id.tolist()]


def test_find_outliers_requires_both_thresholds():
    arrays = interval_arrays([
        (1, 700 * MIB, s_to_ns(1.0)),    # outlier: big and slow
        (2, 700 * MIB, 10_000),          # big but fast
        (3, 1 * MIB, s_to_ns(1.0)),      # slow but small
        (4, 4096, 5_000),                # neither
    ])
    report = find_outliers(arrays, tags_of(arrays))
    assert report.count == 1
    assert report.rows.tolist() == [0]
    assert report.tags == ["b1"]
    assert report.fraction == pytest.approx(0.25)
    assert report.largest == 0
    assert report.describe()[0].startswith("block 1 (b1): ATI ")
    assert report.to_dict()["count"] == 1
    (row,) = report.to_dict()["outliers"]
    assert (row["block_id"], row["size"], row["tag"], row["interval_ns"],
            row["start_kind"], row["end_kind"]) == (
        1, 700 * MIB, "b1", s_to_ns(1.0), "write", "read")


def test_outliers_rank_by_ati_times_size_and_fall_back_to_the_category():
    arrays = interval_arrays([
        (1, 700 * MIB, s_to_ns(1.0)),
        (2, 900 * MIB, s_to_ns(2.0)),    # the largest product
        (3, 700 * MIB, s_to_ns(1.0)),    # ties row 0: row order breaks it
    ])
    report = find_outliers(arrays, ["b1", "", "b3"])
    assert report.largest == 1
    assert [line.split(":")[0] for line in report.describe()] == [
        "block 2 (activation)", "block 1 (b1)", "block 3 (b3)"]


def test_find_outliers_custom_thresholds():
    arrays = interval_arrays([(1, 10 * MIB, 200_000_000)])
    default = find_outliers(arrays, tags_of(arrays))
    assert default.count == 0
    relaxed = find_outliers(arrays, tags_of(arrays), ati_threshold_ns=100_000_000,
                            size_threshold_bytes=5 * MIB)
    assert relaxed.count == 1


def test_outlier_report_empty():
    report = find_outliers(interval_arrays([]), [])
    assert report.count == 0
    assert report.largest is None
    assert report.fraction == 0.0
    assert report.describe() == []


def test_pairwise_series_preserves_order():
    rows = pairwise_ati_size(interval_arrays([(1, 100, 10), (2, 200, 20)]))
    assert rows[0]["behavior_index"] == 0
    assert rows[1]["size_bytes"] == 200
    assert rows[1]["ati_us"] == 0.02
    assert rows[1]["category"] == "activation"


def test_top_swap_candidates_ranked_by_product():
    arrays = interval_arrays([
        (1, 100 * MIB, 1_000_000),
        (2, 200 * MIB, 10_000_000),
        (3, 1024, 10_000_000_000),       # too small to be considered
    ])
    ranked = top_swap_candidates(arrays, top_k=2)
    assert ranked.tolist() == [1, 0]
    assert arrays.block_id[ranked].tolist() == [2, 1]


def test_outliers_present_in_paper_mlp_trace(paper_mlp_session):
    """Even at a reduced batch size the cross-iteration intervals are outliers in time."""
    trace = paper_mlp_session.trace
    arrays = compute_interval_arrays(trace)
    report = find_outliers(arrays, trace.event_strings()[0],
                           ati_threshold_ns=s_to_ns(0.1),
                           size_threshold_bytes=100 * MIB)
    assert report.count > 0
    assert np.all(arrays.size[report.rows] >= 100 * MIB)
