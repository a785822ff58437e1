"""Tests for the access-time-interval analysis and distribution statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ati import compute_interval_arrays, summarize_values_us
from repro.core.stats import (
    empirical_cdf,
    gaussian_kde_trace,
    violin_stats,
)
from repro.core.trace import (CATEGORY_FROM_CODE, KIND_FROM_CODE, MemoryTrace,
                              merge_rank_traces, stable_block_order)
from repro.errors import EmptyTraceError

from tests.helpers import assert_grouping_equals_stable_sort, build_trace


def test_ati_computed_per_block(simple_trace):
    arrays = compute_interval_arrays(simple_trace)
    by_block = {}
    for block_id, interval_us in zip(arrays.block_id.tolist(), arrays.interval_us.tolist()):
        by_block.setdefault(block_id, []).append(interval_us)
    # Block 2: write@3us -> read@10us => one interval of 7us.
    assert by_block[2] == [7.0]
    # Block 1: write@1us -> read@12us -> read@112us => 11us and 100us.
    assert by_block[1] == [11.0, 100.0]
    # Block 3: write@101 -> read@110 => 9us.
    assert by_block[3] == [9.0]


def test_ati_include_lifecycle_adds_malloc_free_pairs(simple_trace):
    access_only = compute_interval_arrays(simple_trace)
    with_lifecycle = compute_interval_arrays(simple_trace, include_lifecycle=True)
    assert len(with_lifecycle) > len(access_only)


def test_ati_empty_trace_raises():
    with pytest.raises(EmptyTraceError):
        compute_interval_arrays(MemoryTrace())


def test_ati_summary_percentiles(simple_trace):
    summary = summarize_values_us(compute_interval_arrays(simple_trace).interval_us)
    assert summary.count == 4
    assert summary.min_us == 7.0
    assert summary.max_us == 100.0
    assert summary.p50_us <= summary.p90_us <= summary.p99_us <= summary.max_us
    assert set(summary.to_dict()) == {"count", "mean_us", "p50_us", "p90_us", "p99_us",
                                      "min_us", "max_us"}


def test_ati_summary_of_empty_set_is_zero():
    summary = summarize_values_us(np.array([]))
    assert summary.count == 0
    assert summary.max_us == 0.0


def test_fraction_below_threshold(simple_trace):
    """Fig. 3's "fraction below" is the CDF's count at or below, over n."""
    cdf = empirical_cdf(compute_interval_arrays(simple_trace).interval_us)
    assert cdf.fraction_below(12.0) == pytest.approx(3 / 4)
    assert cdf.fraction_below(11.0) == pytest.approx(3 / 4)   # at the threshold counts
    assert cdf.fraction_below(1e9) == 1.0
    assert empirical_cdf([]).fraction_below(10) == 0.0


def test_grouping_by_kind_and_category(simple_trace):
    arrays = compute_interval_arrays(simple_trace)
    kinds = {KIND_FROM_CODE[code].value for code in arrays.end_kind_code.tolist()}
    assert kinds <= {"read", "write"}
    categories = {CATEGORY_FROM_CODE[code].value for code in arrays.category_code.tolist()}
    assert "parameter" in categories
    assert "activation" in categories
    assert arrays.interval_us.shape == (4,)


# -- distribution statistics ---------------------------------------------------------------


def test_empirical_cdf_properties():
    cdf = empirical_cdf([3.0, 1.0, 2.0, 2.0])
    assert list(cdf.values) == [1.0, 2.0, 2.0, 3.0]
    assert cdf.probabilities[-1] == pytest.approx(1.0)
    assert cdf.fraction_below(2.0) == pytest.approx(0.75)
    empty = empirical_cdf([])
    assert empty.fraction_below(1.0) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1,
                max_size=200))
def test_cdf_is_monotone_and_bounded(samples):
    cdf = empirical_cdf(samples)
    assert np.all(np.diff(cdf.values) >= 0)
    assert np.all(np.diff(cdf.probabilities) >= 0)
    assert cdf.probabilities[0] > 0
    assert cdf.probabilities[-1] == pytest.approx(1.0)


def test_violin_stats_quartiles():
    stats = violin_stats(np.arange(1, 101, dtype=float), label="reads")
    assert stats.label == "reads"
    assert stats.count == 100
    assert stats.q1 == pytest.approx(25.75)
    assert stats.median == pytest.approx(50.5)
    assert stats.q3 == pytest.approx(75.25)
    assert stats.iqr == pytest.approx(49.5)
    assert stats.density_x.size > 0
    assert stats.to_dict()["max"] == 100.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-1_000, 10**9), min_size=1, max_size=200))
def test_violin_stats_are_np_percentile_bit_for_bit(sevenths):
    """One sort serves the quartiles and the whiskers; the oracle selects."""
    array = np.array(sevenths, dtype=np.float64) / 7.0
    stats = violin_stats(array)
    expected = [array.min(), np.percentile(array, 25), np.percentile(array, 50),
                np.percentile(array, 75), array.max()]
    got = [stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum]
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_violin_stats_empty_and_degenerate():
    empty = violin_stats([], label="empty")
    assert empty.count == 0
    constant = violin_stats([5.0, 5.0, 5.0], label="const")
    assert constant.median == 5.0


def test_gaussian_kde_integrates_to_about_one():
    samples = np.random.default_rng(0).normal(10, 2, size=500)
    x, density = gaussian_kde_trace(samples, num_points=200)
    integral = np.trapezoid(density, x)
    assert integral == pytest.approx(1.0, rel=0.1)


# -- grouping sorts: the unique-key argsort is the stable argsort ---------------------

_ID_COLUMNS = st.one_of(
    # few ids, long runs of ties; negative segment pseudo-ids among them
    st.lists(st.integers(-4, 6), max_size=300),
    # the whole admitted range, ids of a rank-shifted merged trace included
    st.lists(st.integers(-2**31 + 1, 2**31 - 1), max_size=60),
    st.lists(st.sampled_from([-2**31 + 1, -1, 0, 1, 2**31 - 1]), max_size=60),
)


@settings(max_examples=200, deadline=None)
@given(_ID_COLUMNS)
def test_unique_key_argsort_equals_stable_argsort(ids):
    block_ids = np.array(ids, dtype=np.int64)
    order = stable_block_order(block_ids)
    assert order.tolist() == np.argsort(block_ids, kind="stable").tolist()


def test_unique_key_argsort_states_its_bound():
    with pytest.raises(AssertionError):
        stable_block_order(np.array([1, 2**31], dtype=np.int64))
    with pytest.raises(AssertionError):
        stable_block_order(np.array([-2**31, 1], dtype=np.int64))


_KINDS = ("malloc", "free", "read", "write", "segment_alloc", "swap_out", "swap_in")


@st.composite
def _event_streams(draw, max_events=80):
    """Any stream at all — id reuse, double frees, accesses outside lifetimes,
    negative segment pseudo-ids, equal timestamps — not only a valid one."""
    rows = draw(st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 3),
                                   st.integers(1, 6)), min_size=1, max_size=max_events))
    clock, specs = 0, []
    for kind, step, block in rows:
        clock += step
        specs.append((kind, clock, -block if kind == "segment_alloc" else block,
                      512 * block))
    return build_trace(specs)


@settings(max_examples=150, deadline=None)
@given(_event_streams())
def test_drawn_streams_group_as_under_the_stable_sort(trace):
    assert_grouping_equals_stable_sort(trace)


@settings(max_examples=60, deadline=None)
@given(st.lists(_event_streams(max_events=40), min_size=2, max_size=3))
def test_merged_rank_shifted_ids_group_as_under_the_stable_sort(rank_traces):
    merged = merge_rank_traces(rank_traces)
    block_ids = merged.columns().block_id
    assert (stable_block_order(block_ids).tolist()
            == np.argsort(block_ids, kind="stable").tolist())
    assert_grouping_equals_stable_sort(merged)
