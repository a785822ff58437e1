"""Tests for the offline estimates of the swapping, recompute and compression policies."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.events import MemoryCategory
from repro.core.swap import BandwidthConfig
from repro.swap.policies import (SWAP_POLICIES, PruningPolicy, QuantizationPolicy,
                                 RecomputePolicy, SwapAdvisorPolicy,
                                 ZeroOffloadPolicy, get_policy)
from repro.units import MIB

from tests.helpers import (build_trace, policy_traces, reference_compression_summary,
                           reference_peak_parameter_bytes, reference_recompute_summary,
                           reference_swap_advisor_summary, reference_zero_offload_summary,
                           trace_lifetimes)


def make_training_like_trace():
    """Parameters + optimizer state + a large activation per iteration."""
    us = 1_000
    events = [
        ("malloc", 0, 1, 8 * MIB, MemoryCategory.PARAMETER, -1),
        ("malloc", 1 * us, 2, 8 * MIB, MemoryCategory.OPTIMIZER_STATE, -1),
        ("malloc", 2 * us, 3, 8 * MIB, MemoryCategory.PARAMETER_GRADIENT, -1),
    ]
    marks = []
    for iteration in range(3):
        base = (iteration + 1) * 1_000_000_000
        events += [
            ("malloc", base, 10, 512 * MIB, MemoryCategory.ACTIVATION, iteration),
            ("write", base + 10 * us, 10, 512 * MIB, MemoryCategory.ACTIVATION, iteration),
            ("read", base + 500_000_000, 10, 512 * MIB, MemoryCategory.ACTIVATION, iteration),
            ("free", base + 600_000_000, 10, 512 * MIB, MemoryCategory.ACTIVATION, iteration),
            ("read", base + 610_000_000, 1, 8 * MIB, MemoryCategory.PARAMETER, iteration),
            ("write", base + 620_000_000, 1, 8 * MIB, MemoryCategory.PARAMETER, iteration),
        ]
        marks.append((base, base + 900_000_000))
    return build_trace(events, iteration_marks=marks, end_ns=4_000_000_000)


def test_swap_advisor_style_selects_largest_blocks():
    trace = make_training_like_trace()
    policy = SwapAdvisorPolicy(top_k=1)
    assert policy.select(trace) == [(10, 512 * MIB)]
    result = policy.evaluate(trace)
    assert (result["num_blocks"], result["swapped_bytes"]) == (1, 512 * MIB)
    assert result["savings_bytes"] > 0
    assert result["name"] == "swap_advisor_style"


def test_swap_advisor_style_charges_overhead_when_interval_too_short():
    trace = make_training_like_trace()
    generous = SwapAdvisorPolicy(top_k=1).evaluate(trace)
    # The 512 MiB activation is idle ~0.5 s, which hides its ~0.16 s round trip.
    assert generous["overhead_ns"] == pytest.approx(0.0)


def test_zero_offload_style_offloads_optimizer_state_and_gradients():
    trace = make_training_like_trace()
    result = ZeroOffloadPolicy().evaluate(trace)
    assert result["swapped_bytes"] == 16 * MIB
    assert result["overhead_ns"] > 0
    assert result["savings_fraction"] < 0.1      # tiny compared to activations


def test_policies_handle_traces_without_candidates(simple_trace):
    result = SwapAdvisorPolicy().evaluate(simple_trace)
    assert result["swapped_bytes"] == 0
    assert result["savings_bytes"] == 0
    zero = ZeroOffloadPolicy().evaluate(simple_trace)
    assert zero["swapped_bytes"] == 0


def test_recompute_discards_activation_bytes():
    trace = make_training_like_trace()
    summary = get_policy("recompute").evaluate(trace)
    assert summary["activation_bytes_total"] > 0
    assert 0 <= summary["activation_bytes_discarded"] <= summary["activation_bytes_total"]
    assert summary["savings_bytes"] <= trace.peak_live_bytes()
    assert summary["recompute_time_overhead_ns"] >= 0
    assert summary["keep_every"] == 2
    with pytest.raises(ValueError, match="keep_every"):
        RecomputePolicy(keep_every=0).evaluate(trace)


def test_recompute_keep_every_one_discards_nothing():
    summary = RecomputePolicy(keep_every=1).evaluate(make_training_like_trace())
    assert summary["activation_bytes_discarded"] == 0
    assert summary["recompute_time_overhead_ns"] == 0


# -- recorded producer compute times (the recompute cost model) ------------------------


def test_per_block_compute_times_recovers_producer_spans():
    """A block's producer closes with its first post-malloc write; the span
    back to the previous event in the global stream is the compute time."""
    trace = build_trace([
        ("malloc", 0, 1, 100),
        ("malloc", 5, 2, 100),
        ("write", 20, 2, 100),     # producer of block 2: 20 - 5 = 15
        ("read", 30, 1, 100),      # block 1's first touch is a read: omitted
        ("malloc", 40, 3, 100),
        ("write", 70, 3, 100),     # producer of block 3: 70 - 40 = 30
        ("free", 90, 2, 100),
        ("free", 95, 3, 100),
        ("free", 100, 1, 100),
    ])
    assert RecomputePolicy.per_block_compute_times(trace) == {2: 15, 3: 30}


def test_per_block_compute_times_ignores_later_writes():
    """Only the *first* write after a malloc is the producer; in-place
    updates later in the lifetime must not overwrite the learned time."""
    trace = build_trace([
        ("malloc", 0, 1, 100),
        ("write", 10, 1, 100),     # producer: 10
        ("write", 500, 1, 100),    # in-place update: ignored
        ("free", 600, 1, 100),
    ])
    assert RecomputePolicy.per_block_compute_times(trace) == {1: 10}


def test_per_block_compute_times_keeps_a_remalloced_ids_positive_span():
    """The offline rule on a re-malloced block id: a positive span, then a
    zero span, keeps the positive one (the swap executor's online rule keeps
    the latest lifetime's span, zero included, so the two part here)."""
    trace = build_trace([
        ("malloc", 0, 1, 100),
        ("write", 10, 1, 100),     # first lifetime's producer: 10
        ("free", 20, 1, 100),
        ("malloc", 30, 1, 100),
        ("write", 30, 1, 100),     # second lifetime's producer: 0, not kept
        ("free", 40, 1, 100),
    ])
    assert RecomputePolicy.per_block_compute_times(trace) == {1: 10}


def test_recompute_overhead_sums_recorded_times_of_discarded_blocks():
    """The estimator charges exactly the recorded producer times of what it
    discards — not a fraction-of-iteration guess."""
    us = 1_000
    spans = [10 * us, 20 * us, 30 * us, 40 * us]
    events = []
    marks = []
    for iteration in range(2):
        base = (iteration + 1) * 1_000_000_000
        clock = base
        for index, span in enumerate(spans):
            block_id = 10 + index
            events.append(("malloc", clock, block_id, 64 * MIB,
                           MemoryCategory.ACTIVATION, iteration))
            events.append(("write", clock + span, block_id, 64 * MIB,
                           MemoryCategory.ACTIVATION, iteration))
            clock += span + 100 * us
        for index in range(len(spans)):
            events.append(("free", clock + index, 10 + index, 64 * MIB,
                           MemoryCategory.ACTIVATION, iteration))
        marks.append((base, base + 900_000_000))
    trace = build_trace(events, iteration_marks=marks, end_ns=3_000_000_000)

    computed = RecomputePolicy.per_block_compute_times(trace)
    assert computed == {10 + i: span for i, span in enumerate(spans)}

    summary = get_policy("recompute").evaluate(trace)
    # The expectation, the way the estimator defines it: the recorded
    # producer times of the discarded (odd-indexed by malloc order) steady
    # lifetimes, normalized by the steady iteration count.
    steady = sorted(
        (lt for lt in trace_lifetimes(trace) if lt.iteration >= 1),
        key=lambda item: item.malloc_ns)
    expected = sum(computed[lt.block_id]
                   for index, lt in enumerate(steady) if index % 2 != 0)
    expected //= len({lt.iteration for lt in steady})
    assert summary["recompute_time_overhead_ns"] == expected > 0
    assert summary["overhead_ns"] == float(expected)


def test_recompute_overhead_uses_recorded_times_on_training_trace():
    """The shared synthetic training trace carries write timing, so the
    estimator must charge the activation's recorded 10 µs producer — not
    the ~150 ms fraction-of-iteration guess the old model produced."""
    summary = get_policy("recompute").evaluate(make_training_like_trace())
    # one discarded steady activation lifetime, 10 µs producer span,
    # normalized over the two steady iterations
    assert summary["recompute_time_overhead_ns"] == 10_000 // 2
    assert summary["recompute_time_overhead_ns"] < 1_000_000   # not the legacy model


def test_pruning_barely_reduces_training_footprint():
    trace = make_training_like_trace()
    summary = get_policy("pruning").evaluate(trace)
    assert summary["parameter_reduction_fraction"] == pytest.approx(0.9)
    # The paper's argument: pruning 90% of weights saves only a few percent of
    # the training footprint because intermediates dominate.
    assert summary["total_reduction_fraction"] < 0.1
    for sparsity in (-0.1, 1.5):
        with pytest.raises(ValueError, match="sparsity"):
            PruningPolicy(sparsity=sparsity).evaluate(trace)


PARAMETER, ACTIVATION = MemoryCategory.PARAMETER, MemoryCategory.ACTIVATION


@given(st.lists(st.tuples(st.sampled_from(("malloc", "free", "read", "write")),
                          st.integers(1, 4),                  # block id
                          st.sampled_from((0, 64, 128)),      # few sizes: ties
                          st.sampled_from(list(MemoryCategory))),
                max_size=24))
@example([])
@example([("malloc", 1, 64, PARAMETER), ("free", 1, 64, PARAMETER),
          ("malloc", 2, 64, ACTIVATION)])                     # a tie at the peak
@example([("free", 1, 64, PARAMETER), ("malloc", 2, 64, PARAMETER)])
@settings(max_examples=200, deadline=None)
def test_peak_parameter_bytes_is_the_object_walk(events):
    """The column pass of pruning / quantization against the event walk it
    replaced: same bytes on any stream, the first of tied peaks included."""
    trace = build_trace([(kind, time, block, size, category, -1)
                         for time, (kind, block, size, category) in enumerate(events)])
    assert PruningPolicy.peak_parameter_bytes(trace) == reference_peak_parameter_bytes(trace)


def test_quantization_estimate():
    trace = make_training_like_trace()
    summary = get_policy("quantization").evaluate(trace)
    assert summary["parameter_reduction_fraction"] == pytest.approx(0.75)
    assert summary["total_reduction_fraction"] < 0.1
    assert "8-bit" in summary["technique"]
    for bits in (0, 33):
        with pytest.raises(ValueError, match="bits"):
            QuantizationPolicy(bits=bits).evaluate(trace)


# -- every offline estimate against the object walk it replaced -----------------------

_PAPER = BandwidthConfig.from_paper()

#: Each column-reading estimate's oracle (``tests/helpers.reference_*``).
ORACLES = {
    "swap_advisor": lambda trace: reference_swap_advisor_summary(trace, _PAPER),
    "zero_offload": lambda trace: reference_zero_offload_summary(trace, _PAPER),
    "recompute": reference_recompute_summary,
    "pruning": lambda trace: reference_compression_summary(trace, "pruning"),
    "quantization": lambda trace: reference_compression_summary(trace, "quantization"),
}


def _remalloced_ties():
    """Every tie the selections break in order, and the steady-state filter.

    A warm-up activation (block 4) the recompute estimate must skip; two
    steady activations malloc'ed at one instant with different producer
    spans (blocks 1, 2); six ids of one size, so SwapAdvisor's top five cut
    through a tie, and the first of them (block 1, malloc'ed again later)
    the only one whose idle interval hides part of its round trip.
    """
    parameter, gradient = MemoryCategory.PARAMETER, MemoryCategory.PARAMETER_GRADIENT
    events = [
        ("malloc", 0, 4, 48 * MIB, ACTIVATION, 0),
        ("write", 100_000, 4, 48 * MIB, ACTIVATION, 0),
        ("free", 200_000, 4, 48 * MIB, ACTIVATION, 0),
        ("malloc", 1_000_000, 1, 64 * MIB, ACTIVATION, 1),
        ("malloc", 1_000_000, 2, 64 * MIB, ACTIVATION, 1),
        ("write", 1_300_000, 2, 64 * MIB, ACTIVATION, 1),    # producer: 300 µs
        ("write", 1_500_000, 1, 64 * MIB, ACTIVATION, 1),    # producer: 200 µs
        ("malloc", 1_500_000, 3, 64 * MIB, MemoryCategory.OPTIMIZER_STATE, 1),
        ("malloc", 1_600_000, 5, 64 * MIB, parameter, 1),
        ("malloc", 1_700_000, 6, 64 * MIB, gradient, 1),
        ("malloc", 1_800_000, 7, 64 * MIB, parameter, 1),
        ("read", 1_850_000, 1, 64 * MIB, ACTIVATION, 1),
        ("free", 1_900_000, 1, 64 * MIB, ACTIVATION, 1),
        ("malloc", 1_900_000, 1, 32 * MIB, gradient, 1),
        ("read", 2_000_000, 2, 64 * MIB, ACTIVATION, 1),
    ]
    return build_trace(events, iteration_marks=[(0, 1_000_000), (1_000_000, 3_000_000)],
                       end_ns=3_000_000)


@given(policy_traces(), st.integers(1, 5))
@example(_remalloced_ties(), 5)
@settings(max_examples=200, deadline=None)
def test_every_offline_estimate_is_its_object_walk(trace, top_k):
    """Whole summaries — keys, key order, value types and values — on
    generated streams: re-malloced ids, tied sizes and malloc times,
    activations in iteration 0 only, merged two-rank traces.  SwapAdvisor
    also runs under a drawn ``top_k``, so its cut often falls inside a tie."""
    for name, oracle in ORACLES.items():
        summary, expected = get_policy(name).evaluate(trace, _PAPER), oracle(trace)
        assert json.dumps(summary) == json.dumps(expected), name
    assert (json.dumps(SwapAdvisorPolicy(top_k=top_k).evaluate(trace, _PAPER))
            == json.dumps(reference_swap_advisor_summary(trace, _PAPER, top_k=top_k)))


# -- the policy registry --------------------------------------------------------------


def test_policy_registry_names_and_lookup():
    names = SWAP_POLICIES
    assert names[0] == "none"
    assert {"planner", "swap_advisor", "zero_offload", "recompute", "pruning",
            "quantization"} <= set(names)
    for name in names:
        assert get_policy(name).name == name
    with pytest.raises(ValueError, match="unknown swap policy"):
        get_policy("teleport")


def test_none_policy_evaluates_to_none():
    assert get_policy("none").evaluate(make_training_like_trace()) is None


def test_every_policy_summary_is_normalized():
    trace = make_training_like_trace()
    for name in SWAP_POLICIES:
        summary = get_policy(name).evaluate(trace)
        if name == "none":
            continue
        assert summary["policy"] == name
        assert summary["savings_bytes"] >= 0
        assert 0.0 <= summary["savings_fraction"] <= 1.0
        assert summary["overhead_ns"] >= 0.0


def test_policy_summaries_state_their_savings_consistently():
    trace = make_training_like_trace()
    peak = trace.peak_live_bytes()
    advisor = get_policy("swap_advisor").evaluate(trace)
    assert advisor["savings_bytes"] == min(advisor["swapped_bytes"], peak)

    recompute = get_policy("recompute").evaluate(trace)
    assert recompute["savings_bytes"] == min(recompute["activation_bytes_discarded"], peak)

    for name in ("pruning", "quantization"):
        compressed = get_policy(name).evaluate(trace)
        assert compressed["savings_bytes"] == (compressed["peak_bytes_before"]
                                               - compressed["peak_bytes_after"])
        assert compressed["savings_fraction"] == compressed["total_reduction_fraction"]
