"""Tests for the swapping/recompute/compression baseline policies."""

import pytest

from repro.baselines import (
    estimate_pruning,
    estimate_quantization,
    estimate_recompute_plan,
)
from repro.core.events import MemoryCategory
from repro.swap.policies import (SWAP_POLICIES, SwapAdvisorPolicy,
                                 ZeroOffloadPolicy, get_policy)
from repro.units import MIB, s_to_ns

from tests.helpers import build_trace


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


def test_recompute_plan_discards_activation_bytes():
    trace = make_training_like_trace()
    plan = estimate_recompute_plan(trace, keep_every=2)
    assert plan.activation_bytes_total > 0
    assert 0 <= plan.activation_bytes_discarded <= plan.activation_bytes_total
    assert plan.estimated_peak_bytes_after <= plan.peak_bytes_before
    assert plan.recompute_time_overhead_ns >= 0
    assert plan.summary()["keep_every"] == 2
    with pytest.raises(ValueError):
        estimate_recompute_plan(trace, keep_every=0)


def test_recompute_keep_every_one_discards_nothing():
    trace = make_training_like_trace()
    plan = estimate_recompute_plan(trace, keep_every=1)
    assert plan.activation_bytes_discarded == 0
    assert plan.recompute_time_overhead_ns == 0


# -- recorded producer compute times (the recompute cost model) ------------------------


def test_per_block_compute_times_recovers_producer_spans():
    """A block's producer closes with its first post-malloc write; the span
    back to the previous event in the global stream is the compute time."""
    from repro.baselines.recompute import per_block_compute_times

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
    assert per_block_compute_times(trace) == {2: 15, 3: 30}


def test_per_block_compute_times_ignores_later_writes():
    """Only the *first* write after a malloc is the producer; in-place
    updates later in the lifetime must not overwrite the learned time."""
    from repro.baselines.recompute import per_block_compute_times

    trace = build_trace([
        ("malloc", 0, 1, 100),
        ("write", 10, 1, 100),     # producer: 10
        ("write", 500, 1, 100),    # in-place update: ignored
        ("free", 600, 1, 100),
    ])
    assert per_block_compute_times(trace) == {1: 10}


def test_recompute_overhead_sums_recorded_times_of_discarded_blocks():
    """The estimator charges exactly the recorded producer times of what it
    discards — not a fraction-of-iteration guess."""
    from repro.baselines.recompute import per_block_compute_times

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

    computed = per_block_compute_times(trace)
    assert computed == {10 + i: span for i, span in enumerate(spans)}

    plan = estimate_recompute_plan(trace, keep_every=2)
    # The expectation, the way the estimator defines it: the recorded
    # producer times of the discarded (odd-indexed by malloc order) steady
    # lifetimes, normalized by the steady iteration count.
    steady = sorted(
        (lt for lt in trace.lifetimes if lt.iteration >= 1),
        key=lambda item: item.malloc_ns)
    expected = sum(computed[lt.block_id]
                   for index, lt in enumerate(steady) if index % 2 != 0)
    expected //= len({lt.iteration for lt in steady})
    assert plan.recompute_time_overhead_ns == expected
    assert plan.recompute_time_overhead_ns > 0


def test_recompute_overhead_uses_recorded_times_on_training_trace():
    """The shared synthetic training trace carries write timing, so the
    estimator must charge the activation's recorded 10 µs producer — not
    the ~150 ms fraction-of-iteration guess the old model produced."""
    trace = make_training_like_trace()
    plan = estimate_recompute_plan(trace, keep_every=2)
    # one discarded steady activation lifetime, 10 µs producer span,
    # normalized over the two steady iterations
    assert plan.recompute_time_overhead_ns == 10_000 // 2
    assert plan.recompute_time_overhead_ns < 1_000_000   # not the legacy model


def test_pruning_barely_reduces_training_footprint():
    trace = make_training_like_trace()
    estimate = estimate_pruning(trace, sparsity=0.9)
    assert estimate.parameter_reduction_fraction == pytest.approx(0.9)
    # The paper's argument: pruning 90% of weights saves only a few percent of
    # the training footprint because intermediates dominate.
    assert estimate.total_reduction_fraction < 0.1
    with pytest.raises(ValueError):
        estimate_pruning(trace, sparsity=1.5)


def test_quantization_estimate():
    trace = make_training_like_trace()
    estimate = estimate_quantization(trace, bits=8)
    assert estimate.parameter_bytes_after == estimate.parameter_bytes_before // 4
    assert estimate.total_reduction_fraction < 0.1
    assert "8-bit" in estimate.technique
    with pytest.raises(ValueError):
        estimate_quantization(trace, bits=0)


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


def test_policy_summaries_match_underlying_estimators():
    trace = make_training_like_trace()
    advisor = get_policy("swap_advisor").evaluate(trace)
    assert advisor["savings_bytes"] == min(advisor["swapped_bytes"],
                                           trace.peak_live_bytes())

    recompute = get_policy("recompute").evaluate(trace)
    plan = estimate_recompute_plan(trace, keep_every=2)
    assert recompute["savings_bytes"] == plan.savings_bytes

    pruning = get_policy("pruning").evaluate(trace)
    estimate = estimate_pruning(trace, sparsity=0.9)
    assert pruning["savings_bytes"] == (estimate.peak_bytes_before
                                        - estimate.estimated_peak_bytes_after)
