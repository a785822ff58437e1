"""Randomized property tests for the unified keep/swap/recompute planner.

The :class:`~repro.swap.policies.UnifiedPolicy` makes one decision
per candidate block — keep it, swap it over the link, or drop it and replay
its producer — from warm-up observations.  These tests draw random synthetic
observation sets (sizes, idle windows, categories, learned producer times,
footprint profiles) and pin the planner's invariants on every draw:

* every observed candidate gets exactly one decision, and the mechanism
  counters in the prediction agree with the decision list;
* **recompute is only chosen when its modeled cost is at or below the
  effective swap cost** (the Eq.-1 round trip, or unbounded when the copy
  stream cannot absorb the transfer);
* with recomputation disabled the plan degenerates to the pure Eq.-1
  planner's selection under the same copy-stream budget;
* the unified predicted savings **dominate both single-mechanism plans**
  (the pure-swap planner twin and the pure-recompute twin) on the same
  profile;
* with a capacity bound, the planned peak fits the capacity at every
  sampled instant of the footprint profile — or every keepable block has
  already been flipped to swap (the runtime pressure governor owns the
  rest);
* triggers round-trip into the right directives (recompute drops vs
  prefetch-scheduled swaps).

No hypothesis dependency: draws come from seeded ``numpy`` generators so
failures reproduce exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.events import MemoryCategory
from repro.core.swap import BandwidthConfig, swap_round_trip_ns
from repro.swap.executor import BlockState, WarmupObservations
from repro.swap.policies import PlannerPolicy, UnifiedPolicy
from repro.units import MIB

BANDWIDTHS = BandwidthConfig.from_paper()
ITERATION_NS = 1_000_000_000
PEAK_PHASE_NS = ITERATION_NS // 2
MIN_CANDIDATE = 32 * MIB

CATEGORIES = (MemoryCategory.ACTIVATION, MemoryCategory.PARAMETER,
              MemoryCategory.OPTIMIZER_STATE, MemoryCategory.PARAMETER_GRADIENT)


def draw_warmup(rng):
    """One random but internally consistent warm-up observation set."""
    n_blocks = int(rng.integers(3, 12))
    blocks = []
    for block_id in range(n_blocks):
        # Mostly candidate-sized blocks, with some below the size floor.
        if rng.random() < 0.2:
            size = int(rng.integers(1, MIN_CANDIDATE // MIB)) * MIB
        else:
            size = int(rng.integers(32, 257)) * MIB
        category = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
        crosses = bool(rng.random() < 0.15)
        gap_ns = int(rng.integers(5_000_000, 800_000_000))
        if rng.random() < 0.75:
            # A window that covers the peak instant (with the safety margin).
            start = int(rng.integers(0, PEAK_PHASE_NS + 1))
            gap_ns = max(gap_ns, PEAK_PHASE_NS - start
                         + ITERATION_NS // 50 + 1_000_000)
        else:
            start = int(rng.integers(PEAK_PHASE_NS + 1, ITERATION_NS))
        compute_ns = None
        if category is MemoryCategory.ACTIVATION and rng.random() < 0.8:
            # Sometimes cheaper than the transfer, sometimes far dearer.
            compute_ns = int(rng.choice([100_000, 1_000_000, 2_000_000_000]))
        blocks.append(BlockState(
            block_id=block_id, size=size, category=category,
            tag=f"block{block_id}", best_gap_ns=gap_ns,
            best_gap_ordinal=int(rng.integers(1, 5)),
            best_gap_phase_ns=start, best_gap_crosses=crosses,
            compute_ns=compute_ns))
    peak = sum(state.size for state in blocks) + 256 * MIB
    # A secondary peak (e.g. the optimizer step) no idle window covers.
    secondary = int(peak * rng.uniform(0.3, 1.0))
    live_series = [(0, 256 * MIB), (PEAK_PHASE_NS, peak),
                   (9 * ITERATION_NS // 10, secondary)]
    return WarmupObservations(
        blocks=blocks, by_id={state.block_id: state for state in blocks},
        peak_resident_bytes=peak, peak_phase_ns=PEAK_PHASE_NS,
        iteration_duration_ns=ITERATION_NS, live_series=live_series)


def plan(policy, warmup):
    policy.plan(warmup, BANDWIDTHS)
    return policy.predicted


def draws(n=25, seed=0):
    rng = np.random.default_rng(seed)
    return [draw_warmup(rng) for _ in range(n)]


# -- decision-shape invariants ---------------------------------------------------------


def test_every_candidate_gets_exactly_one_decision():
    for warmup in draws():
        predicted = plan(UnifiedPolicy(), warmup)
        decisions = predicted["decisions"]
        assert len(decisions) == predicted["num_candidates"]
        assert len({d["block_id"] for d in decisions}) == len(decisions)
        counted = {"swap": 0, "recompute": 0, "keep": 0}
        for decision in decisions:
            counted[decision["mechanism"]] += 1
        assert counted["swap"] == predicted["num_swapped"]
        assert counted["recompute"] == predicted["num_recomputed"]
        assert counted["keep"] == predicted["num_kept"]
        assert (predicted["num_selected"]
                == counted["swap"] + counted["recompute"])


def test_small_blocks_are_never_candidates():
    for warmup in draws(seed=1):
        predicted = plan(UnifiedPolicy(), warmup)
        decided = {d["block_id"] for d in predicted["decisions"]}
        for state in warmup.blocks:
            if state.size < MIN_CANDIDATE:
                assert state.block_id not in decided


def test_recompute_only_chosen_when_modeled_cost_is_cheaper():
    """The tentpole decision rule: replay never beats a cheaper transfer."""
    for warmup in draws(seed=2):
        predicted = plan(UnifiedPolicy(), warmup)
        for decision in predicted["decisions"]:
            if decision["mechanism"] == "recompute":
                assert decision["recompute_cost_ns"] is not None
                assert (decision["recompute_cost_ns"]
                        <= decision["effective_swap_cost_ns"])
            elif decision["mechanism"] == "swap":
                assert math.isfinite(decision["effective_swap_cost_ns"])
                if decision["recompute_cost_ns"] is not None:
                    assert (decision["recompute_cost_ns"]
                            > decision["effective_swap_cost_ns"])


def test_boundary_crossing_windows_never_recompute():
    """A block dropped at an iteration boundary has no producer inputs left
    to replay in the next iteration — it must swap or keep."""
    for warmup in draws(seed=3):
        predicted = plan(UnifiedPolicy(), warmup)
        crossing = {state.block_id for state in warmup.blocks
                    if state.best_gap_crosses}
        for decision in predicted["decisions"]:
            if decision["block_id"] in crossing:
                assert decision["mechanism"] != "recompute"
                assert decision["recompute_cost_ns"] is None


def test_non_activations_never_recompute():
    for warmup in draws(seed=4):
        predicted = plan(UnifiedPolicy(), warmup)
        for decision in predicted["decisions"]:
            state = warmup.by_id[decision["block_id"]]
            if state.category is not MemoryCategory.ACTIVATION:
                assert decision["mechanism"] != "recompute"


# -- degeneration to the single-mechanism twins ----------------------------------------


def test_disable_recompute_degenerates_to_pure_planner():
    for warmup in draws(seed=5):
        unified = UnifiedPolicy(enable_recompute=False)
        unified_predicted = plan(unified, warmup)
        planner = PlannerPolicy(min_candidate_bytes=MIN_CANDIDATE)
        planner_predicted = plan(planner, warmup)
        swapped = {d["block_id"] for d in unified_predicted["decisions"]
                   if d["mechanism"] == "swap"}
        assert len(swapped) == planner_predicted["num_selected"]
        assert unified_predicted["num_recomputed"] == 0
        assert (unified_predicted["savings_bytes"]
                == planner_predicted["savings_bytes"])
        # the shared copy-stream budget holds when no replay frees it up
        budget = 0.8 * ITERATION_NS
        assert unified_predicted["copy_round_trip_ns"] <= budget + 1e-6


def test_disable_swap_yields_recompute_only_plan():
    for warmup in draws(seed=6):
        predicted = plan(UnifiedPolicy(enable_swap=False), warmup)
        assert predicted["num_swapped"] == 0
        assert predicted["copy_round_trip_ns"] == 0
        for decision in predicted["decisions"]:
            assert decision["mechanism"] in ("recompute", "keep")
            if decision["recompute_cost_ns"] is not None:
                assert decision["mechanism"] == "recompute"


# -- dominance over both single-mechanism plans ----------------------------------------


def test_unified_savings_dominate_pure_swap_plan():
    for warmup in draws(n=40, seed=7):
        unified = plan(UnifiedPolicy(), warmup)
        planner = plan(PlannerPolicy(min_candidate_bytes=MIN_CANDIDATE),
                       warmup)
        assert unified["savings_bytes"] >= planner["savings_bytes"]


def test_unified_savings_dominate_pure_recompute_plan():
    for warmup in draws(n=40, seed=8):
        unified = plan(UnifiedPolicy(), warmup)
        recompute_only = plan(UnifiedPolicy(enable_swap=False), warmup)
        assert unified["savings_bytes"] >= recompute_only["savings_bytes"]


def test_predicted_summary_is_well_formed():
    for warmup in draws(seed=9):
        predicted = plan(UnifiedPolicy(), warmup)
        assert predicted["peak_bytes_after"] >= 0
        assert 0.0 <= predicted["savings_fraction"] <= 1.0
        assert predicted["total_overhead_ns"] >= 0
        assert predicted["recompute_overhead_ns"] >= 0
        assert (predicted["peak_bytes_before"] - predicted["peak_bytes_after"]
                == predicted["savings_bytes"])


# -- capacity-bounded planning ---------------------------------------------------------


def predicted_peak_at_instant(phase, live, decisions, warmup):
    """Replay the planner's own absence rule at one profile instant."""
    margin = ITERATION_NS // 50
    absent = 0
    for decision in decisions:
        if decision["mechanism"] == "keep":
            continue
        state = warmup.by_id[decision["block_id"]]
        start = state.best_gap_phase_ns
        end = start + state.best_gap_ns
        if (start <= phase < end - margin) or (phase < end - ITERATION_NS - margin):
            absent += state.size
    return live - absent


def test_capacity_plan_fits_at_every_sampled_instant_or_flips_everything():
    for index, warmup in enumerate(draws(n=40, seed=10)):
        capacity = int(warmup.peak_resident_bytes
                       * np.random.default_rng(index).uniform(0.4, 0.95))
        policy = UnifiedPolicy(capacity_bytes=capacity)
        predicted = plan(policy, warmup)
        assert predicted["capacity_bytes"] == capacity
        if predicted["num_kept"] > 0:
            assert predicted["peak_bytes_after"] <= capacity
            for phase, live in warmup.live_series:
                assert (predicted_peak_at_instant(
                    phase, live, predicted["decisions"], warmup) <= capacity)
        # num_kept == 0 means every candidate was flipped — the remainder is
        # the runtime pressure governor's job, not the planner's.


def test_capacity_flips_charge_stall_overhead():
    """A forced flip of a keep (whose window cannot hide the transfer for
    free) must surface in the predicted overhead, not be silent.

    Two parameter blocks whose idle windows are far shorter than their
    Eq.-1 round trips: the unbounded plan keeps both, a capacity below the
    peak flips them to swap and must charge the uncovered transfer time.
    """
    blocks = [
        BlockState(block_id=i, size=128 * MIB,
                   category=MemoryCategory.PARAMETER, tag=f"weight{i}",
                   best_gap_ns=10_000_000, best_gap_ordinal=1,
                   best_gap_phase_ns=PEAK_PHASE_NS - 1_000_000,
                   best_gap_crosses=False)
        for i in range(2)
    ]
    # Long enough windows to cover the peak, still far below the round trip.
    for state in blocks:
        state.best_gap_ns = ITERATION_NS // 50 + 10_000_000
    peak = sum(state.size for state in blocks) + 64 * MIB
    warmup = WarmupObservations(
        blocks=blocks, by_id={state.block_id: state for state in blocks},
        peak_resident_bytes=peak, peak_phase_ns=PEAK_PHASE_NS,
        iteration_duration_ns=ITERATION_NS,
        live_series=[(PEAK_PHASE_NS, peak)])
    round_trip = swap_round_trip_ns(128 * MIB, BANDWIDTHS)
    assert round_trip > blocks[0].best_gap_ns    # Eq.-1 infeasible by design

    loose = plan(UnifiedPolicy(), warmup)
    assert loose["num_kept"] == 2 and loose["num_swapped"] == 0
    assert loose["total_overhead_ns"] == 0

    capacity = peak - 100 * MIB
    tight = plan(UnifiedPolicy(capacity_bytes=capacity), warmup)
    assert tight["num_swapped"] > 0
    assert tight["peak_bytes_after"] <= capacity or tight["num_kept"] == 0
    assert tight["total_overhead_ns"] > 0


def test_uncapped_plan_reports_no_capacity():
    for warmup in draws(n=5, seed=12):
        predicted = plan(UnifiedPolicy(), warmup)
        assert predicted["capacity_bytes"] is None


# -- trigger / directive round trip ----------------------------------------------------


def test_recompute_decisions_fire_recompute_directives():
    for warmup in draws(seed=13):
        policy = UnifiedPolicy()
        predicted = plan(policy, warmup)
        for decision in predicted["decisions"]:
            state = warmup.by_id[decision["block_id"]]
            if state.best_gap_crosses:
                continue
            state.iter_access_count = state.best_gap_ordinal
            directive = policy.directive_after_access(state)
            if decision["mechanism"] == "keep":
                assert directive is None
            elif decision["mechanism"] == "recompute":
                assert directive is not None and directive.recompute
            else:
                assert directive is not None and not directive.recompute
                assert directive.prefetch_gap_ns == state.best_gap_ns


def test_boundary_decisions_fire_at_iteration_end():
    for warmup in draws(seed=14):
        policy = UnifiedPolicy()
        predicted = plan(policy, warmup)
        selected_crossing = {
            d["block_id"] for d in predicted["decisions"]
            if d["mechanism"] != "keep"
            and warmup.by_id[d["block_id"]].best_gap_crosses}
        directives = policy.directives_at_iteration_end(warmup.blocks)
        assert {d.block_id for d in directives} == selected_crossing
        for directive in directives:
            assert not directive.recompute   # crossing windows never replay


def test_planning_is_deterministic():
    for warmup in draws(n=5, seed=15):
        first = plan(UnifiedPolicy(), warmup)
        second = plan(UnifiedPolicy(), warmup)
        assert first == second


def test_empty_observation_set_plans_nothing():
    warmup = WarmupObservations(blocks=[], by_id={}, peak_resident_bytes=0,
                                peak_phase_ns=None, iteration_duration_ns=0,
                                live_series=[])
    policy = UnifiedPolicy()
    predicted = plan(policy, warmup)
    assert predicted["num_selected"] == 0
    assert predicted["savings_bytes"] == 0
    assert predicted["decisions"] == []
    assert policy.directives_at_iteration_end([]) == []
