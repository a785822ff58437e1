"""Tests for the closed-loop swap-execution engine (repro.swap).

Covers, per the subsystem's contract:

* trace/schema plumbing — the new ``swap_out``/``swap_in`` event kinds are
  recorded, serialized, merged across ranks and **ignored** by the paper's
  block-behavior analyses (ATI pairing, occupation breakdown);
* residency accounting — every eviction is balanced, the resident series
  never exceeds the live series, and the measured peak reduction is the gap
  between the two;
* the predicted-vs-simulated regression — the paper-MLP trace (where Eq. 1
  correctly finds nothing worth swapping at zero overhead) and a deep MLP
  (where the planner hides gigabytes behind compute) must both agree with
  the executed plan within the stated tolerances;
* the unified keep/swap/recompute policy — ``recompute_drop``/``recompute``
  event plumbing, the per-block cheaper-mechanism decisions, the learned
  producer compute times against the offline estimator, and the dominance
  of the unified measured savings over both single-mechanism plans;
* eager/symbolic equivalence for a swapped scenario and multi-rank
  (DeviceGroup) execution;
* the session/sweep/CLI wiring (``config.swap``, the ``swaps`` axis, the
  ``swap_execution`` result payload).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from repro.core.ati import compute_interval_arrays
from repro.core.breakdown import occupation_breakdown
from repro.core.events import MemoryCategory, MemoryEventKind
from repro.core.trace import MemoryTrace, merge_rank_traces
from repro.device.hooks import CountingListener
from repro.errors import ConfigurationError
from repro.experiments.configs import paper_mlp_config
from repro.experiments.sweep import SweepGrid, run_scenario
from repro.swap import (
    POLICIES,
    SWAP_EXECUTION_MODES,
    SWAP_POLICIES,
    SwapExecutor,
    get_policy,
)
from repro.train.session import TrainingRunConfig, run_training_session

from tests.helpers import build_trace, recompute_events, swap_events
from tests.test_symbolic_equivalence import event_stream, lifetime_stream


DEEP_MLP = dict(
    model="mlp", dataset="two_cluster", batch_size=2048, iterations=7,
    execution_mode="symbolic",
    model_kwargs={"hidden_dim": 8192, "num_hidden_layers": 6},
)

SMALL_SWAPPED = dict(
    model="mlp", dataset="two_cluster", batch_size=512, iterations=5,
    swap="zero_offload",
)


def run_swapped(swap="planner", **overrides):
    config = TrainingRunConfig(**{**DEEP_MLP, **overrides, "swap": swap})
    return run_training_session(config)


@lru_cache(maxsize=None)
def deep_result(swap):
    """One deep-MLP session per swap mode, shared across this module's tests."""
    return run_swapped(swap)


def run_manual_policy(policy, **overrides):
    """Run the deep-MLP config with an explicit policy instance attached.

    Mirrors ``run_training_session``'s wiring (same optimizer, loader and
    trainer) but lets the test hand the executor a configured policy object
    — e.g. the pure-recompute twin ``UnifiedPolicy(enable_swap=False)``
    that the session-level registry cannot express.
    """
    from repro.core.profiler import MemoryProfiler
    from repro.data.datasets import build_dataset
    from repro.data.loader import DataLoader
    from repro.models.registry import build_model
    from repro.nn.loss import CrossEntropyLoss
    from repro.nn.optim import SGD
    from repro.train.session import build_device_group
    from repro.train.trainer import DataParallelTrainer

    config = TrainingRunConfig(**{**DEEP_MLP, **overrides})
    group = build_device_group(config)
    device = group.primary
    executor = SwapExecutor(device, policy,
                            capacity_bytes=config.device_memory_capacity)
    device.attach_swap_executor(executor)
    profiler = MemoryProfiler(device)
    profiler.start()
    model = build_model(config.model, device,
                        rng=np.random.default_rng(config.seed),
                        **dict(config.model_kwargs))
    loader = DataLoader(build_dataset(config.dataset, seed=config.seed),
                        batch_size=config.batch_size,
                        host_latency=config.host_latency)
    trainer = DataParallelTrainer(
        group, [model], loader,
        [SGD(model.parameters(), lr=config.learning_rate,
             momentum=config.momentum)],
        [CrossEntropyLoss(device, name="loss")],
        recorders=[profiler], swap_executors=[executor])
    trainer.train(config.iterations)
    executor.finalize()
    profiler.stop()
    return profiler.trace(), executor.summary()


@lru_cache(maxsize=None)
def pure_recompute_result():
    """The deep MLP under rematerialization only (no transfers allowed)."""
    from repro.swap.policies import UnifiedPolicy
    return run_manual_policy(UnifiedPolicy(enable_swap=False))


# -- registry / wiring -----------------------------------------------------------------


def test_policy_registry():
    """One registry: both axes derive from it, in the order they always had."""
    assert SWAP_POLICIES == ("none", "planner", "swap_advisor", "zero_offload",
                             "recompute", "pruning", "quantization")
    assert SWAP_EXECUTION_MODES == ("off", "planner", "swap_advisor",
                                    "zero_offload", "lru", "unified")
    assert set(POLICIES) == set(SWAP_POLICIES) | set(SWAP_EXECUTION_MODES) - {"off"}
    assert len(POLICIES) == 9
    for name in POLICIES:
        assert get_policy(name).name == name
    with pytest.raises(ValueError, match="unknown swap policy 'nope'.*quantization"):
        get_policy("nope")
    # Analysis-only entries are not executable, reactive ones have no estimate.
    from repro.device.device import Device
    for name in ("none", "recompute", "pruning", "quantization"):
        assert not POLICIES[name].executable
        with pytest.raises(ValueError, match="analysis-only"):
            SwapExecutor(Device(), name)
    for name in ("lru", "unified"):
        assert not POLICIES[name].offline
        with pytest.raises(ValueError, match="no offline estimate"):
            get_policy(name).evaluate(None)
    # A run's replica count and capacity reach the two policies that plan on them.
    assert POLICIES["zero_offload"].for_run(4, None).world_size == 4
    assert POLICIES["unified"].for_run(1, 123).capacity_bytes == 123
    assert POLICIES["planner"].for_run(4, 123).name == "planner"


def test_unknown_swap_mode_rejected_by_session():
    config = TrainingRunConfig(**{**SMALL_SWAPPED, "swap": "bogus"})
    with pytest.raises(ConfigurationError, match="unknown swap mode"):
        run_training_session(config)


def test_only_one_executor_per_device():
    from repro.device.device import Device
    device = Device()
    device.attach_swap_executor(SwapExecutor(device, "lru"))
    with pytest.raises(ConfigurationError):
        device.attach_swap_executor(SwapExecutor(device, "lru"))


def test_counting_listener_counts_swap_events():
    listener = CountingListener()
    listener.on_swap_out(None, 10, "planner")
    listener.on_swap_in(None, 10, "prefetch")
    assert listener.swap_outs == 1
    assert listener.swap_ins == 1


# -- trace plumbing --------------------------------------------------------------------


def swap_trace():
    """A tiny hand-built trace with one swapped idle interval."""
    return build_trace([
        ("malloc", 0, 1, 100),
        ("write", 10, 1, 100),
        ("swap_out", 20, 1, 100),
        ("swap_in", 80, 1, 100),
        ("read", 90, 1, 100),
        ("free", 100, 1, 100),
    ])


def test_swap_kinds_serialize_and_round_trip():
    trace = swap_trace()
    rebuilt = MemoryTrace.from_dict(trace.to_dict())
    assert [e.kind for e in swap_events(rebuilt)] == [
        MemoryEventKind.SWAP_OUT, MemoryEventKind.SWAP_IN]
    

def test_swap_kinds_csv_round_trip(tmp_path):
    import csv

    path = swap_trace().export_events_csv(tmp_path / "events.csv")
    with open(path, newline="") as handle:
        kinds = [row["kind"] for row in csv.DictReader(handle)]
    assert kinds == ["malloc", "write", "swap_out", "swap_in", "read", "free"]


def test_ati_and_breakdown_ignore_swap_traffic():
    """Swap events are runtime actions, not the paper's block behaviors."""
    with_swaps = swap_trace()
    without = build_trace([
        ("malloc", 0, 1, 100),
        ("write", 10, 1, 100),
        ("read", 90, 1, 100),
        ("free", 100, 1, 100),
    ])
    a = compute_interval_arrays(with_swaps)
    b = compute_interval_arrays(without)
    assert a.interval_ns.tolist() == b.interval_ns.tolist() == [80]
    assert (occupation_breakdown(with_swaps).bucket_bytes
            == occupation_breakdown(without).bucket_bytes)
    assert with_swaps.peak_live_bytes() == without.peak_live_bytes() == 100


def test_resident_series_dips_while_swapped_out():
    trace = swap_trace()
    timestamps, resident = trace.resident_bytes_series()
    assert list(zip(timestamps.tolist(), resident.tolist())) == [
        (0, 100), (20, 0), (80, 100), (100, 0)]
    assert trace.peak_resident_bytes() == 100
    # the allocation view is untouched by swapping
    assert trace.peak_live_bytes() == 100


def test_resident_deltas_balance_on_discard():
    trace = build_trace([
        ("malloc", 0, 1, 64),
        ("write", 5, 1, 64),
        ("swap_out", 10, 1, 64),
        ("swap_in", 20, 1, 64),   # the engine's pre-free "discard"
        ("free", 20, 1, 64),
    ])
    _, resident = trace.resident_bytes_series()
    assert resident.tolist()[-1] == 0
    assert int(resident.min()) >= 0


# -- executor semantics on real sessions ----------------------------------------------


def test_zero_offload_emits_balanced_swap_events():
    result = run_training_session(TrainingRunConfig(**SMALL_SWAPPED))
    trace = result.trace
    outs = [e for e in trace.events if e.kind is MemoryEventKind.SWAP_OUT]
    ins = [e for e in trace.events if e.kind is MemoryEventKind.SWAP_IN]
    assert outs and len(outs) == len(ins)
    # only optimizer state / gradients are offloaded
    assert {e.category for e in outs} <= {MemoryCategory.OPTIMIZER_STATE,
                                          MemoryCategory.PARAMETER_GRADIENT}
    # residency accounting balances over the run and never goes negative
    _, resident = trace.resident_bytes_series()
    assert int(resident.min()) >= 0
    assert trace.peak_resident_bytes() <= trace.peak_live_bytes()
    summary = result.swap_execution
    assert summary["policy"] == "zero_offload"
    assert summary["swap_out_count"] == len(outs)
    assert summary["demand_fetches"] > 0
    assert summary["measured_savings_bytes"] >= 0


def test_swap_events_carry_policy_and_restore_op():
    result = run_training_session(TrainingRunConfig(**SMALL_SWAPPED))
    ops_out = {e.op for e in result.trace.events
               if e.kind is MemoryEventKind.SWAP_OUT}
    ops_in = {e.op for e in result.trace.events
              if e.kind is MemoryEventKind.SWAP_IN}
    assert ops_out == {"zero_offload"}
    assert ops_in <= {"demand", "prefetch", "discard", "shutdown"}
    assert "demand" in ops_in


def test_lru_keeps_resident_peak_near_budget():
    config = TrainingRunConfig(model="mlp", dataset="two_cluster",
                               batch_size=2048, iterations=6,
                               execution_mode="symbolic",
                               model_kwargs={"hidden_dim": 4096,
                                             "num_hidden_layers": 4},
                               swap="lru")
    result = run_training_session(config)
    summary = result.swap_execution
    assert summary["swap_out_count"] > 0
    assert summary["demand_fetches"] > 0
    # the reactive pager costs stall time but reduces the steady peak
    assert summary["measured_savings_bytes"] > 0
    assert summary["stall_ns_total"] > 0
    # the budget (default: 70% of the warm-up peak) is actually enforced —
    # pressure is checked on every residency increase (mallocs AND demand
    # fetches), so the resident peak can overshoot by at most one in-flight
    # block, not by the whole demand burst of an optimizer step
    budget = 0.7 * summary["warmup_peak_bytes"]
    largest_block = 4096 * 4096 * 4    # one hidden-layer weight/grad buffer
    assert summary["peak_resident_bytes"] <= budget + 2 * largest_block


def test_lru_explicit_budget_is_respected():
    """A tighter explicit budget yields a lower resident peak + more stall."""
    from repro.core.profiler import MemoryProfiler
    from repro.data.datasets import build_dataset
    from repro.data.loader import DataLoader
    from repro.models.registry import build_model
    from repro.nn.loss import CrossEntropyLoss
    from repro.nn.optim import SGD
    from repro.swap.policies import LruPolicy
    from repro.train.session import build_device_group
    from repro.train.trainer import Trainer

    def run_with_budget(budget_bytes):
        config = TrainingRunConfig(
            model="mlp", dataset="two_cluster", batch_size=2048, iterations=6,
            execution_mode="symbolic",
            model_kwargs={"hidden_dim": 4096, "num_hidden_layers": 4})
        device = build_device_group(config).primary
        executor = SwapExecutor(
            device, LruPolicy(budget_bytes=budget_bytes))
        device.attach_swap_executor(executor)
        profiler = MemoryProfiler(device)
        profiler.start()
        model = build_model(config.model, device,
                            rng=np.random.default_rng(0),
                            **dict(config.model_kwargs))
        loader = DataLoader(build_dataset(config.dataset, seed=0),
                            batch_size=config.batch_size)
        trainer = Trainer(model, loader,
                          SGD(model.parameters(), lr=0.01, momentum=0.9),
                          CrossEntropyLoss(device, name="loss"), device,
                          recorder=executor)
        trainer.train(config.iterations)
        executor.finalize()
        profiler.stop()
        return executor.summary()

    largest_block = 4096 * 4096 * 4
    tight = run_with_budget(300_000_000)
    loose = run_with_budget(500_000_000)
    assert tight.peak_resident_bytes <= 300_000_000 + 2 * largest_block
    assert loose.peak_resident_bytes <= 500_000_000 + 2 * largest_block
    assert tight.peak_resident_bytes < loose.peak_resident_bytes
    assert tight.stall_ns_total > loose.stall_ns_total


def test_swap_stalls_lengthen_iterations():
    """Stalls are real simulated time: swapped steps are never shorter."""
    base = TrainingRunConfig(**{**SMALL_SWAPPED, "swap": "off"})
    swapped = TrainingRunConfig(**SMALL_SWAPPED)
    t_off = run_training_session(base).iteration_stats
    t_on = run_training_session(swapped).iteration_stats
    total_off = sum(s.duration_ns for s in t_off)
    total_on = sum(s.duration_ns for s in t_on)
    assert total_on >= total_off


# -- predicted vs simulated (the cost-model-accuracy regression) -----------------------


#: Stated tolerance: measured and predicted peak reduction agree within 5% of
#: the workload's live peak (docs/swapping.md documents the methodology).
SAVINGS_TOLERANCE_FRACTION = 0.05


def test_paper_mlp_planner_predicts_and_measures_nothing():
    """On the paper MLP trace Eq. 1 finds no zero-overhead swap — and the
    executed engine agrees exactly: no swaps, no stalls, no reduction."""
    config = paper_mlp_config(batch_size=4096, iterations=5)
    config.swap = "planner"
    result = run_training_session(config)
    summary = result.swap_execution
    assert summary["swap_out_count"] == 0
    assert summary["stall_ns_total"] == 0
    assert summary["measured_savings_bytes"] == 0
    assert summary["predicted"]["savings_bytes"] == 0
    assert summary["predicted"]["total_overhead_ns"] == 0
    assert not swap_events(result.trace)


def test_deep_mlp_planner_predicted_vs_simulated():
    """Where the planner does act, prediction and execution must agree."""
    result = deep_result("planner")
    summary = result.swap_execution
    predicted = summary["predicted"]
    assert summary["swap_out_count"] > 0
    assert summary["prefetch_hits"] > 0
    assert predicted["savings_bytes"] > 0
    assert summary["measured_savings_bytes"] > 0
    # peak reduction: measured vs predicted within the stated tolerance
    gap = abs(summary["measured_savings_bytes"] - predicted["savings_bytes"])
    assert gap <= SAVINGS_TOLERANCE_FRACTION * summary["peak_live_bytes"]
    # overhead: the plan promises zero (Eq.-1-feasible candidates only); the
    # steady-state iterations must be within 2% of the unswapped step time
    # (the two transition iterations may stall while the plan settles).
    steps = result.iteration_stats
    unswapped = steps[1].duration_ns     # warm-up steady step
    steady = steps[-1].duration_ns
    assert steady <= 1.02 * unswapped


def test_deep_mlp_trace_reports_measured_reduction():
    """The acceptance-criterion shape: swap events in the trace plus
    measured-vs-predicted numbers in the session payload."""
    result = deep_result("planner")
    trace = result.trace
    kinds = {e.kind for e in swap_events(trace)}
    assert kinds == {MemoryEventKind.SWAP_OUT, MemoryEventKind.SWAP_IN}
    # the trace itself exposes the measured reduction: the resident peak of
    # the steady phase sits below the allocation peak
    assert trace.peak_resident_bytes() <= trace.peak_live_bytes()
    summary = result.swap_execution
    for key in ("measured_savings_bytes", "stall_ns_per_iteration",
                "predicted"):
        assert key in summary


# -- the unified keep/swap/recompute policy -------------------------------------------


def recompute_trace():
    """A tiny hand-built trace with one rematerialized idle interval."""
    return build_trace([
        ("malloc", 0, 1, 100),
        ("write", 10, 1, 100),
        ("recompute_drop", 20, 1, 100),
        ("recompute", 80, 1, 100),
        ("read", 90, 1, 100),
        ("free", 100, 1, 100),
    ])


def test_recompute_kinds_serialize_and_round_trip():
    trace = recompute_trace()
    rebuilt = MemoryTrace.from_dict(trace.to_dict())
    assert [e.kind for e in recompute_events(rebuilt)] == [
        MemoryEventKind.RECOMPUTE_DROP, MemoryEventKind.RECOMPUTE]
    assert not recompute_events(swap_trace())


def test_recompute_kinds_csv_round_trip(tmp_path):
    import csv

    path = recompute_trace().export_events_csv(tmp_path / "events.csv")
    with open(path, newline="") as handle:
        kinds = [row["kind"] for row in csv.DictReader(handle)]
    assert kinds == ["malloc", "write", "recompute_drop", "recompute",
                     "read", "free"]


def test_resident_series_dips_while_dropped():
    trace = recompute_trace()
    timestamps, resident = trace.resident_bytes_series()
    assert list(zip(timestamps.tolist(), resident.tolist())) == [
        (0, 100), (20, 0), (80, 100), (100, 0)]
    # allocation semantics are untouched by rematerialization
    assert trace.peak_live_bytes() == 100


def test_ati_and_breakdown_ignore_recompute_traffic():
    with_drops = recompute_trace()
    without = build_trace([
        ("malloc", 0, 1, 100),
        ("write", 10, 1, 100),
        ("read", 90, 1, 100),
        ("free", 100, 1, 100),
    ])
    a = compute_interval_arrays(with_drops)
    b = compute_interval_arrays(without)
    assert a.interval_ns.tolist() == b.interval_ns.tolist()
    assert (occupation_breakdown(with_drops).bucket_bytes
            == occupation_breakdown(without).bucket_bytes)


def test_counting_listener_counts_recompute_events():
    listener = CountingListener()
    listener.on_recompute_drop(None, 10, "unified")
    listener.on_recompute(None, 10, "demand")
    assert listener.recompute_drops == 1
    assert listener.recomputes == 1


def test_unified_policy_accepts_planning_kwargs():
    policy = POLICIES["unified"](capacity_bytes=123, enable_recompute=False)
    assert policy.name == "unified"
    assert policy.capacity_bytes == 123
    assert policy.enable_swap and not policy.enable_recompute


def test_unified_emits_balanced_recompute_events():
    trace = deep_result("unified").trace
    drops = [e for e in trace.events
             if e.kind is MemoryEventKind.RECOMPUTE_DROP]
    recomputes = [e for e in trace.events
                  if e.kind is MemoryEventKind.RECOMPUTE]
    assert drops and len(drops) == len(recomputes)
    # only forward activations are rematerializable by producer replay
    assert {e.category for e in drops} == {MemoryCategory.ACTIVATION}
    assert {e.op for e in recomputes} <= {"demand", "discard", "shutdown"}
    _, resident = trace.resident_bytes_series()
    assert int(resident.min()) >= 0


def test_unified_summary_accounts_recompute_time():
    summary = deep_result("unified").swap_execution
    assert summary["policy"] == "unified"
    assert summary["recompute_drop_count"] == summary["recompute_count"] > 0
    assert summary["bytes_recompute_dropped"] > 0
    assert summary["recompute_ns_total"] > 0
    assert summary["recompute_ns_per_iteration"] > 0
    # rematerialization rides the compute clock, not the copy stream
    assert summary["bytes_recomputed"] == 0 or summary["bytes_recomputed"] > 0


def test_unified_decisions_record_cheaper_mechanism():
    predicted = deep_result("unified").swap_execution["predicted"]
    decisions = predicted["decisions"]
    assert decisions
    by_mechanism = {"swap": 0, "recompute": 0, "keep": 0}
    for decision in decisions:
        by_mechanism[decision["mechanism"]] += 1
        if decision["mechanism"] == "recompute":
            assert (decision["recompute_cost_ns"]
                    <= decision["effective_swap_cost_ns"])
        elif decision["mechanism"] == "swap":
            assert math.isfinite(decision["effective_swap_cost_ns"])
    assert by_mechanism["swap"] == predicted["num_swapped"] > 0
    assert by_mechanism["recompute"] == predicted["num_recomputed"] > 0
    assert by_mechanism["keep"] == predicted["num_kept"]
    assert (predicted["num_swapped"] + predicted["num_recomputed"]
            == predicted["num_selected"])


def test_unified_measured_savings_dominate_pure_swap():
    unified = deep_result("unified").swap_execution
    planner = deep_result("planner").swap_execution
    assert (unified["measured_savings_bytes"]
            >= planner["measured_savings_bytes"] > 0)


def test_unified_measured_savings_dominate_pure_recompute():
    unified = deep_result("unified").swap_execution
    _, recompute_only = pure_recompute_result()
    assert recompute_only.recompute_drop_count > 0
    assert (unified["measured_savings_bytes"]
            >= recompute_only.measured_savings_bytes > 0)


def test_unified_predicted_vs_measured_within_tolerance():
    """The acceptance bar: unified prediction within 5% of the live peak."""
    summary = deep_result("unified").swap_execution
    predicted = summary["predicted"]
    assert predicted["savings_bytes"] > 0
    gap = abs(summary["measured_savings_bytes"] - predicted["savings_bytes"])
    assert gap <= SAVINGS_TOLERANCE_FRACTION * summary["peak_live_bytes"]


def test_unified_stalls_no_worse_than_pure_swap():
    """Replacing transfers with replay relieves the copy stream: on the same
    profile the unified plan never stalls longer than the pure planner."""
    unified = deep_result("unified").swap_execution
    planner = deep_result("planner").swap_execution
    assert unified["stall_ns_total"] <= planner["stall_ns_total"]


def test_unified_learned_compute_costs_match_offline_twin():
    """The executor's warm-up learning rule and the offline estimator
    (per_block_compute_times on an undistorted trace) agree exactly."""
    from repro.baselines.recompute import per_block_compute_times

    clean = deep_result("off").trace
    offline = per_block_compute_times(clean)
    by_tag = {}
    for lifetime in clean.lifetimes:
        if lifetime.block_id in offline:
            by_tag[lifetime.tag] = offline[lifetime.block_id]
    decisions = deep_result("unified").swap_execution["predicted"]["decisions"]
    learned = [d for d in decisions if d["recompute_cost_ns"] is not None]
    assert learned
    for decision in learned:
        assert decision["tag"] in by_tag
        assert decision["recompute_cost_ns"] == by_tag[decision["tag"]]


def test_unified_predicted_recompute_overhead_bounds_measured():
    """The predicted overhead (every selected producer replayed once per
    iteration) is an upper bound: a dropped block freed before its next use
    is discarded without ever paying its replay cost."""
    summary = deep_result("unified").swap_execution
    predicted_per_iter = summary["predicted"]["recompute_overhead_ns"]
    assert predicted_per_iter > 0
    assert 0 < summary["recompute_ns_per_iteration"] <= predicted_per_iter


def test_unified_sweep_row_reports_recompute_columns():
    grid = SweepGrid(models=("mlp",), batch_sizes=(512,), iterations=(5,),
                     swaps=("unified",))
    result = run_scenario(grid.expand()[0])
    assert result.scenario["swap"] == "unified"
    assert result.scenario["device_memory_capacity"] is None
    row = result.row()
    assert row["recompute_ms"] >= 0
    assert row["pressure_stall_ms"] == 0
    assert row["peak_resident_mib"] >= 0


# -- eager/symbolic equivalence and multi-rank ----------------------------------------


EQUIVALENCE_CONFIG = dict(
    model="mlp", dataset="two_cluster", batch_size=512, iterations=5,
    swap="zero_offload",
)


def test_swapped_run_eager_symbolic_equivalence():
    eager = run_training_session(
        TrainingRunConfig(**EQUIVALENCE_CONFIG, execution_mode="eager"))
    symbolic = run_training_session(
        TrainingRunConfig(**EQUIVALENCE_CONFIG, execution_mode="symbolic"))
    assert event_stream(eager.trace) == event_stream(symbolic.trace)
    assert lifetime_stream(eager.trace) == lifetime_stream(symbolic.trace)
    assert eager.swap_execution == symbolic.swap_execution


def test_multi_rank_swapped_run_merges_and_slices():
    config = TrainingRunConfig(**{**SMALL_SWAPPED, "n_devices": 2})
    result = run_training_session(config)
    trace = result.trace
    swap_ranks = {e.device_rank for e in swap_events(trace)}
    assert swap_ranks == {0, 1}
    # replicas are symmetric: each rank slice carries half the swap traffic
    per_rank = [len(swap_events(trace.for_rank(rank))) for rank in (0, 1)]
    assert per_rank[0] == per_rank[1] > 0
    assert sum(per_rank) == len(swap_events(trace))
    # and a manual re-merge of the rank traces is consistent
    remerged = merge_rank_traces(result.rank_traces)
    assert len(swap_events(remerged)) == len(swap_events(trace))
    assert result.swap_execution["n_ranks"] == 2


def test_merge_rank_traces_offsets_swap_block_ids():
    rank0 = swap_trace()
    rank1 = swap_trace()
    merged = merge_rank_traces([rank0, rank1])
    outs = [e for e in merged.events if e.kind is MemoryEventKind.SWAP_OUT]
    assert len(outs) == 2
    assert outs[0].block_id != outs[1].block_id
    _, resident = merged.resident_bytes_series()
    assert int(resident.min()) >= 0
    assert resident.tolist()[-1] == 0


# -- sweep / scenario integration ------------------------------------------------------


def test_sweep_grid_swaps_axis_expands_and_validates():
    grid = SweepGrid(models=("mlp",), swaps=("off", "planner"))
    scenarios = grid.expand()
    assert grid.size() == len(scenarios) == 2
    assert {s.config.swap for s in scenarios} == {"off", "planner"}
    keys = {s.key() for s in scenarios}
    assert len(keys) == 2  # swap mode is part of the cache identity
    with pytest.raises(ValueError, match="unknown swap execution mode"):
        SweepGrid(swaps=("bogus",)).expand()


def test_run_scenario_carries_swap_execution():
    grid = SweepGrid(models=("mlp",), batch_sizes=(512,), iterations=(5,),
                     swaps=("zero_offload",))
    scenario = grid.expand()[0]
    result = run_scenario(scenario)
    assert result.scenario["swap"] == "zero_offload"
    assert result.swap_execution is not None
    assert result.swap_execution["policy"] == "zero_offload"
    row = result.row()
    assert "swap_stall_ms" in row
    assert "swap_measured_mib" in row
    assert "swap_predicted_mib" in row
    # serialization round-trips through the cache schema
    from repro.experiments.sweep import ScenarioResult
    rebuilt = ScenarioResult.from_dict(result.to_dict())
    assert rebuilt.swap_execution == result.swap_execution
    # cache entries are dumped without sort_keys: the key order is entry bytes
    assert list(result.swap_execution) == [
        "policy", "active_iterations", "swap_out_count", "swap_in_count",
        "prefetches_scheduled", "prefetch_hits", "late_prefetches",
        "demand_fetches", "discards", "shutdown_restores", "bytes_swapped_out",
        "bytes_swapped_in", "stall_ns_total", "stall_ns_per_iteration",
        "copy_busy_ns", "peak_resident_bytes", "peak_live_bytes",
        "warmup_peak_bytes", "measured_savings_bytes",
        "measured_savings_fraction", "recompute_drop_count", "recompute_count",
        "bytes_recompute_dropped", "bytes_recomputed", "recompute_ns_total",
        "recompute_ns_per_iteration", "pressure_evictions", "pressure_stall_ns",
        "capacity_bytes", "predicted", "n_ranks"]
