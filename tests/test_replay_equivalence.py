"""Replay-equivalence suite: template replay is bit-identical to fresh runs.

The whole value of :mod:`repro.experiments.replay` rests on one claim: a
scenario priced from a compiled :class:`TraceTemplate` produces the *exact*
:class:`~repro.experiments.sweep.ScenarioResult` a fresh symbolic simulation
would — every timestamp, every reduction, every serialized field except the
wall-clock time.  These tests pin that claim across the pricing axes the
replay engine exists to sweep (device specs, dispatch overheads,
interconnects, allreduce algorithms) and across the structural axes it must
compile separately (models, replica counts, dtypes, allocators, policies).
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.cli import main
from repro.core.swap import BandwidthConfig
from repro.data.loader import HostLatencyModel
from repro.device.spec import titan_x_pascal
from repro.device.tape import TAPE_ALLREDUCE, TAPE_KERNEL
from repro.experiments.configs import PAPER_MLP_HOST_LATENCY, paper_mlp_config
from repro.experiments.grid import structure_token
from repro.experiments.replay import (
    ReplayEngine,
    TemplateError,
    TemplateFamily,
    _TAPE_COLUMNS,
    load_family,
    save_family,
    template_key,
)
from repro.experiments.results import evaluate_policy, reduce_trace
from repro.experiments.sweep import Scenario, SweepGrid, SweepRunner, run_scenario
from repro.experiments.template_store import TemplateStore
from repro.swap.policies import SWAP_POLICIES
from repro.train.session import TrainingRunConfig, build_cluster, run_training_session

from tests.helpers import price_one, replay_one, trace_lifetimes


def make_scenario(swap_policy="none", **overrides):
    settings = dict(model="mlp", model_kwargs={"hidden_dim": 32},
                    dataset="two_cluster", batch_size=16, iterations=2,
                    seed=3)
    settings.update(overrides)
    return Scenario(config=TrainingRunConfig(**settings), swap_policy=swap_policy)


def comparable(result):
    """A result's serialized form minus the only legitimately varying field."""
    data = result.to_dict()
    data.pop("wall_time_s")
    return data


def assert_replay_exact(engine, scenario):
    fresh = run_scenario(scenario)
    replayed = price_one(engine, scenario)
    assert replayed is not None, f"engine declined {scenario.describe()}"
    assert comparable(replayed) == comparable(fresh)


# -- the equivalence matrix -----------------------------------------------------------

CONV = dict(model="alexnet", model_kwargs={"input_size": 32, "num_classes": 10},
            dataset="cifar10", batch_size=4)

EXACTNESS_CASES = [
    # label, scenario overrides
    ("mlp-baseline", {}),
    ("mlp-fp16", {"dtype": "float16"}),
    ("mlp-bump", {"allocator": "bump"}),
    ("mlp-best-fit", {"allocator": "best_fit"}),
    ("mlp-adam", {"optimizer": "adam", "iterations": 3}),
    ("mlp-2dev", {"n_devices": 2}),
    ("mlp-4dev", {"n_devices": 4, "batch_size": 32}),
    ("alexnet", dict(CONV)),
    ("alexnet-2dev", dict(CONV, n_devices=2)),
    ("alexnet-v100", dict(CONV, device_spec="v100_sxm2_16gb")),
    ("mlp-dispatch", {"host_dispatch_overhead_ns": 9_000}),
    ("mlp-2dev-nvlink", {"n_devices": 2, "interconnect": "nvlink2"}),
    ("mlp-2dev-ethernet", {"n_devices": 2, "interconnect": "ethernet_25g"}),
    ("mlp-2dev-naive", {"n_devices": 2, "allreduce_algorithm": "naive"}),
]


@pytest.mark.parametrize("label,overrides",
                         EXACTNESS_CASES, ids=[c[0] for c in EXACTNESS_CASES])
def test_replayed_result_is_bit_identical_to_fresh_symbolic(label, overrides):
    engine = ReplayEngine()
    assert_replay_exact(engine, make_scenario(**overrides))


@pytest.mark.parametrize("policy", ["planner", "swap_advisor", "recompute",
                                    "quantization"])
def test_replay_is_exact_under_every_swap_policy(policy):
    engine = ReplayEngine()
    assert_replay_exact(engine, make_scenario(swap_policy=policy, **CONV))


def test_zero_offload_policy_replays_exactly_on_a_cluster():
    engine = ReplayEngine()
    assert_replay_exact(engine,
                        make_scenario(swap_policy="zero_offload", n_devices=2))


# -- compile once, price many ---------------------------------------------------------


def test_one_template_prices_every_pricing_point():
    """Cross-pricing: a single compile serves all pure-timing variations."""
    engine = ReplayEngine()
    pricing_points = [
        {},
        {"device_spec": "v100_sxm2_16gb"},
        {"device_spec": "ampere_a100_40gb"},
        {"host_dispatch_overhead_ns": 2_000},
        {"device_spec": "gtx_1080_8gb", "host_dispatch_overhead_ns": 12_000},
    ]
    for overrides in pricing_points:
        assert_replay_exact(engine, make_scenario(**overrides))
    assert engine.templates_compiled == 1
    assert engine.replayed == len(pricing_points)


def test_replayed_trace_matches_fresh_trace_event_for_event():
    """Below the result level: the rebuilt trace itself is identical."""
    assert_replayed_trace_is_the_fresh_one(store_dir=None)


def test_stored_template_rebuilds_the_fresh_trace_event_for_event(tmp_path):
    """... also when the template went through the ``.npz`` file (save -> load)."""
    assert_replayed_trace_is_the_fresh_one(store_dir=tmp_path)


def assert_replayed_trace_is_the_fresh_one(store_dir):
    config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 32},
                               batch_size=16, iterations=2, n_devices=2,
                               device_spec="v100_sxm2_16gb", seed=3)
    compile_point = TrainingRunConfig(
        **{**config.__dict__, "device_spec": "titan_x_pascal"})
    engine = ReplayEngine(store=TemplateStore(store_dir) if store_dir else None)
    template = engine.template_for(compile_point)
    if store_dir:
        template = TemplateStore(store_dir).load(template.key).template
    assert_same_trace(template.replay_trace(config),
                      run_training_session(config).trace)


def assert_same_trace(replayed, fresh):
    """``replayed`` is the trace ``fresh`` is, event for event — and a valid one."""
    replayed.validate()
    fresh_cols, replay_cols = fresh.columns(), replayed.columns()
    # Block and segment ids are numbered from 1 per placement: raw ids agree.
    for name in ("event_id", "kind_code", "timestamp_ns", "block_id", "size",
                 "category_code", "iteration", "device_rank", "address"):
        np.testing.assert_array_equal(getattr(replay_cols, name),
                                      getattr(fresh_cols, name), err_msg=name)
    assert replayed.event_strings() == fresh.event_strings()
    assert ([mark.to_dict() for mark in replayed.iteration_marks]
            == [mark.to_dict() for mark in fresh.iteration_marks])

    def lifetime_stream(trace):
        return [(lt.block_id, lt.address, lt.size, lt.category, lt.tag, lt.malloc_ns,
                 lt.free_ns, lt.iteration, lt.access_count, lt.device_rank)
                for lt in trace_lifetimes(trace)]

    assert lifetime_stream(replayed) == lifetime_stream(fresh)
    assert replayed.metadata == fresh.metadata
    assert replayed.end_ns == fresh.end_ns


# -- sweep integration ----------------------------------------------------------------


def replay_grid(**overrides):
    settings = dict(models=("mlp",), model_kwargs={"hidden_dim": 32},
                    batch_sizes=(16,), iterations=(2,),
                    device_specs=("titan_x_pascal", "v100_sxm2_16gb"),
                    host_dispatch_overheads_ns=(None, 9_000),
                    execution_mode="replay")
    settings.update(overrides)
    return SweepGrid(**settings)


def test_sweep_replay_mode_matches_symbolic_row_for_row():
    symbolic = SweepRunner().run(replay_grid(execution_mode="symbolic"))
    replayed = SweepRunner().run(replay_grid())
    assert len(replayed.results) == len(symbolic.results) == 4
    assert replayed.replayed == 4
    assert replayed.templates_compiled == 1
    for fresh, via_replay in zip(symbolic.results, replayed.results):
        assert comparable(via_replay) == comparable(fresh)


def test_sweep_replay_smoke():
    """CI smoke: compile one template, replay a mini-grid, diff vs symbolic."""
    grid = replay_grid(host_dispatch_overheads_ns=(None,))
    symbolic = SweepRunner().run(replay_grid(execution_mode="symbolic",
                                             host_dispatch_overheads_ns=(None,)))
    replayed = SweepRunner().run(grid)
    assert replayed.templates_compiled == 1 and replayed.replayed == 2
    for fresh, via_replay in zip(symbolic.results, replayed.results):
        assert comparable(via_replay) == comparable(fresh)


def test_replay_results_share_the_symbolic_cache(tmp_path):
    """Replay writes ordinary schema-v6 entries a symbolic run can hit."""
    grid = replay_grid(host_dispatch_overheads_ns=(None,))
    first = SweepRunner(cache_dir=tmp_path).run(grid)
    assert first.cache_hits == 0 and first.replayed == 2
    rerun = SweepRunner(cache_dir=tmp_path).run(
        replay_grid(execution_mode="symbolic", host_dispatch_overheads_ns=(None,)))
    assert rerun.cache_hits == len(rerun.results) == 2
    assert (tmp_path / "templates").is_dir()


def test_swap_execution_scenarios_fall_back_to_simulation():
    """The engine declines swap-on scenarios; the sweep still completes."""
    grid = replay_grid(host_dispatch_overheads_ns=(None,),
                       device_specs=("titan_x_pascal",),
                       swaps=("off", "lru"))
    result = SweepRunner().run(grid)
    assert len(result.results) == 2
    assert result.replayed == 1  # only the swap-off scenario replayed
    modes = {row.scenario["swap"] for row in result.results}
    assert modes == {"off", "lru"}


# -- template validity and persistence ------------------------------------------------


def test_template_key_is_pricing_invariant():
    base = make_scenario().config
    assert template_key(base) == template_key(
        TrainingRunConfig(**{**base.__dict__, "device_spec": "v100_sxm2_16gb",
                             "host_dispatch_overhead_ns": 4_000,
                             "interconnect": "nvlink2", "label": "renamed"}))
    assert template_key(base) != template_key(
        TrainingRunConfig(**{**base.__dict__, "batch_size": 32}))
    assert template_key(base) != template_key(
        TrainingRunConfig(**{**base.__dict__, "allocator": "bump"}))


def test_template_key_rejects_swap_execution():
    config = TrainingRunConfig(model="mlp", swap="lru")
    with pytest.raises(TemplateError):
        template_key(config)


def test_template_key_rejects_unified_swap_execution():
    """The unified keep/swap/recompute engine mutates timing closed-loop, so
    a template can never serve it — it must refuse, not mis-price."""
    with pytest.raises(TemplateError):
        template_key(TrainingRunConfig(model="mlp", swap="unified"))
    assert ReplayEngine().template_for(TrainingRunConfig(model="mlp",
                                              swap="unified")) is None


def test_unified_swap_scenarios_fall_back_to_simulation():
    """A replay sweep with ``--swap unified`` rows silently simulates them."""
    grid = replay_grid(host_dispatch_overheads_ns=(None,),
                       device_specs=("titan_x_pascal",),
                       swaps=("off", "unified"))
    result = SweepRunner().run(grid)
    assert len(result.results) == 2
    assert result.replayed == 1  # only the swap-off scenario replayed
    modes = {row.scenario["swap"] for row in result.results}
    assert modes == {"off", "unified"}
    unified_row = next(row for row in result.results
                       if row.scenario["swap"] == "unified")
    assert unified_row.swap_execution["policy"] == "unified"


def test_compile_declines_out_of_envelope_configs():
    assert ReplayEngine().template_for(TrainingRunConfig(model="mlp",
                                              swap="lru")) is None


def test_best_fit_template_is_not_served_across_capacities():
    config = make_scenario(allocator="best_fit").config
    engine = ReplayEngine()
    template = engine.template_for(config)
    assert template.valid_for(config)
    other_capacity = TrainingRunConfig(
        **{**config.__dict__, "device_memory_capacity": 1 << 34})
    assert not template.valid_for(other_capacity)


def test_template_round_trips_through_npz(tmp_path):
    scenario = make_scenario(n_devices=2)
    template = ReplayEngine().template_for(scenario.config)
    path = tmp_path / "template.npz"
    save_family(TemplateFamily(template.key, template), path)
    loaded = load_family(path, key=template.key).template
    assert loaded is not None
    fresh = run_scenario(scenario)
    replayed = replay_one(loaded, scenario)
    assert comparable(replayed) == comparable(fresh)


def test_corrupt_template_file_loads_as_none(tmp_path):
    path = tmp_path / "template.npz"
    path.write_bytes(b"not an npz archive")
    assert load_family(path) is None
    assert load_family(tmp_path / "missing.npz") is None


# -- batched grid repricing -----------------------------------------------------------


def batch_grid_scenarios():
    """A small pricing grid: 2 dtypes x 2 specs x 3 dispatch overheads."""
    scenarios = []
    for dtype in ("float32", "float16"):
        for spec in ("titan_x_pascal", "v100_sxm2_16gb"):
            for overhead in (None, 2_000, 9_000):
                overrides = {"dtype": dtype, "device_spec": spec}
                if overhead is not None:
                    overrides["host_dispatch_overhead_ns"] = overhead
                scenarios.append(make_scenario(**overrides))
    return scenarios


def test_price_batch_matches_scalar_replay_element_for_element():
    """The batched broadcast is bit-identical to scenario-at-a-time replay."""
    scenarios = batch_grid_scenarios()
    bandwidths = [s.resolve_bandwidths() for s in scenarios]
    scalar_engine = ReplayEngine()
    scalar = [price_one(scalar_engine, s, bw)
              for s, bw in zip(scenarios, bandwidths)]
    batch_engine = ReplayEngine()
    batched = batch_engine.price_batch(scenarios, bandwidths)
    assert all(result is not None for result in batched)
    for one, many in zip(scalar, batched):
        assert comparable(one) == comparable(many)


def test_price_batch_is_bit_identical_to_fresh_symbolic():
    """...and therefore to fresh simulation, the ground truth."""
    scenarios = batch_grid_scenarios()
    engine = ReplayEngine()
    batched = engine.price_batch(
        scenarios, [s.resolve_bandwidths() for s in scenarios])
    for scenario, result in zip(scenarios, batched):
        assert comparable(result) == comparable(run_scenario(scenario))
    assert engine.templates_compiled == 2  # one capture per dtype
    assert engine.replayed == len(scenarios)


def multi_rank_grid():
    """n_devices {2, 4} x interconnects x allreduce x dtypes x overheads x specs."""
    return [make_scenario(n_devices=n_devices, batch_size=32,
                          interconnect=interconnect,
                          allreduce_algorithm=algorithm, dtype=dtype,
                          host_dispatch_overhead_ns=overhead, device_spec=spec)
            for n_devices in (2, 4)
            for interconnect in ("pcie_gen3", "nvlink2", "ethernet_25g")
            for algorithm in ("ring", "naive")
            for dtype in ("float32", "float16")
            for overhead in (None, 700, 11_000)
            for spec in ("titan_x_pascal", "ampere_a100_40gb")]


def test_price_batch_handles_multi_rank_scenarios():
    """Sync-carrying (multi-rank) scenarios are priced inside the batch —
    no trace is rebuilt for a policy-free row — and stay exact across every
    collective pricing axis in one call."""
    import repro.experiments.replay as replay_module

    scenarios = multi_rank_grid()
    engine = ReplayEngine()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay_module, "merge_rank_traces",
                      lambda traces: pytest.fail("a trace was rebuilt"))
        batched = engine.price_batch(
            scenarios, [s.resolve_bandwidths() for s in scenarios])
    assert engine.replayed == len(scenarios) == 144
    assert engine.templates_compiled == 4 and engine.fallback_reasons == {}
    for scenario, result in zip(scenarios, batched):
        assert comparable(result) == comparable(run_scenario(scenario))


@pytest.mark.parametrize("n_devices,batch_size", [(1, 16), (2, 16), (3, 16)],
                         ids=["one-rank", "two-ranks", "three-uneven-ranks"])
def test_policy_free_rows_build_no_time_matrix(n_devices, batch_size):
    """Every row of a block — policy-free or carrying any offline policy —
    reads its gaps, peak, spans and lifecycle clocks off its pricing point
    plus dispatch × kernels launched: no row's time matrix is built, no
    merged trace rebuilt or re-reduced, and the rows stay exact and in order."""
    import repro.experiments.replay as replay_module
    import repro.experiments.results as results_module
    from repro.experiments.replay import TraceTemplate

    def refuse(what):
        return lambda *args, **kwargs: pytest.fail(what)

    scenarios = [make_scenario(swap_policy=policy, n_devices=n_devices,
                               batch_size=batch_size, device_spec=spec,
                               host_dispatch_overhead_ns=overhead)
                 for spec in ("titan_x_pascal", "v100_sxm2_16gb")
                 for overhead in (None, 0, 4_000)
                 for policy in SWAP_POLICIES]
    engine = ReplayEngine()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TraceTemplate, "_price_times",
                      refuse("a row's time matrix was built"))
        patch.setattr(TraceTemplate, "_rebuild_trace",
                      refuse("a merged trace was rebuilt"))
        patch.setattr(replay_module, "merge_rank_traces",
                      refuse("rank traces were merged"))
        patch.setattr(results_module, "reduce_trace",
                      refuse("a trace was re-reduced"))
        batched = engine.price_batch(
            scenarios, [s.resolve_bandwidths() for s in scenarios])
    assert engine.replayed == len(scenarios) and engine.fallback_reasons == {}
    assert ([row.scenario["swap_policy"] for row in batched]
            == [scenario.swap_policy for scenario in scenarios])
    for scenario, result in zip(scenarios, batched):
        assert (result.swap is None) == (scenario.swap_policy == "none")
        assert comparable(result) == comparable(run_scenario(scenario))


def rebuilt_trace_result(template, scenario):
    """``scenario`` reduced the way policy rows were before every row took the
    one path, from public pieces: the merged trace ``replay_trace`` rebuilds,
    measured by ``reduce_trace``, the policy evaluated on its rank-0 slice."""
    config = scenario.config
    bandwidths = scenario.resolve_bandwidths()
    trace = template.replay_trace(config)
    marks = {mark.index: mark for mark in trace.iteration_marks}
    _, costs, clusters = template._price_times([config])
    allreduce_ns = int(costs[0].sum())
    policy_trace = trace.for_rank(0) if config.n_devices > 1 else trace
    return reduce_trace(
        scenario, bandwidths, [trace], (0,), template._batch_arrays().structure,
        [marks[i].end_ns - marks[i].start_ns for i in template.iteration_indices],
        evaluate_policy(scenario.swap_policy, policy_trace, bandwidths),
        template._collective_summary(clusters[0], allreduce_ns), None, 0.0)


@pytest.mark.parametrize("overrides", [
    {}, dict(CONV), {"n_devices": 2}, dict(CONV, n_devices=2),
    {"n_devices": 3}, dict(CONV, n_devices=3),
    {"n_devices": 4, "batch_size": 32, "allreduce_algorithm": "naive"},
], ids=["mlp", "alexnet", "mlp-2dev", "alexnet-2dev", "mlp-3dev-uneven",
        "alexnet-3dev-uneven", "mlp-4dev-naive"])
def test_columnar_reduction_equals_the_rebuilt_trace_reduction(overrides):
    """The batch's columnar reduction, offline policies included, against the
    merged trace it never builds: the same template's ``replay_trace``
    reduced by ``reduce_trace``, every offline policy on its rank-0 slice."""
    engine = ReplayEngine()
    for pricing in ({}, {"device_spec": "v100_sxm2_16gb",
                         "host_dispatch_overhead_ns": 1_300,
                         "interconnect": "nvlink2"}):
        scenarios = [make_scenario(swap_policy=policy, **overrides, **pricing)
                     for policy in SWAP_POLICIES]
        template = engine.template_for(scenarios[0].config)
        fast = template.replay_batch(
            scenarios, [s.resolve_bandwidths() for s in scenarios], 0.0)
        for scenario, row in zip(scenarios, fast):
            assert comparable(row) == comparable(rebuilt_trace_result(template,
                                                                      scenario))
    assert engine.templates_compiled == 1


@pytest.mark.parametrize("n_devices,batch_size", [(2, 17), (4, 19)])
def test_skewed_rank_clocks_replay_exactly(n_devices, batch_size):
    """An uneven batch shard gives the ranks different tapes, so the merged
    event order is a real interleaving, not rank-alternating ties."""
    engine = ReplayEngine()
    for pricing in ({}, {"host_dispatch_overhead_ns": 300},
                    {"device_spec": "ampere_a100_40gb",
                     "interconnect": "ethernet_25g"}):
        scenario = make_scenario(n_devices=n_devices, batch_size=batch_size,
                                 model_kwargs={"hidden_dim": 512}, **pricing)
        assert_replay_exact(engine, scenario)
        template = engine.template_for(scenario.config)
        times, _, _ = template._price_times([scenario.config])
        stamps = [clock[rank.event_tape_pos] for clock, rank
                  in zip(template._class_times(times[0]), template.classes)]
        # array_split hands the last rank the short shard: it runs ahead,
        # so its events sort *before* rank 0's (no tie to fall back on).
        assert np.any(stamps[-1] < stamps[0])
    assert engine.templates_compiled == 1


@pytest.mark.parametrize("dtype", ["float32", "float16"])
@pytest.mark.parametrize("n_devices,batch_size", [(2, 4), (3, 5)],
                         ids=["two-ranks", "three-uneven-ranks"])
@pytest.mark.parametrize("model", [
    dict(model="mlp", model_kwargs={"hidden_dim": 32}, dataset="two_cluster"),
    dict(model="resnet18", model_kwargs={"input_size": 32, "num_classes": 10},
         dataset="cifar10"),
], ids=["mlp", "resnet18"])
def test_every_offline_policy_reads_rank_0s_recording_as_its_merged_slice(
        model, n_devices, batch_size, dtype):
    """Why a policy row needs no merged trace: rank 0's own recording and the
    merged trace's rank-0 slice give every offline policy the same summary
    (merging leaves rank 0's block ids unshifted and its event order intact,
    and no policy reads event ids, ``end_ns`` or mark timestamps)."""
    config = TrainingRunConfig(**model, batch_size=batch_size, iterations=2,
                               n_devices=n_devices, dtype=dtype,
                               seed=3)
    session = run_training_session(config)
    own, sliced = session.rank_traces[0], session.trace.for_rank(0)
    bandwidths = BandwidthConfig.from_device_spec(build_cluster(config).device)
    for name in SWAP_POLICIES[1:]:
        assert (evaluate_policy(name, own, bandwidths)
                == evaluate_policy(name, sliced, bandwidths)), name


def _owned(value):
    """``value`` with every array it reaches replaced by its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return {field.name: _owned(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_owned(item) for item in value]
    if isinstance(value, dict):
        return {key: _owned(item) for key, item in value.items()}
    return value


def test_pricing_a_block_twice_leaves_every_template_array_as_it_was(monkeypatch):
    """A block's reduction writes into buffers it allocates, never into an
    array the template or the point table owns: a mixed block (one and two
    ranks, several points and dispatch costs, one policy row) priced twice
    gives equal results and leaves every such array byte for byte as it was."""
    from repro.experiments.replay import TraceTemplate

    scenarios = [make_scenario(n_devices=n_devices, device_spec=spec,
                               host_dispatch_overhead_ns=overhead, **CONV)
                 for n_devices in (1, 2)
                 for spec in ("titan_x_pascal", "v100_sxm2_16gb")
                 for overhead in (None, 0, 4_000)]
    scenarios.append(make_scenario(swap_policy="planner", n_devices=2,
                                   host_dispatch_overhead_ns=700, **CONV))
    bandwidths = [s.resolve_bandwidths() for s in scenarios]
    engine = ReplayEngine()
    templates = [engine.template_for(scenarios[0].config),
                 engine.template_for(scenarios[-1].config)]

    def state():
        return _owned([(template.classes, template._batch_arrays(), template.sync_pos,
                        template.sync_nbytes)
                       for template in templates])

    before = state()
    point_tables = []
    price_points = TraceTemplate._price_points

    def recording(self, configs):
        priced = price_points(self, configs)
        point_tables.append((priced, _owned(priced)))
        return priced

    monkeypatch.setattr(TraceTemplate, "_price_points", recording)
    first = engine.price_batch(scenarios, bandwidths)
    assert state() == before
    second = engine.price_batch(scenarios, bandwidths)
    assert state() == before
    assert len(point_tables) == 4
    for priced, as_built in point_tables:
        assert _owned(priced) == as_built
    assert engine.fallback_reasons == {} and engine.templates_compiled == 2
    assert [comparable(row) for row in first] == [comparable(row) for row in second]
    assert comparable(first[3]) == comparable(run_scenario(scenarios[3]))


def test_engine_error_degrades_one_structure_group(monkeypatch, caplog):
    """A crash while pricing one structure declines that group only — tallied
    ``engine_error``, traceback logged — and the sweep still converges."""
    from repro.experiments.replay import TraceTemplate

    real_replay_batch = TraceTemplate.replay_batch

    def flaky(self, scenarios, *args, **kwargs):
        if scenarios[0].config.dtype == "float16":
            raise RuntimeError("boom")
        return real_replay_batch(self, scenarios, *args, **kwargs)

    monkeypatch.setattr(TraceTemplate, "replay_batch", flaky)
    grid = replay_grid(dtypes=("float32", "float16"))
    with caplog.at_level("WARNING", logger="repro.experiments.replay"):
        result = SweepRunner().run(grid)
    assert len(result.results) == 8 and not result.failures
    assert result.replayed == 4
    assert result.replay_fallbacks == {"engine_error": 4}
    record, = [r for r in caplog.records if "replay engine failed" in r.message]
    assert record.exc_info is not None and "boom" in str(record.exc_info[1])
    symbolic = SweepRunner().run(replay_grid(execution_mode="symbolic",
                                             dtypes=("float32", "float16")))
    for fresh, row in zip(symbolic.results, result.results):
        assert comparable(row) == comparable(fresh)


def test_each_run_reports_its_own_replay_counts():
    """A runner keeps its replay engine across runs, and each run reports
    what it compiled and declined, not the engine's totals."""
    swap_on = dataclasses.replace(make_scenario(swap="lru"), via_replay=True)
    fresh = dataclasses.replace(make_scenario(batch_size=32), via_replay=True)
    with SweepRunner(use_cache=False) as runner:
        first, second = runner.run([swap_on]), runner.run([swap_on])
        compiled = runner.run([fresh])
        again = runner.run([fresh])
    for run in (first, second):
        assert run.replay_fallbacks == {"swap_execution": 1}
        assert run.templates_compiled == 0
    assert compiled.templates_compiled == 1
    assert again.templates_compiled == 0
    assert compiled.replay_fallbacks == again.replay_fallbacks == {}


def test_a_capture_builds_no_merged_trace(monkeypatch):
    """A template is priced from the replicas' own recordings: compiling a
    two-replica structure merges (and re-stamps) no trace."""
    from repro.core import trace as trace_module
    from repro.experiments import replay
    from repro.train import session

    def no_merge(*args, **kwargs):
        raise AssertionError("a capture merged rank traces")

    for module in (trace_module, session, replay):
        monkeypatch.setattr(module, "merge_rank_traces", no_merge)
    config = make_scenario(n_devices=2).config
    template = TemplateFamily(template_key(config)).capture(config)
    assert template.rank_classes == (0, 0) and len(template.classes) == 1


def test_a_deterministic_capture_failure_is_the_rows_outcome(monkeypatch, caplog):
    """lenet5 rejects two_cluster's 2-D samples while its template is being
    captured: that error is the row's failure, the row is simulated once (by
    the capture), the failure is memoized at the capture's capacity and
    the decline is tallied ``capture_failed`` with no warning."""
    from repro.errors import ShapeError
    from repro.experiments import replay
    from repro.train import session

    calls = []
    for module in (replay, session):
        def counting(config, *args, _original=module.record_session, **kwargs):
            calls.append(config)
            return _original(config, *args, **kwargs)
        monkeypatch.setattr(module, "record_session", counting)
    scenario = Scenario(TrainingRunConfig(model="lenet5", batch_size=8, iterations=1),
                        via_replay=True)
    runner = SweepRunner(use_cache=False, strict=False)
    with caplog.at_level("WARNING", logger="repro.experiments.replay"):
        result = runner.run([scenario])
    assert len(calls) == 1
    assert not caplog.records
    assert result.results == [] and result.replay_fallbacks == {"capture_failed": 1}
    (failure,) = result.failures
    assert (failure.reason, failure.kind, failure.attempts) == ("error", "deterministic", 1)
    assert isinstance(failure.error_obj, ShapeError) and "ShapeError" in failure.traceback
    family, = runner._ensure_replay_engine()._families.values()
    assert family.template is None and not family.declined
    (capacity, error), = family.failed_captures.items()
    assert capacity == titan_x_pascal().memory_capacity
    assert error is failure.error_obj
    with pytest.raises(ShapeError):
        SweepRunner(use_cache=False).run([scenario])
    # The trace door raises the capture's own error: one simulation, not two.
    calls.clear()
    with pytest.raises(ShapeError):
        SweepRunner(use_cache=False).trace(scenario)
    assert len(calls) == 1


def test_a_failed_capture_fails_every_row_at_its_capacity(monkeypatch):
    """Three lenet5 rows on two_cluster differ only in the host dispatch
    overhead, a pricing field: one capture fails for all three, so the
    front end runs once and each row fails as its own simulation would."""
    from repro.experiments import replay
    from repro.train import session

    calls = []
    for module in (replay, session):
        def counting(config, *args, _original=module.record_session, **kwargs):
            calls.append(config)
            return _original(config, *args, **kwargs)
        monkeypatch.setattr(module, "record_session", counting)
    configs = [TrainingRunConfig(model="lenet5", batch_size=8, iterations=1,
                                 host_dispatch_overhead_ns=overhead)
               for overhead in (None, 1_000, 2_000)]
    with SweepRunner(use_cache=False, strict=False) as runner:
        result = runner.run([Scenario(config, via_replay=True) for config in configs])
    assert len(calls) == 1
    assert result.results == [] and result.replay_fallbacks == {"capture_failed": 3}
    assert [failure.kind for failure in result.failures] == ["deterministic"] * 3
    for config, failure in zip(configs, result.failures):
        with SweepRunner(use_cache=False, strict=False) as runner:
            (fresh,) = runner.run([Scenario(config)]).failures
        assert (failure.reason, failure.kind, failure.error) \
            == (fresh.reason, fresh.kind, fresh.error)
        assert failure.scenario == fresh.scenario


def test_a_later_run_fails_a_row_with_its_remembered_capture_error(monkeypatch):
    """Two lenet5 rows on two_cluster differ only in the host dispatch
    overhead, a pricing field: run one after the other through one runner,
    the second fails with the first one's capture error, as a
    ``capture_failed`` row, and the front end runs once."""
    from repro.experiments import replay
    from repro.train import session

    calls = []
    for module in (replay, session):
        def counting(config, *args, _original=module.record_session, **kwargs):
            calls.append(config)
            return _original(config, *args, **kwargs)
        monkeypatch.setattr(module, "record_session", counting)
    first, second = (Scenario(TrainingRunConfig(model="lenet5", batch_size=8, iterations=1,
                                                host_dispatch_overhead_ns=overhead),
                              via_replay=True) for overhead in (None, 1_000))
    with SweepRunner(use_cache=False, strict=False) as runner:
        ran = [runner.run([scenario]) for scenario in (first, second)]
    assert len(calls) == 1
    for result in ran:
        assert result.results == [] and result.replay_fallbacks == {"capture_failed": 1}
    (failed,), (again,) = (result.failures for result in ran)
    assert (again.reason, again.kind, again.error) == (failed.reason, failed.kind, failed.error)
    assert again.error_obj is failed.error_obj


@pytest.mark.parametrize("capacities", ["0.004,12", "12,0.004"])
def test_a_capture_that_overflows_its_capacity_fails_only_its_row(tmp_path, capsys,
                                                                   capacities):
    """bump overflows 0.004 GiB on this MLP: whichever capacity the family
    captures at first, the 12 GiB row is replayed and the 0.004 GiB row
    fails, and nothing is simulated."""
    assert main(["sweep", "--models", "mlp", "--batch-sizes", "32", "--allocators", "bump",
                 "--iterations", "2", "--device-memory-gib", capacities,
                 "--execution", "replay", "--no-cache", "--cache-dir", str(tmp_path)]) == 0
    counts = re.search(r"\((\d+) cached, (\d+) replayed.*?, (\d+) simulated, (\d+) failed",
                       capsys.readouterr().out)
    assert counts.groups() == ("0", "1", "0", "1")


# -- dtype: one template key, one capture per precision ------------------------------


def test_template_key_splits_on_dtype():
    """``dtype`` is structural: fp32 and fp16 are two keys, two captures."""
    base = make_scenario().config
    assert template_key(base) != template_key(
        TrainingRunConfig(**{**base.__dict__, "dtype": "float16"}))


@pytest.mark.parametrize("n_devices", [1, 2])
@pytest.mark.parametrize("dtype", ["float32", "float16"])
def test_dtype_variants_replay_bit_identical_to_symbolic(dtype, n_devices):
    """Each dtype's template stays exact (incl. AMP master-weight
    structural deltas) across replica counts."""
    engine = ReplayEngine()
    assert_replay_exact(engine, make_scenario(dtype="float32",
                                              n_devices=n_devices))
    assert_replay_exact(engine, make_scenario(dtype=dtype,
                                              n_devices=n_devices))
    assert engine.templates_compiled == (1 if dtype == "float32" else 2)


def test_each_dtype_template_serves_its_pricing_points():
    engine = ReplayEngine()
    for dtype in ("float32", "float16"):
        for overrides in ({}, {"device_spec": "v100_sxm2_16gb"},
                          {"host_dispatch_overhead_ns": 2_000}):
            assert_replay_exact(engine, make_scenario(dtype=dtype, **overrides))
    assert engine.templates_compiled == 2
    assert engine.replayed == 6


def test_each_dtype_round_trips_under_its_own_key(tmp_path):
    for scenario in (make_scenario(dtype="float32"), make_scenario(dtype="float16")):
        family = TemplateFamily(template_key(scenario.config))
        family.capture(scenario.config)
        path = tmp_path / f"{family.key}.npz"
        save_family(family, path)
        loaded = load_family(path, key=family.key)
        assert loaded is not None and loaded.key == family.key
        replayed = replay_one(loaded.template, scenario)
        assert comparable(replayed) == comparable(run_scenario(scenario))
    assert len(list(tmp_path.iterdir())) == 2


def test_an_archive_is_served_only_under_its_own_dtypes_key(tmp_path):
    fp32 = make_scenario(dtype="float32").config
    fp16 = make_scenario(dtype="float16").config
    family = TemplateFamily(template_key(fp16))
    family.capture(fp16)
    path = tmp_path / "family.npz"
    save_family(family, path)
    assert load_family(path, key=template_key(fp32)) is None
    assert load_family(path, key=template_key(fp16)).template is not None


def test_a_declined_capture_is_memoized_not_retried():
    config = make_scenario().config
    family = TemplateFamily(template_key(config))
    broken = TrainingRunConfig(**{**config.__dict__, "swap": "lru"})
    with pytest.raises(TemplateError):
        family.capture(broken)
    assert family.declined and family.template is None  # memoized failure


# -- fallback-reason accounting -------------------------------------------------------


def test_engine_tallies_fallback_reasons():
    engine = ReplayEngine()
    for swap in ("lru", "unified"):
        assert price_one(engine, make_scenario(swap=swap)) is None
    assert engine.fallback_reasons == {"swap_execution": 2}


def test_sweep_surfaces_replay_fallback_reasons():
    grid = replay_grid(host_dispatch_overheads_ns=(None,),
                       device_specs=("titan_x_pascal",),
                       swaps=("off", "lru"))
    result = SweepRunner().run(grid)
    assert result.replayed == 1
    assert result.replay_fallbacks == {"swap_execution": 1}
    assert result.templates_compiled == 1


def without_atom(rank, atom):
    """``rank`` with tape atom ``atom`` cut out (later tape positions shift)."""
    def shift(positions):
        return positions - (positions > atom)
    return dataclasses.replace(
        rank, event_tape_pos=shift(rank.event_tape_pos),
        mark_spans=shift(rank.mark_spans),
        **{name: np.delete(getattr(rank, name), atom) for name in _TAPE_COLUMNS})


def test_ranks_launching_unequal_kernels_before_a_sync_are_declined(monkeypatch):
    """Barriers keep a row's clocks affine in the dispatch cost only when every
    rank launches as many kernels before each sync: a capture that breaks
    that is declined as ``capture_inconsistent`` and its group simulated."""
    from repro.experiments import replay

    compile_checked = replay._compile_template_checked

    def doctored(config):
        template = compile_checked(config)
        rank, = template.classes        # two ranks of one class, told apart
        first_sync = np.flatnonzero(rank.tape_kind == TAPE_ALLREDUCE)[0]
        kernel = np.flatnonzero(rank.tape_kind[:first_sync] == TAPE_KERNEL)[-1]
        classes = [rank, without_atom(rank, kernel)]
        return replay.TraceTemplate(template.key, template.meta, classes, (0, 1))

    with pytest.raises(TemplateError, match="kernel counts") as declined:
        doctored(make_scenario(n_devices=2).config)
    assert declined.value.reason == "capture_inconsistent"
    monkeypatch.setattr(replay, "_compile_template_checked", doctored)
    result = SweepRunner().run(replay_grid(n_devices=(2,)))
    assert result.replayed == 0
    assert result.replay_fallbacks == {"capture_inconsistent": 4}
    symbolic = SweepRunner().run(replay_grid(n_devices=(2,)))
    assert ([comparable(row) for row in result.results]
            == [comparable(row) for row in symbolic.results])


def empty_rank(rank):
    """``rank`` with every recorded event cut out (its tape kept)."""
    columns = rank.columns
    return dataclasses.replace(
        rank, event_tags=[], event_ops=[], event_tape_pos=rank.event_tape_pos[:0],
        columns=dataclasses.replace(columns, **{
            field.name: getattr(columns, field.name)[:0]
            for field in dataclasses.fields(columns)}))


@pytest.mark.parametrize("doctor", [
    lambda rank: dataclasses.replace(
        rank, mark_indices=[index + 1 for index in rank.mark_indices]),
    empty_rank,
], ids=["other-marks", "no-events"])
def test_a_rank_without_the_captures_events_and_marks_is_declined(monkeypatch, doctor):
    """Every row is reduced off each rank's events and iteration spans, so a
    capture with a rank whose marks disagree with the capture's, or a rank
    that recorded nothing, is declined as ``capture_inconsistent`` at
    construction and its group — policy rows included — simulated."""
    from repro.experiments import replay

    compile_checked = replay._compile_template_checked

    def doctored(config):
        template = compile_checked(config)
        rank, = template.classes        # two ranks of one class, told apart
        return replay.TraceTemplate(template.key, template.meta,
                                    [rank, doctor(rank)], (0, 1))

    with pytest.raises(TemplateError, match="iteration marks") as declined:
        doctored(make_scenario(n_devices=2).config)
    assert declined.value.reason == "capture_inconsistent"
    monkeypatch.setattr(replay, "_compile_template_checked", doctored)
    grid = dict(n_devices=(2,), swap_policies=("none", "planner"))
    result = SweepRunner().run(replay_grid(**grid))
    assert result.replayed == 0
    assert result.replay_fallbacks == {"capture_inconsistent": 8}
    symbolic = SweepRunner().run(replay_grid(**grid, execution_mode="symbolic"))
    assert ([comparable(row) for row in result.results]
            == [comparable(row) for row in symbolic.results])


# -- atomic persistence and the template store ----------------------------------------


def test_save_family_leaves_no_temp_files(tmp_path):
    template = ReplayEngine().template_for(make_scenario().config)
    path = tmp_path / "template.npz"
    save_family(TemplateFamily(template.key, template), path)
    assert [p.name for p in tmp_path.iterdir()] == ["template.npz"]


def test_engine_persists_families_through_the_store(tmp_path):
    engine = ReplayEngine(store=TemplateStore(tmp_path))
    assert_replay_exact(engine, make_scenario())
    assert_replay_exact(engine, make_scenario(dtype="float16"))
    assert engine.templates_compiled == 2
    assert (sorted(path.name for path in tmp_path.iterdir())
            == sorted(f"{template_key(make_scenario(dtype=dtype).config)}.npz"
                      for dtype in ("float32", "float16")))

    # A later process loads both templates from the store: no fresh compile,
    # and pricing stays exact for both dtypes at a new pricing point.
    second = ReplayEngine(store=TemplateStore(tmp_path))
    assert_replay_exact(second,
                        make_scenario(device_spec="v100_sxm2_16gb"))
    assert_replay_exact(second,
                        make_scenario(dtype="float16",
                                      device_spec="v100_sxm2_16gb"))
    assert second.templates_compiled == 0


def test_a_captured_rank_is_its_traces_columns_and_a_rebuilt_trace_shares_them(
        monkeypatch, tmp_path):
    """No second copy: capture keeps the recorded column record itself, and
    every trace the template hands out shares its string lists and every
    column but the timestamps (as ``rank_view`` shares them)."""
    from repro.experiments import replay

    captured = []
    capture_rank = replay._capture_rank

    def recording(placed, *args):
        captured.append((placed.trace, capture_rank(placed, *args)))
        return captured[-1][1]

    monkeypatch.setattr(replay, "_capture_rank", recording)
    three_ranks = make_scenario(n_devices=3).config     # two replica classes
    template = ReplayEngine().template_for(three_ranks)
    assert len(captured) == 2 and template.rank_classes == (0, 1, 1)
    for (trace, rank), member in zip(captured, template.classes):
        assert rank.columns is trace.columns()
        assert (rank.event_tags, rank.event_ops) == trace.event_strings()
        assert rank is member

    def assert_shares(trace, rank):
        assert trace._event_tags is rank.event_tags
        assert trace._event_ops is rank.event_ops
        for name in ("event_id", "kind_code", "block_id", "size",
                     "category_code", "iteration", "device_rank", "address"):
            assert getattr(trace.columns(), name) is getattr(rank.columns, name)

    config = make_scenario().config
    single = ReplayEngine().template_for(config)
    path = tmp_path / "family.npz"
    save_family(TemplateFamily(single.key, single), path)
    loaded = load_family(path).template
    assert not loaded.classes[0].columns.timestamp_ns.any()   # nothing recorded to keep
    for one_rank in (single, loaded):
        rank, = one_rank.classes
        times = one_rank._class_times(one_rank._price_times([config])[0][0])
        spec = build_cluster(config).device
        rebuilt = one_rank._rebuild_trace(config, spec, times)
        for trace in (rebuilt, one_rank.replay_trace(config),
                      one_rank._rank_trace(0, config, spec, times[0])):
            assert_shares(trace, rank)
            assert trace.columns().timestamp_ns is not rank.columns.timestamp_ns
            assert trace.validate() is trace
        assert rank.trace().columns() is rank.columns


# -- the paper's own workload: a host-latency model is inside the envelope ------------

OTHER_LATENCY = HostLatencyModel(per_batch_ns=500_000, per_sample_ns=5_000)


def paper_scenario(swap_policy="none", host_latency=PAPER_MLP_HOST_LATENCY, **overrides):
    config = paper_mlp_config(batch_size=4096, iterations=5)
    config.host_latency = host_latency
    for name, value in overrides.items():
        setattr(config, name, value)
    return Scenario(config=config, swap_policy=swap_policy)


def test_paper_mlp_grid_replays_exactly_from_one_template_per_structure():
    scenarios = [paper_scenario(policy, device_spec=spec, n_devices=n)
                 for spec in ("titan_x_pascal", "v100_sxm2_16gb", "rtx_3090_24gb")
                 for policy in ("none", "planner", "zero_offload")
                 for n in (1, 2)]
    scenarios.append(paper_scenario(host_latency=OTHER_LATENCY))
    engine = ReplayEngine()
    priced = engine.price_batch(scenarios,
                                [s.resolve_bandwidths() for s in scenarios])
    assert engine.fallback_reasons == {}
    assert engine.templates_compiled == 3   # 1 device, 2 devices, the other model
    for scenario, replayed in zip(scenarios, priced):
        assert comparable(replayed) == comparable(run_scenario(scenario))


@pytest.mark.parametrize("n_devices", [1, 2])
@pytest.mark.parametrize("spec", ["titan_x_pascal", "v100_sxm2_16gb"])
def test_paper_mlp_trace_rebuilds_event_for_event(spec, n_devices):
    """Full paper scale (batch 16,384), compiled at one spec, rebuilt at another."""
    config = paper_mlp_config()
    config.n_devices = n_devices
    template = ReplayEngine().template_for(config)
    config.device_spec = spec
    assert_same_trace(template.replay_trace(config),
                      run_training_session(config).trace)


def test_latency_models_split_the_template_key_and_the_token():
    keys = {template_key(paper_scenario(host_latency=model).config)
            for model in (None, PAPER_MLP_HOST_LATENCY, OTHER_LATENCY)}
    assert len(keys) == 3
    tokens = {structure_token(paper_scenario(host_latency=model).config)
              for model in (None, PAPER_MLP_HOST_LATENCY, OTHER_LATENCY)}
    assert len(tokens) == 3


def test_a_dict_valued_latency_model_is_the_dataclass_one():
    """``TrainingRunConfig(**config.to_dict())`` carries the model as a dict:
    the same template key, token and scenario key, the same priced row."""
    as_dataclass = paper_scenario()
    as_dict = Scenario(TrainingRunConfig(**as_dataclass.config.to_dict()))
    assert isinstance(as_dict.config.host_latency, dict)
    assert template_key(as_dict.config) == template_key(as_dataclass.config)
    assert (structure_token(as_dict.config)
            == structure_token(as_dataclass.config))
    assert as_dict.key() == as_dataclass.key()
    engine = ReplayEngine()
    assert (comparable(price_one(engine, as_dict))
            == comparable(run_scenario(as_dict))
            == comparable(run_scenario(as_dataclass)))


def test_a_latency_free_template_key_is_pinned():
    """An absent latency model leaves no entry in the fingerprint, so the key
    of a latency-free config moves only with the template schema (v5)."""
    config = TrainingRunConfig(model="mlp", batch_size=32, iterations=2)
    assert template_key(config) == (
        "5abd1b5250cc490d26e60c7231426e77fe0b53a0701ff4f99b3f95f0e905f4fa")


def test_the_reports_comparison_grid_replays_every_row():
    """The 42-row policy x dtype x device table (paper MLP, host latency on)
    through ``--execution replay``: no fallback, rows equal the symbolic run's."""
    from repro.report.figures import FULL_PROFILE, comparison_grid

    symbolic = SweepRunner().run(comparison_grid(FULL_PROFILE))
    grid = comparison_grid(FULL_PROFILE)
    grid.execution_mode = "replay"
    replayed = SweepRunner().run(grid)
    assert replayed.replay_fallbacks == {}
    assert replayed.replayed == len(replayed.results) == 42
    assert ([comparable(row) for row in replayed.results]
            == [comparable(row) for row in symbolic.results])


# -- the runner serves traces ---------------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {},                                             # in the envelope: rebuilt
    {"n_devices": 2, "device_spec": "v100_sxm2_16gb"},
    {"swap": "lru"},                                # outside: simulated
    {"swap": "unified", "batch_size": 64},
], ids=["symbolic", "symbolic-2dev", "swap-on", "swap-unified"])
def test_runner_trace_is_the_fresh_sessions_trace(overrides):
    scenario = paper_scenario(**overrides)
    runner = SweepRunner()
    assert_same_trace(runner.trace(scenario),
                      run_training_session(scenario.config).trace)
    in_envelope = "swap" not in overrides
    assert runner._ensure_replay_engine().templates_compiled == int(in_envelope)


def test_runner_trace_declines_a_capacity_the_capture_does_not_cover():
    scenario = paper_scenario(allocator="best_fit")
    runner = SweepRunner()
    runner.trace(scenario)
    scenario.config.device_memory_capacity = 1 << 34
    assert_same_trace(runner.trace(scenario),
                      run_training_session(scenario.config).trace)


def test_a_second_process_serves_the_trace_from_the_store(tmp_path, monkeypatch):
    scenario = paper_scenario()
    first = SweepRunner(cache_dir=tmp_path).trace(scenario)

    def no_simulation(*args, **kwargs):
        raise AssertionError("a stored template must serve the trace")

    import repro.experiments.replay as replay_module
    import repro.experiments.sweep as sweep_module
    monkeypatch.setattr(replay_module, "record_session", no_simulation)
    monkeypatch.setattr(sweep_module, "run_training_session", no_simulation)
    second = SweepRunner(cache_dir=tmp_path)
    scenario.config.device_spec = "v100_sxm2_16gb"
    rebuilt = second.trace(scenario)
    assert second._ensure_replay_engine().templates_compiled == 0
    assert rebuilt.columns().timestamp_ns[-1] != first.columns().timestamp_ns[-1]
    monkeypatch.undo()
    assert_same_trace(rebuilt, run_training_session(scenario.config).trace)
