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

import numpy as np
import pytest

from repro.data.loader import HostLatencyModel
from repro.device.tape import TAPE_ALLREDUCE, TAPE_KERNEL
from repro.experiments.configs import PAPER_MLP_HOST_LATENCY, paper_mlp_config
from repro.experiments.replay import (
    ReplayEngine,
    TemplateError,
    TemplateFamily,
    _TAPE_COLUMNS,
    load_family,
    save_family,
    template_key,
)
from repro.experiments.sweep import Scenario, SweepGrid, SweepRunner, run_scenario
from repro.experiments.template_store import TemplateStore
from repro.train.session import TrainingRunConfig, build_cluster, run_training_session

from tests.helpers import price_one, replay_one


def make_scenario(swap_policy="none", **overrides):
    settings = dict(model="mlp", model_kwargs={"hidden_dim": 32},
                    dataset="two_cluster", batch_size=16, iterations=2,
                    execution_mode="symbolic", seed=3)
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
                               execution_mode="symbolic",
                               device_spec="v100_sxm2_16gb", seed=3)
    compile_point = TrainingRunConfig(
        **{**config.__dict__, "device_spec": "titan_x_pascal"})
    engine = ReplayEngine(store=TemplateStore(store_dir) if store_dir else None)
    template = engine.template_for(compile_point)
    if store_dir:
        template = TemplateStore(store_dir).load(template.key).get(config.dtype)
    assert_same_trace(template.replay_trace(config),
                      run_training_session(config).trace)


def assert_same_trace(replayed, fresh):
    """``replayed`` is the trace ``fresh`` is, event for event — and a valid one."""
    replayed.validate()
    fresh_cols, replay_cols = fresh.columns(), replayed.columns()
    # Block/segment ids draw from a process-global counter, so two runs in
    # one process differ by a constant shift; compare first-appearance order.
    def normalized(values):
        mapping = {}
        return [mapping.setdefault(v, len(mapping)) for v in values]

    for name in ("event_id", "kind_code", "timestamp_ns", "size",
                 "category_code", "iteration", "device_rank", "address"):
        np.testing.assert_array_equal(getattr(replay_cols, name),
                                      getattr(fresh_cols, name), err_msg=name)
    assert (normalized(replay_cols.block_id.tolist())
            == normalized(fresh_cols.block_id.tolist()))
    assert replayed.event_strings() == fresh.event_strings()
    assert ([mark.to_dict() for mark in replayed.iteration_marks]
            == [mark.to_dict() for mark in fresh.iteration_marks])

    def lifetime_stream(trace):
        ids = normalized([lt.block_id for lt in trace.lifetimes])
        return [(bid, lt.address, lt.size, lt.category, lt.tag, lt.malloc_ns,
                 lt.free_ns, lt.iteration, lt.access_count, lt.device_rank)
                for bid, lt in zip(ids, trace.lifetimes)]

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
                                              execution_mode="eager")) is None
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
    save_family(TemplateFamily(template.key, {template.dtype: template}), path)
    loaded = load_family(path, key=template.key).get(template.dtype)
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
    assert engine.templates_compiled == 1  # one family serves the whole grid
    assert engine.variants_captured == 2  # one capture per dtype
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
    assert engine.templates_compiled == 2 and engine.fallback_reasons == {}
    for scenario, result in zip(scenarios, batched):
        assert comparable(result) == comparable(run_scenario(scenario))


@pytest.mark.parametrize("n_devices,batch_size", [(1, 16), (2, 16), (3, 16)],
                         ids=["one-rank", "two-ranks", "three-uneven-ranks"])
def test_policy_free_rows_build_no_time_matrix(monkeypatch, n_devices, batch_size):
    """A policy-free row reads its gaps, peak, spans and lifecycle clocks off
    its pricing point plus dispatch × kernels launched: the row materialiser
    is never called, and the rows stay exact."""
    from repro.experiments.replay import TraceTemplate

    monkeypatch.setattr(TraceTemplate, "_materialise_rows",
                        lambda *args: pytest.fail("a row's time matrix was built"))
    scenarios = [make_scenario(n_devices=n_devices, batch_size=batch_size,
                               device_spec=spec, host_dispatch_overhead_ns=overhead)
                 for spec in ("titan_x_pascal", "v100_sxm2_16gb")
                 for overhead in (None, 0, 4_000)]
    engine = ReplayEngine()
    batched = engine.price_batch(
        scenarios, [s.resolve_bandwidths() for s in scenarios])
    assert engine.replayed == len(scenarios) and engine.fallback_reasons == {}
    for scenario, result in zip(scenarios, batched):
        assert comparable(result) == comparable(run_scenario(scenario))


@pytest.mark.parametrize("overrides", [
    {}, dict(CONV), {"n_devices": 2}, dict(CONV, n_devices=2),
    {"n_devices": 4, "batch_size": 32, "allreduce_algorithm": "naive"},
], ids=["mlp", "alexnet", "mlp-2dev", "alexnet-2dev", "mlp-4dev-naive"])
def test_columnar_reduction_equals_the_rebuilt_trace_reduction(overrides):
    """The batch's columnar reduction against the path it bypasses: the same
    template, reduced through ``_rebuild_session`` -> ``reduce_session``."""
    engine = ReplayEngine()
    for pricing in ({}, {"device_spec": "v100_sxm2_16gb",
                         "host_dispatch_overhead_ns": 1_300,
                         "interconnect": "nvlink2"}):
        scenario = make_scenario(**overrides, **pricing)
        template = engine.template_for(scenario.config)
        tables = template._batch_arrays()
        merged = tables.merged
        assert merged is not None
        fast = replay_one(template, scenario)
        tables.merged = None  # no columnar structure: every row rebuilds a trace
        slow = replay_one(template, scenario)
        tables.merged = merged
        assert comparable(fast) == comparable(slow)


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
                  in zip(template._rank_times(times[0]), template.ranks)]
        # array_split hands the last rank the short shard: it runs ahead,
        # so its events sort *before* rank 0's (no tie to fall back on).
        assert np.any(stamps[-1] < stamps[0])
    assert engine.templates_compiled == 1


def test_policy_rows_in_a_mixed_group_take_the_trace_path(monkeypatch):
    """Policy-free and policy-carrying rows of one structure share a batch:
    only the policy rows rebuild a trace, and row order is preserved."""
    import repro.experiments.replay as replay_module

    policies = ["none", "planner", "none", "none", "planner", "none"]
    scenarios = [make_scenario(swap_policy=policy, n_devices=2,
                               host_dispatch_overhead_ns=1_000 * (i + 1), **CONV)
                 for i, policy in enumerate(policies)]
    merges = []
    real_merge = replay_module.merge_rank_traces
    monkeypatch.setattr(replay_module, "merge_rank_traces",
                        lambda traces: merges.append(1) or real_merge(traces))
    engine = ReplayEngine()
    batched = engine.price_batch(
        scenarios, [s.resolve_bandwidths() for s in scenarios])
    assert len(merges) == policies.count("planner")
    assert engine.templates_compiled == 1
    assert [r.scenario["swap_policy"] for r in batched] == policies
    for scenario, result in zip(scenarios, batched):
        assert (result.swap is not None) == (scenario.swap_policy == "planner")
        assert comparable(result) == comparable(run_scenario(scenario))


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
        return _owned([(template.ranks, template._batch_arrays(), template.sync_pos,
                        template.sync_kinds, template.sync_nbytes)
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


# -- dtype-generalized template families ----------------------------------------------


def test_template_key_is_dtype_invariant():
    """``dtype`` is a generalized axis: fp32 and fp16 share one family key."""
    base = make_scenario().config
    assert template_key(base) == template_key(
        TrainingRunConfig(**{**base.__dict__, "dtype": "float16"}))


@pytest.mark.parametrize("n_devices", [1, 2])
@pytest.mark.parametrize("dtype", ["float32", "float16"])
def test_dtype_variants_replay_bit_identical_to_symbolic(dtype, n_devices):
    """One family, widened per dtype, stays exact (incl. AMP master-weight
    structural deltas) across replica counts."""
    engine = ReplayEngine()
    assert_replay_exact(engine, make_scenario(dtype="float32",
                                              n_devices=n_devices))
    assert_replay_exact(engine, make_scenario(dtype=dtype,
                                              n_devices=n_devices))
    assert engine.templates_compiled == 1


def test_one_family_serves_both_dtypes_across_pricing_points():
    engine = ReplayEngine()
    for dtype in ("float32", "float16"):
        for overrides in ({}, {"device_spec": "v100_sxm2_16gb"},
                          {"host_dispatch_overhead_ns": 2_000}):
            assert_replay_exact(engine, make_scenario(dtype=dtype, **overrides))
    assert engine.templates_compiled == 1
    assert engine.variants_captured == 2
    assert engine.replayed == 6


def test_family_round_trips_with_dtype_variants(tmp_path):
    fp32 = make_scenario(dtype="float32")
    fp16 = make_scenario(dtype="float16")
    family = TemplateFamily(template_key(fp32.config))
    family.capture(fp32.config)
    family.capture(fp16.config)
    path = tmp_path / "family.npz"
    save_family(family, path)
    loaded = load_family(path, key=family.key)
    assert loaded is not None
    assert loaded.captured_dtypes() == ["float16", "float32"]
    for scenario in (fp32, fp16):
        variant = loaded.get(scenario.config.dtype)
        replayed = replay_one(variant, scenario)
        assert comparable(replayed) == comparable(run_scenario(scenario))


def test_load_template_selects_the_requested_dtype_variant(tmp_path):
    fp32 = make_scenario(dtype="float32").config
    fp16 = make_scenario(dtype="float16").config
    family = TemplateFamily(template_key(fp32))
    family.capture(fp32)
    family.capture(fp16)
    path = tmp_path / "family.npz"
    save_family(family, path)
    loaded = load_family(path)
    assert loaded.get("float16").dtype == "float16"
    assert loaded.get("float32").dtype == "float32"
    assert loaded.get("bfloat16") is None


def test_failed_dtype_capture_is_memoized_not_retried():
    config = make_scenario().config
    family = TemplateFamily(template_key(config))
    broken = TrainingRunConfig(**{**config.__dict__, "swap": "lru"})
    with pytest.raises(TemplateError):
        family.capture(broken)
    assert family.variants[broken.dtype] is None  # memoized failure


# -- fallback-reason accounting -------------------------------------------------------


def test_engine_tallies_fallback_reasons():
    engine = ReplayEngine()
    swap_on = make_scenario(swap="lru")
    eager = make_scenario(execution_mode="eager")
    assert price_one(engine, swap_on) is None
    assert price_one(engine, eager) is None
    assert engine.fallback_reasons == {"swap_execution": 1, "eager_mode": 1}


def test_sweep_surfaces_replay_fallback_reasons():
    grid = replay_grid(host_dispatch_overheads_ns=(None,),
                       device_specs=("titan_x_pascal",),
                       swaps=("off", "lru"))
    result = SweepRunner().run(grid)
    assert result.replayed == 1
    assert result.replay_fallbacks == {"swap_execution": 1}
    assert result.template_variants == 1


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
        rank = template.ranks[1]
        first_sync = np.flatnonzero(rank.tape_kind == TAPE_ALLREDUCE)[0]
        kernel = np.flatnonzero(rank.tape_kind[:first_sync] == TAPE_KERNEL)[-1]
        ranks = [template.ranks[0], without_atom(rank, kernel)]
        return replay.TraceTemplate(template.key, template.meta, ranks)

    with pytest.raises(TemplateError, match="kernel counts") as declined:
        doctored(make_scenario(n_devices=2).config)
    assert declined.value.reason == "capture_inconsistent"
    monkeypatch.setattr(replay, "_compile_template_checked", doctored)
    result = SweepRunner().run(replay_grid(n_devices=(2,)))
    assert result.replayed == 0
    assert result.replay_fallbacks == {"capture_inconsistent": 4}
    symbolic = SweepRunner().run(replay_grid(n_devices=(2,),
                                             execution_mode="symbolic"))
    assert ([comparable(row) for row in result.results]
            == [comparable(row) for row in symbolic.results])


# -- atomic persistence and the template store ----------------------------------------


def test_save_family_leaves_no_temp_files(tmp_path):
    template = ReplayEngine().template_for(make_scenario().config)
    path = tmp_path / "template.npz"
    save_family(TemplateFamily(template.key, {template.dtype: template}), path)
    assert [p.name for p in tmp_path.iterdir()] == ["template.npz"]


def test_engine_persists_families_through_the_store(tmp_path):
    engine = ReplayEngine(store=TemplateStore(tmp_path))
    assert_replay_exact(engine, make_scenario())
    assert_replay_exact(engine, make_scenario(dtype="float16"))
    assert engine.templates_compiled == 1
    assert ([path.name for path in tmp_path.iterdir()]
            == [f"{template_key(make_scenario().config)}.npz"])

    # A later process loads the family from the store: no fresh compile, and
    # pricing stays exact for both dtypes at a new pricing point.
    second = ReplayEngine(store=TemplateStore(tmp_path))
    assert_replay_exact(second,
                        make_scenario(device_spec="v100_sxm2_16gb"))
    assert_replay_exact(second,
                        make_scenario(dtype="float16",
                                      device_spec="v100_sxm2_16gb"))
    assert second.templates_compiled == 0
    assert second.variants_captured == 0


def test_a_captured_rank_is_its_traces_columns_and_a_rebuilt_trace_shares_them(
        monkeypatch, tmp_path):
    """No second copy: capture keeps the recorded column record itself, and
    every trace the template hands out shares its string lists and every
    column but the timestamps (as ``rank_view`` shares them)."""
    from repro.experiments import replay

    captured = []
    capture_rank = replay._capture_rank

    def recording(recorder, trace, tape):
        captured.append((trace, capture_rank(recorder, trace, tape)))
        return captured[-1][1]

    monkeypatch.setattr(replay, "_capture_rank", recording)
    three_ranks = make_scenario(n_devices=3).config     # two replica classes
    template = ReplayEngine().template_for(three_ranks)
    assert len(captured) == 2 and len(template.ranks) == 3
    for trace, rank in captured:
        assert rank.columns is trace.columns()
        assert (rank.event_tags, rank.event_ops) == trace.event_strings()
        assert any(rank is member for member in template.ranks)

    def assert_shares(trace, rank):
        assert trace._event_tags is rank.event_tags
        assert trace._event_ops is rank.event_ops
        for name in ("event_id", "kind_code", "block_id", "size",
                     "category_code", "iteration", "device_rank", "address"):
            assert getattr(trace.columns(), name) is getattr(rank.columns, name)

    config = make_scenario().config
    single = ReplayEngine().template_for(config)
    path = tmp_path / "family.npz"
    save_family(TemplateFamily(single.key, {single.dtype: single}), path)
    loaded = load_family(path).get(single.dtype)
    assert not loaded.ranks[0].columns.timestamp_ns.any()   # nothing recorded to keep
    for one_rank in (single, loaded):
        rank, = one_rank.ranks
        times = one_rank._rank_times(one_rank._price_times([config])[0][0])
        rebuilt = one_rank._rebuild_trace(config, build_cluster(config).device, times)
        for trace in (rebuilt, one_rank.replay_trace(config)):
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
    token = ReplayEngine._structural_token
    tokens = {token(paper_scenario(host_latency=model).config)
              for model in (None, PAPER_MLP_HOST_LATENCY, OTHER_LATENCY)}
    assert len(tokens) == 3


def test_a_dict_valued_latency_model_is_the_dataclass_one():
    """``TrainingRunConfig(**config.to_dict())`` carries the model as a dict:
    same key, a hashable token, the same priced row."""
    as_dataclass = paper_scenario()
    as_dict = Scenario(TrainingRunConfig(**as_dataclass.config.to_dict()))
    assert isinstance(as_dict.config.host_latency, dict)
    assert template_key(as_dict.config) == template_key(as_dataclass.config)
    hash(ReplayEngine._structural_token(as_dict.config))
    engine = ReplayEngine()
    assert (comparable(price_one(engine, as_dict))
            == comparable(run_scenario(as_dict))
            == comparable(run_scenario(as_dataclass)))


def test_latency_free_template_key_is_the_one_parent_stores_were_written_under():
    config = TrainingRunConfig(model="mlp", batch_size=32, iterations=2,
                               execution_mode="symbolic")
    assert template_key(config) == (
        "23443ef8d49e94727e992ebb7f1bc348fa940c2bf197987523bab9212dbea85d")


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
    {"execution_mode": "eager", "batch_size": 64},  # outside: simulated
    {"swap": "lru"},
], ids=["symbolic", "symbolic-2dev", "eager", "swap-on"])
def test_runner_trace_is_the_fresh_sessions_trace(overrides):
    scenario = paper_scenario(**overrides)
    runner = SweepRunner()
    assert_same_trace(runner.trace(scenario),
                      run_training_session(scenario.config).trace)
    in_envelope = "execution_mode" not in overrides and "swap" not in overrides
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
    monkeypatch.setattr(replay_module, "run_training_session", no_simulation)
    monkeypatch.setattr(sweep_module, "run_training_session", no_simulation)
    second = SweepRunner(cache_dir=tmp_path)
    scenario.config.device_spec = "v100_sxm2_16gb"
    rebuilt = second.trace(scenario)
    assert second._ensure_replay_engine().templates_compiled == 0
    assert rebuilt.columns().timestamp_ns[-1] != first.columns().timestamp_ns[-1]
    monkeypatch.undo()
    assert_same_trace(rebuilt, run_training_session(scenario.config).trace)
