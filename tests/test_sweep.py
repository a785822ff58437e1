"""Tests for the scenario-sweep engine (grid expansion, caching, parallelism)."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.experiments.grid import AXES
from repro.experiments.sweep import (
    RESULT_SCHEMA_VERSION,
    Scenario,
    ScenarioResult,
    SweepGrid,
    SweepRunner,
    run_scenario,
)
from repro.train.session import TrainingRunConfig


def tiny_grid(**overrides):
    """A fast virtual-mode grid used throughout this module."""
    settings = dict(
        models=("mlp",),
        batch_sizes=(16, 32),
        iterations=(2,),
        allocators=("caching",),
        model_kwargs={"hidden_dim": 32},
        dataset="two_cluster",
        execution_mode="symbolic",
    )
    settings.update(overrides)
    return SweepGrid(**settings)


# -- grid expansion -------------------------------------------------------------------


def test_grid_expansion_is_full_cross_product():
    grid = tiny_grid(batch_sizes=(16, 32, 64), allocators=("caching", "bump"),
                     iterations=(1, 2), seeds=(0, 7))
    scenarios = grid.expand()
    assert grid.size() == 3 * 2 * 2 * 2
    assert len(scenarios) == grid.size()
    seen = {(s.config.batch_size, s.config.allocator, s.config.iterations, s.config.seed)
            for s in scenarios}
    assert len(seen) == len(scenarios)
    assert all(s.config.model == "mlp" for s in scenarios)
    assert all(s.config.model_kwargs == {"hidden_dim": 32} for s in scenarios)


def test_grid_expansion_order_is_deterministic():
    grid = tiny_grid(batch_sizes=(32, 16), allocators=("bump", "caching"))
    first = [s.describe() for s in grid.expand()]
    second = [s.describe() for s in grid.expand()]
    assert first == second
    # Dimension order is respected: batch sizes in declared order, outermost first.
    assert [s.config.batch_size for s in grid.expand()] == [32, 32, 16, 16]


@st.composite
def _axis_lengths(draw):
    """1-3 values per axis, on at most four axes at once (3**13 is too many)."""
    wide = draw(st.sets(st.sampled_from([axis for axis, _ in AXES]), max_size=4))
    return {axis: draw(st.integers(2, 3)) if axis in wide else 1 for axis, _ in AXES}


@settings(max_examples=40, deadline=None)
@given(_axis_lengths())
def test_grid_size_equals_expansion_length_for_any_axis_lengths(lengths):
    values = {
        "models": ("mlp", "paper_mlp", "lenet5"), "batch_sizes": (16, 32, 48),
        "iterations": (1, 2, 3), "allocators": ("caching", "bump", "best_fit"),
        "device_specs": ("titan_x_pascal", "v100_sxm2_16gb", "a100_sxm4_40gb"),
        "dtypes": ("float32", "float16", "bfloat16"), "n_devices": (1, 2, 4),
        "interconnects": ("pcie_gen3", "nvlink2", "pcie_gen4"),
        "swaps": ("off", "lru", "unified"),
        "device_memory_capacities": (None, 1 << 30, 1 << 31),
        "host_dispatch_overheads_ns": (None, 1_300, 2_600), "seeds": (0, 7, 9),
        "swap_policies": ("none", "planner", "recompute"),
    }
    assert set(values) == {axis for axis, _ in AXES}
    grid = SweepGrid(**{axis: values[axis][:length]
                        for axis, length in lengths.items()})
    scenarios = grid.expand()
    assert grid.size() == len(scenarios) == math.prod(lengths.values())
    points = {tuple(scenario.swap_policy if field == "swap_policy"
                    else getattr(scenario.config, field) for _, field in AXES)
              for scenario in scenarios}
    assert len(points) == len(scenarios)


def test_axis_table_names_every_sequence_field_of_the_grid_once():
    import dataclasses
    sequence_fields = [f.name for f in dataclasses.fields(SweepGrid)
                       if str(f.type).startswith("Sequence")]
    assert sorted(axis for axis, _ in AXES) == sorted(sequence_fields)
    config_fields = {f.name for f in dataclasses.fields(TrainingRunConfig)}
    assert [field for _, field in AXES[:-1] if field not in config_fields] == []
    assert AXES[-1] == ("swap_policies", "swap_policy")   # varies fastest


#: ``Scenario.key()`` of the grid below, in expansion order, as the commit
#: before the axis table (68e6b2c) produced them.
_GOLDEN_KEYS = [
    "d4cf278847c0b4529ca81b17d70a80b4a7cc4d83cf2264861ac63bde1b0d2156",
    "e2fff303954ea620f240a8fa7ec511dd0bdc105cf13d9940d5a05a37c577f216",
    "80fe0b36448b5473cc4497f54d3e47f9425a79c02dfc8d5c1527723b3895e974",
    "680cb39a199555d4bbe490d41b8275ca7d0932379c9baaa357d7a3c37bb5f788",
    "98cb0500c8615a12371d64d5a025299d431952dc23e6f7610b8f3ad4d11194f1",
    "77506ffaa440bbd359fda0be1fe38ec9470c2b3e56998ee4dcc5b9f09aab95ed",
    "613c9b7e52570c011d53ef7ba2300c14a0a981e7978745d33d198944ad8fb3ac",
    "9656bf45ef1f17cee50f7da71e69295db5bdc3b17ec59384394cffc4574529eb",
    "93b354e9c5bcb71fc24c4d84ea7ba27e8f8e487e84998f10dbe0233e91e4e6cc",
    "9c64a2ac656dda0ac98dbba6640247be745de6c764f0df837674f306980cdfd8",
    "09d23cfe80fa44c10af9e0ed11d9472ebb70e86122077d079bbe27ef343734e6",
    "20757d253f06a464646c205dbbb0bb18e2dab9e6b1932ac429be26ce32f0d83a",
    "28949665531509a4ffcd402130d4a95fa5df3ad91799783cd4745445b267df3e",
    "5cc10e57cfe7acf0d4bff5ed8011787ffd3845fe899da8dd61b1a8cb0e1fab87",
    "892e2dc084980092a1f743c65462fc88a63b580185dc38271e96d9784f1e0b3e",
    "55108661cffa37368b1ef12407920c2cdc10361ef70f6da2b65a934bc60555c8",
]


def test_expansion_order_and_keys_match_the_hand_enumerated_grid():
    """Every axis and shared scalar off its default, four axes two wide."""
    grid = SweepGrid(
        models=("mlp", "paper_mlp"), batch_sizes=(48,), iterations=(3,),
        allocators=("caching", "bump"), swap_policies=("none", "planner"),
        device_specs=("v100_sxm2_16gb",), dtypes=("float16",), n_devices=(2,),
        interconnects=("nvlink2",), swaps=("off", "unified"),
        device_memory_capacities=(1 << 30,), host_dispatch_overheads_ns=(1300,),
        seeds=(9,), dataset="two_cluster", execution_mode="replay",
        model_kwargs={"hidden_dim": 128}, dataset_kwargs={"num_samples": 96},
        optimizer="adam", allreduce_algorithm="naive")
    scenarios = grid.expand()
    assert [scenario.key() for scenario in scenarios] == _GOLDEN_KEYS
    assert [(s.config.model, s.config.allocator, s.config.swap, s.swap_policy)
            for s in scenarios[:5]] == [
        ("mlp", "caching", "off", "none"), ("mlp", "caching", "off", "planner"),
        ("mlp", "caching", "unified", "none"), ("mlp", "caching", "unified", "planner"),
        ("mlp", "bump", "off", "none")]
    first = scenarios[0]
    assert first.via_replay and first.config.execution_mode == "symbolic"
    assert first.config.label == "mlp-batch48-caching"
    assert first.config.model_kwargs is not grid.model_kwargs


def test_grid_rejects_unknown_swap_policy():
    with pytest.raises(ValueError, match="unknown swap policy"):
        tiny_grid(swap_policies=("teleport",)).expand()


def test_scenario_key_ignores_label_but_not_workload():
    config_a = TrainingRunConfig(model="mlp", batch_size=16, iterations=2,
                                 execution_mode="symbolic", label="a")
    config_b = TrainingRunConfig(model="mlp", batch_size=16, iterations=2,
                                 execution_mode="symbolic", label="something else")
    config_c = TrainingRunConfig(model="mlp", batch_size=32, iterations=2,
                                 execution_mode="symbolic", label="a")
    assert Scenario(config_a).key() == Scenario(config_b).key()
    assert Scenario(config_a).key() != Scenario(config_c).key()
    assert Scenario(config_a, swap_policy="planner").key() != Scenario(config_a).key()


def _literal_key(scenario, bandwidths=None):
    """The content address as first written down: plain ``json.dumps`` + sha256."""
    import hashlib

    canonical = json.dumps(scenario.fingerprint(bandwidths), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@st.composite
def _drawn_grids(draw):
    from repro.data.loader import HostLatencyModel

    subset = lambda values: draw(st.lists(st.sampled_from(values), min_size=1,
                                          max_size=2, unique=True))
    return SweepGrid(
        models=subset(["mlp", "paper_mlp", "resnet18"]),
        batch_sizes=subset([8, 48, 512]), iterations=(draw(st.integers(1, 4)),),
        allocators=subset(["caching", "bump", "best_fit"]),
        swap_policies=subset(["none", "planner"]),
        device_specs=subset(["titan_x_pascal", "v100_sxm2_16gb", "ampere_a100_40gb"]),
        dtypes=subset(["float32", "float16"]), n_devices=subset([1, 2]),
        interconnects=subset(["pcie_gen3", "nvlink2"]),
        device_memory_capacities=subset([None, 1 << 30]),
        host_dispatch_overheads_ns=subset([None, 250, 11_975]),
        seeds=(draw(st.integers(0, 10**6)),),
        execution_mode=draw(st.sampled_from(["symbolic", "replay", "eager"])),
        model_kwargs=draw(st.sampled_from([{}, {"hidden_dim": 128}])),
        host_latency=draw(st.sampled_from(
            [None, HostLatencyModel(per_batch_ns=1_000_000, per_byte_ns=0.25)])))


@settings(max_examples=25, deadline=None)
@given(_drawn_grids(), st.booleans())
def test_scenario_key_is_the_literal_json_sha256_recipe(grid, override):
    from repro.core.swap import BandwidthConfig

    bandwidths = (BandwidthConfig(h2d_bytes_per_s=5.5e9, d2h_bytes_per_s=6.5e9)
                  if override else None)
    for scenario in grid.expand():
        assert scenario.key(bandwidths) == _literal_key(scenario, bandwidths)
        assert (scenario.key(fingerprint=scenario.fingerprint(bandwidths))
                == _literal_key(scenario, bandwidths))
        resolved = scenario.resolve_bandwidths(bandwidths)
        assert resolved is scenario.resolve_bandwidths(bandwidths)   # one record per preset
        assert scenario.key(resolved) == _literal_key(scenario, bandwidths)


def test_a_cache_written_by_the_literal_recipe_is_served_and_rewritten_equal(
        tmp_path, monkeypatch):
    """Entries are content addresses: a store the parent commit wrote must be
    served whole, and the runner's own entries are those bytes."""
    grid = tiny_grid(device_specs=("titan_x_pascal", "v100_sxm2_16gb"),
                     execution_mode="replay")
    scenarios = grid.expand()
    results = SweepRunner(cache_dir=None).run(scenarios).results
    parent_store, own_store = tmp_path / "parent", tmp_path / "own"
    parent_store.mkdir()
    for scenario, result in zip(scenarios, results):
        (parent_store / f"{_literal_key(scenario)}.json").write_text(json.dumps({
            "schema_version": RESULT_SCHEMA_VERSION,
            "fingerprint": scenario.fingerprint(),
            "result": result.to_dict()}))
    served = SweepRunner(cache_dir=parent_store).run(scenarios)
    assert (served.cache_hits, served.cache_misses) == (len(scenarios), 0)

    fingerprints = []
    original = Scenario.fingerprint
    monkeypatch.setattr(Scenario, "fingerprint", lambda scenario, bandwidths=None: (
        fingerprints.append(scenario), original(scenario, bandwidths))[1])
    written = SweepRunner(cache_dir=own_store).run(scenarios)
    assert [id(s) for s in fingerprints] == [id(s) for s in scenarios]   # once each
    for scenario, result in zip(scenarios, written.results):
        entry = json.loads((own_store / f"{result.key}.json").read_text())
        theirs = json.loads((parent_store / f"{result.key}.json").read_text())
        entry["result"]["wall_time_s"] = theirs["result"]["wall_time_s"] = 0.0
        assert json.dumps(entry) == json.dumps(theirs)


def test_config_to_dict_matches_dataclasses_asdict():
    """Scenario fingerprints hash ``config.to_dict()``; it must stay a faithful
    (recursion-free) mirror of ``dataclasses.asdict`` or cache keys drift."""
    import dataclasses

    config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 32},
                               batch_size=16, iterations=2, dtype="float16",
                               n_devices=2, host_dispatch_overhead_ns=2_000,
                               execution_mode="symbolic")
    assert config.to_dict() == dataclasses.asdict(config)
    # A mutation of the returned mapping must not leak back into the config.
    config.to_dict()["model_kwargs"]["hidden_dim"] = 64
    assert config.model_kwargs == {"hidden_dim": 32}


# -- scenario execution ---------------------------------------------------------------


def test_run_scenario_produces_complete_metrics():
    scenario = tiny_grid().expand()[0]
    result = run_scenario(scenario)
    assert result.key == scenario.key()
    assert result.num_events > 0
    assert result.num_blocks > 0
    assert result.peak_allocated_bytes > 0
    assert result.peak_live_bytes > 0
    assert result.step_time_s_mean > 0
    assert result.ati["count"] > 0
    assert 0.0 <= result.swappable_fraction <= 1.0
    assert result.swap is None
    assert set(result.breakdown["bucket_bytes"]) == {
        "input data", "parameters", "intermediate results"}
    assert not result.from_cache


def test_run_scenario_swap_policies_report_savings():
    base = tiny_grid().expand()[0]
    for policy in ("planner", "swap_advisor", "zero_offload"):
        result = run_scenario(Scenario(config=base.config, swap_policy=policy))
        assert result.swap is not None
        assert result.swap["policy"] == policy
        assert result.swap["savings_bytes"] >= 0


def test_scenario_result_round_trips_through_json():
    result = run_scenario(tiny_grid().expand()[0])
    data = json.loads(json.dumps(result.to_dict()))
    restored = ScenarioResult.from_dict(data)
    assert restored.to_dict() == result.to_dict()


def test_results_are_deterministic_under_seed():
    scenario = tiny_grid().expand()[0]
    first = run_scenario(scenario).to_dict()
    second = run_scenario(scenario).to_dict()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


# -- caching --------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    runner = SweepRunner(cache_dir=tmp_path / "sweeps")
    grid = tiny_grid()
    first = runner.run(grid)
    assert (first.cache_hits, first.cache_misses) == (0, 2)
    assert not any(result.from_cache for result in first.results)

    second = runner.run(grid)
    assert (second.cache_hits, second.cache_misses) == (2, 0)
    assert all(result.from_cache for result in second.results)

    def comparable(sweep):
        rows = []
        for result in sweep.results:
            data = result.to_dict()
            data.pop("wall_time_s")
            rows.append(data)
        return rows

    assert comparable(first) == comparable(second)


def test_cache_disabled_runner_never_reads(tmp_path):
    cache_dir = tmp_path / "sweeps"
    grid = tiny_grid(batch_sizes=(16,))
    SweepRunner(cache_dir=cache_dir).run(grid)
    rerun = SweepRunner(cache_dir=cache_dir, use_cache=False).run(grid)
    assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)


def test_corrupt_cache_entry_is_treated_as_miss(tmp_path):
    cache_dir = tmp_path / "sweeps"
    runner = SweepRunner(cache_dir=cache_dir)
    grid = tiny_grid(batch_sizes=(16,))
    runner.run(grid)
    entries = list(cache_dir.glob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("{not json", encoding="utf-8")
    again = runner.run(grid)
    assert (again.cache_hits, again.cache_misses) == (0, 1)
    # The corrupt entry was rewritten and is valid again.
    payload = json.loads(entries[0].read_text(encoding="utf-8"))
    assert payload["schema_version"] == RESULT_SCHEMA_VERSION


def test_schema_version_mismatch_invalidates_cache(tmp_path):
    cache_dir = tmp_path / "sweeps"
    runner = SweepRunner(cache_dir=cache_dir)
    grid = tiny_grid(batch_sizes=(16,))
    runner.run(grid)
    entry = next(cache_dir.glob("*.json"))
    payload = json.loads(entry.read_text(encoding="utf-8"))
    payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
    entry.write_text(json.dumps(payload), encoding="utf-8")
    again = runner.run(grid)
    assert (again.cache_hits, again.cache_misses) == (0, 1)


def test_cache_key_depends_on_bandwidths(tmp_path):
    """Results computed under different Eq.-1 bandwidths never share an entry."""
    from repro.core.swap import BandwidthConfig

    cache_dir = tmp_path / "sweeps"
    grid = tiny_grid(batch_sizes=(16,))
    paper = SweepRunner(cache_dir=cache_dir).run(grid)
    assert paper.results[0].swappable_fraction > 0.0

    slow = BandwidthConfig(h2d_bytes_per_s=1e3, d2h_bytes_per_s=1e3)
    crawling = SweepRunner(cache_dir=cache_dir, bandwidths=slow).run(grid)
    assert (crawling.cache_hits, crawling.cache_misses) == (0, 1)
    assert crawling.results[0].swappable_fraction == 0.0
    # And the paper-bandwidth entry is still served to a default runner.
    again = SweepRunner(cache_dir=cache_dir).run(grid)
    assert again.cache_hits == 1
    assert again.results[0].swappable_fraction == paper.results[0].swappable_fraction


def test_failing_scenario_does_not_discard_completed_results(tmp_path):
    """Completed scenarios are cached even when a later scenario raises."""
    from repro.errors import ReproError

    cache_dir = tmp_path / "sweeps"
    runner = SweepRunner(cache_dir=cache_dir)
    good = tiny_grid(batch_sizes=(16,)).expand()
    # lenet5 cannot consume the 2-D two_cluster samples: this scenario raises.
    bad = Scenario(config=TrainingRunConfig(model="lenet5", dataset="two_cluster",
                                            batch_size=16, iterations=2,
                                            execution_mode="symbolic"))
    with pytest.raises(ReproError):
        runner.run(good + [bad])
    # The good scenario's result survived the failure and is served from cache.
    rerun = runner.run(good)
    assert (rerun.cache_hits, rerun.cache_misses) == (1, 0)


def test_clear_cache_removes_entries(tmp_path):
    cache_dir = tmp_path / "sweeps"
    runner = SweepRunner(cache_dir=cache_dir)
    runner.run(tiny_grid())
    assert runner.clear_cache() == 2
    assert list(cache_dir.glob("*.json")) == []


# -- parallelism ----------------------------------------------------------------------


def test_parallel_run_matches_serial_run(tmp_path):
    grid = tiny_grid(batch_sizes=(16, 24, 32, 48))
    serial = SweepRunner(workers=1).run(grid)
    with SweepRunner(workers=2) as runner:
        parallel = runner.run(grid)

    def comparable(sweep):
        rows = []
        for result in sweep.results:
            data = result.to_dict()
            data.pop("wall_time_s")
            rows.append(data)
        return rows

    assert comparable(serial) == comparable(parallel)


# -- aggregation ----------------------------------------------------------------------


def test_sweep_result_rows_and_table():
    sweep = SweepRunner().run(tiny_grid())
    rows = sweep.rows()
    assert len(rows) == 2
    assert rows[0]["batch_size"] == 16
    assert rows[1]["batch_size"] == 32
    for row in rows:
        assert {"model", "allocator", "peak_alloc_mib", "step_time_ms",
                "ati_p50_us", "swappable_frac", "cached"} <= set(row)
    table = sweep.summary_table()
    assert "batch_size" in table
    assert "peak_alloc_mib" in table


# -- CLI ------------------------------------------------------------------------------


def test_cli_sweep_dry_run(capsys):
    code = cli_main(["sweep", "--models", "mlp", "--batch-sizes", "16,32",
                     "--allocators", "caching,bump", "--dry-run"])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 scenario(s):" in out
    assert "alloc=bump" in out


def test_cli_sweep_rejects_unknown_dimension_values(capsys):
    for argv in (["sweep", "--models", "mlp", "--allocators", "cachng"],
                 ["sweep", "--models", "not_a_model"],
                 ["sweep", "--models", "mlp", "--swap-policies", "teleport"],
                 ["sweep", "--models", "mlp", "--devices", "tpu9000"]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "choose from" in err


def test_cli_sweep_runs_and_caches(tmp_path, capsys):
    argv = ["sweep", "--models", "mlp", "--batch-sizes", "16",
            "--cache-dir", str(tmp_path / "c"), "--json"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "1 cached" not in out
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "(1 cached, 0 executed" in out
    rows = json.loads(out[:out.rindex("]") + 1])
    assert rows[0]["model"] == "mlp"
    assert rows[0]["cached"] is True


# -- new axes: dtype, device, policy registry -----------------------------------------


def test_grid_expands_dtype_axis():
    grid = tiny_grid(dtypes=("float32", "float16"))
    scenarios = grid.expand()
    assert grid.size() == 4 == len(scenarios)
    # dtype varies fastest of the two (inside each batch size), declared order.
    assert [(s.config.batch_size, s.config.dtype) for s in scenarios] == [
        (16, "float32"), (16, "float16"), (32, "float32"), (32, "float16")]
    assert all("dtype=" in s.describe() for s in scenarios)


def test_dtype_axis_changes_footprint_and_cache_key():
    grid = tiny_grid(batch_sizes=(32,), dtypes=("float32", "float16"))
    f32, f16 = grid.expand()
    assert f32.key() != f16.key()
    r32, r16 = run_scenario(f32), run_scenario(f16)
    assert r16.scenario["dtype"] == "float16"
    # Half precision roughly halves the parameter bytes and shrinks the peak.
    assert r16.parameter_bytes * 2 == r32.parameter_bytes
    assert r16.peak_allocated_bytes < r32.peak_allocated_bytes


def test_registry_policies_run_through_the_sweep():
    base = tiny_grid(batch_sizes=(16,)).expand()[0]
    for policy in ("recompute", "pruning", "quantization"):
        result = run_scenario(Scenario(config=base.config, swap_policy=policy))
        assert result.swap is not None
        assert result.swap["policy"] == policy
        assert result.swap["savings_bytes"] >= 0


def test_device_axis_resolves_eq1_bandwidths_from_spec():
    from repro.core.swap import BandwidthConfig
    from repro.device.spec import get_device_spec

    titan = tiny_grid(batch_sizes=(16,)).expand()[0]
    v100 = tiny_grid(batch_sizes=(16,), device_specs=("v100_sxm2_16gb",)).expand()[0]
    assert titan.key() != v100.key()
    resolved = v100.resolve_bandwidths()
    spec = get_device_spec("v100_sxm2_16gb")
    assert resolved.h2d_bytes_per_s == spec.h2d_bandwidth
    # An explicit override still wins over the device spec.
    override = BandwidthConfig(h2d_bytes_per_s=1.0, d2h_bytes_per_s=1.0)
    assert v100.resolve_bandwidths(override) is override


def test_a_run_resolves_each_scenarios_bandwidths_once(monkeypatch):
    """Keys and the replay phase share one resolution per scenario."""
    resolved = []
    original = Scenario.resolve_bandwidths

    def counting(scenario, bandwidths=None):
        if bandwidths is None:
            resolved.append(scenario)
        return original(scenario, bandwidths)

    monkeypatch.setattr(Scenario, "resolve_bandwidths", counting)
    scenarios = tiny_grid(execution_mode="replay",
                          device_specs=("titan_x_pascal", "v100_sxm2_16gb")).expand()
    sweep = SweepRunner().run(scenarios)
    assert sweep.replayed == len(scenarios) == 4
    assert [id(s) for s in resolved] == [id(s) for s in scenarios]


def test_summary_table_shows_dtype_and_device_columns():
    sweep = SweepRunner().run(tiny_grid(batch_sizes=(16,), dtypes=("float16",)))
    table = sweep.summary_table()
    assert "dtype" in table and "float16" in table
    assert "device_spec" in table and "titan_x_pascal" in table


def test_cli_sweep_rejects_unknown_dtype(capsys):
    assert cli_main(["sweep", "--models", "mlp", "--dtypes", "float8"]) == 2
    err = capsys.readouterr().err
    assert "--dtypes" in err and "choose from" in err


def test_parallel_failure_keeps_chunkmates_and_reraises(tmp_path):
    """A failing scenario inside a chunk neither hides the error nor
    discards the results of scenarios that shared its pool task."""
    from repro.errors import ReproError

    cache_dir = tmp_path / "sweeps"
    good = tiny_grid(batch_sizes=(16, 24, 32)).expand()
    bad = Scenario(config=TrainingRunConfig(model="lenet5", dataset="two_cluster",
                                            batch_size=16, iterations=2,
                                            execution_mode="symbolic"))
    with SweepRunner(cache_dir=cache_dir, workers=2, chunk_size=2) as runner:
        with pytest.raises(ReproError):
            runner.run(good + [bad])
        rerun = runner.run(good)
    assert (rerun.cache_hits, rerun.cache_misses) == (3, 0)


def test_runner_pool_is_reused_across_runs():
    """The worker pool persists between run() calls (no per-sweep respawn)."""
    with SweepRunner(workers=2) as runner:
        runner.run(tiny_grid(batch_sizes=(16, 24)))
        first_pool = runner._executor._pool
        assert first_pool is not None
        runner.run(tiny_grid(batch_sizes=(32, 48)))
        assert runner._executor._pool is first_pool
    assert runner._executor._pool is None            # close() shut it down


def test_chunking_covers_every_scenario_exactly_once():
    runner = SweepRunner(workers=3, chunk_size=None)
    missing = [(index, None) for index in range(10)]
    chunks = runner._executor._chunks(missing)
    flattened = [entry for chunk in chunks for entry in chunk]
    assert flattened == missing
    explicit = SweepRunner(workers=3, chunk_size=4)._executor._chunks(missing)
    assert [len(chunk) for chunk in explicit] == [4, 4, 2]


def test_rows_report_per_scenario_wall_time():
    sweep = SweepRunner(workers=1).run(tiny_grid(batch_sizes=(16,)))
    row = sweep.rows()[0]
    assert "wall_s" in row and row["wall_s"] >= 0.0
    assert "wall_s" in sweep.summary_table().splitlines()[0]


def test_parallel_failure_carries_worker_traceback(tmp_path):
    """In-band worker failures re-raise with the remote traceback chained."""
    from repro.errors import ReproError

    good = tiny_grid(batch_sizes=(16, 24)).expand()
    bad = Scenario(config=TrainingRunConfig(model="lenet5", dataset="two_cluster",
                                            batch_size=16, iterations=2,
                                            execution_mode="symbolic"))
    with SweepRunner(workers=2, chunk_size=1) as runner:
        with pytest.raises(ReproError) as caught:
            runner.run(good + [bad])
    assert caught.value.__cause__ is not None
    assert "run_scenario" in str(caught.value.__cause__)
