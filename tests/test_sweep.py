"""Tests for the scenario-sweep engine (grid expansion, caching, parallelism)."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.sweep import (
    RESULT_SCHEMA_VERSION,
    Scenario,
    ScenarioResult,
    SweepGrid,
    SweepRunner,
    run_scenario,
    run_sweep,
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
    sweep = run_sweep(tiny_grid())
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


def test_sweep_result_filter_and_breakdown_series():
    sweep = run_sweep(tiny_grid(allocators=("caching", "bump")))
    assert len(sweep.filter(allocator="bump")) == 2
    assert len(sweep.filter(allocator="bump", batch_size=16)) == 1
    series = sweep.breakdown_series("batch_size")
    assert len(series.entries) == 4
    assert all(breakdown.total_bytes > 0 for _, breakdown in series.entries)


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


def test_summary_table_shows_dtype_and_device_columns():
    sweep = run_sweep(tiny_grid(batch_sizes=(16,), dtypes=("float16",)))
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
        first_pool = runner._pool
        assert first_pool is not None
        runner.run(tiny_grid(batch_sizes=(32, 48)))
        assert runner._pool is first_pool
    assert runner._pool is None            # close() shut it down


def test_chunking_covers_every_scenario_exactly_once():
    runner = SweepRunner(workers=3, chunk_size=None)
    missing = [(index, None) for index in range(10)]
    chunks = runner._chunks(missing)
    flattened = [entry for chunk in chunks for entry in chunk]
    assert flattened == missing
    explicit = SweepRunner(workers=3, chunk_size=4)._chunks(missing)
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
