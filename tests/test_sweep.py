"""Tests for the scenario-sweep engine (grid expansion, caching, parallelism)."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.core.swap import BandwidthConfig
from repro.experiments.executor import _run_scenario_chunk
from repro.experiments.grid import AXES, structure_token
from repro.experiments.replay import template_key
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
    """A fast grid used throughout this module."""
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


#: ``Scenario.key()`` of the grid below, in expansion order, under result
#: schema v8 (one execution mode: ``execution_mode`` left every fingerprint).
_GOLDEN_KEYS = [
    "c8b1a3080f2b07c33f281658c378d486705b589f6be8f211dae4ccfe3652814c",
    "52851cd64d34bdfb3a97ecc3515699aaf994aab786dc433c81c42ed8a62355fa",
    "452ae7b6d2eccbce309295da827d79542f0244042d30ec342abbd382838c2035",
    "b82587c870e7835a9a4c81a368b74f4900f0fcb66c33aad24897eb7669008b52",
    "52ed45fa857c3a2719116308a080f0ce9288d1d54ab12d6d755dd45c165572fd",
    "88fbc195145958ba5ad918f87cbeefe738574c36a0320c8f89964c278b7b66a6",
    "095a63794082122f20e2d7741ddd88a2605651d5f83f743c129b14ab66e82103",
    "c1b77cd2726427aa2bedd3abb894e5cbf67fabc515906a833bf96b8e92bb0ace",
    "03b89e19ffff4136f145193cd8c3e1bb43e1ea94b2f4cbeec37397fe4e3f616b",
    "c6a1ce98959a57b561bbc89ce14cf196fe689e9cc11c1a7fcac69b05b1500f54",
    "2c57e1712add7a539b3e5f486f9d7fb9319f8ba285224dd24b7eb94dac6d4a36",
    "1388eb465d0c49912fcead55646fd95bb863debadfd19d3bed78e01722e905fe",
    "3c0bdd7191293ff47aeb70c47775a834c34e164daa9effe416de3d9a20d0cb9b",
    "ac3bb24287cb5e29c6bd262d848e409fe5bda136de57f0eaed60981ba85e751d",
    "065207b2e5964bb816cf4bbe123d25c9c1f04d734b7051f8ef35600cd0ba9fa2",
    "182a9ac18fef8daec49086e2804fb28dc0a51a985f68d8dcb7dfea2fb9f7b9b3",
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
    assert first.via_replay
    assert first.config.label == "mlp-batch48-caching"
    assert first.config.model_kwargs is not grid.model_kwargs


def test_grid_rejects_unknown_swap_policy():
    with pytest.raises(ValueError, match="unknown swap policy"):
        tiny_grid(swap_policies=("teleport",)).expand()


def test_scenario_key_ignores_label_but_not_workload():
    config_a = TrainingRunConfig(model="mlp", batch_size=16, iterations=2,
                                 label="a")
    config_b = TrainingRunConfig(model="mlp", batch_size=16, iterations=2,
                                 label="something else")
    config_c = TrainingRunConfig(model="mlp", batch_size=32, iterations=2,
                                 label="a")
    assert Scenario(config_a).key() == Scenario(config_b).key()
    assert Scenario(config_a).key() != Scenario(config_c).key()
    assert Scenario(config_a, swap_policy="planner").key() != Scenario(config_a).key()


def _literal_key(scenario):
    """The content address as first written down: plain ``json.dumps`` + sha256."""
    import hashlib

    canonical = json.dumps(scenario.fingerprint(), sort_keys=True,
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
        execution_mode=draw(st.sampled_from(["symbolic", "replay"])),
        model_kwargs=draw(st.sampled_from([{}, {"hidden_dim": 128}])),
        host_latency=draw(st.sampled_from(
            [None, HostLatencyModel(per_batch_ns=1_000_000, per_byte_ns=0.25)])))


#: Values that compare equal but encode apart (``1`` / ``1.0`` / ``true``,
#: ``0.0`` / ``-0.0``), so a key or token that loses the type shows up.
_TWINS = [1, 1.0, True, 0.0, -0.0, 0]


@st.composite
def _drawn_scenarios(draw):
    """One scenario drawn field by field from small pools (so tokens collide),
    with the values a grid never produces: type twins, bools, nested kwargs,
    a latency model as a dataclass or as its dict."""
    from repro.data.loader import HostLatencyModel

    leaf = st.sampled_from(_TWINS + [False, 2, 2.5, "x", None])
    kwargs = st.dictionaries(
        st.sampled_from(["hidden_dim", "flag", "scale"]),
        st.recursive(leaf, lambda inner: st.dictionaries(
            st.sampled_from(["a", "b"]), inner, max_size=2), max_leaves=4),
        max_size=2)
    latency = draw(st.sampled_from(
        [None, HostLatencyModel(), HostLatencyModel(per_batch_ns=0, per_byte_ns=1)]))
    if latency is not None and draw(st.booleans()):
        latency = dataclasses.asdict(latency)
    pick = lambda *values: draw(st.sampled_from(values))
    config = TrainingRunConfig(
        model=pick("mlp", "resnet18"), model_kwargs=draw(kwargs),
        dataset_kwargs=draw(kwargs), batch_size=pick(8, 8.0),
        iterations=pick(2, 3), learning_rate=draw(st.sampled_from(_TWINS)),
        momentum=pick(0.9, 0, 0.0), dtype=pick("float32", "float16"),
        seed=pick(0, 0.0, 7),
        host_latency=latency, swap=pick("off", "off", "lru"),
        device_spec=pick("titan_x_pascal", "v100_sxm2_16gb"),
        host_dispatch_overhead_ns=pick(None, 250, 250.0, 11_975),
        device_memory_capacity=pick(None, 1 << 30),
        interconnect=pick("pcie_gen3", "nvlink2"),
        allreduce_algorithm=pick("ring", "naive"), label=pick("", "a"))
    return Scenario(config, swap_policy=pick("none", "planner"))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_drawn_grids().map(SweepGrid.expand),
                 st.lists(_drawn_scenarios(), min_size=1, max_size=6)))
def test_scenario_key_is_the_literal_json_sha256_recipe(scenarios):
    for scenario in scenarios:
        literal = _literal_key(scenario)
        assert scenario.key() == literal
        assert scenario.key(structure_token(scenario.config)) == literal
        resolved = scenario.resolve_bandwidths()
        assert resolved is scenario.resolve_bandwidths()   # one record per preset
        assert scenario.fingerprint()["bandwidths"] == {
            "h2d_bytes_per_s": resolved.h2d_bytes_per_s,
            "d2h_bytes_per_s": resolved.d2h_bytes_per_s}


@st.composite
def _drawn_relatives(draw):
    """A drawn scenario and copies of it that each change a few fields to
    another value of their pool — type twins and pricing fields included —
    so that tokens meet often."""
    base = draw(_drawn_scenarios())
    pools = {"learning_rate": _TWINS, "momentum": [0.9, 0, 0.0],
             "seed": [0, 0.0, False], "batch_size": [8, 8.0],
             "model_kwargs": [{}, {"a": 1}, {"a": 1.0}, {"a": True}],
             "device_spec": ["titan_x_pascal", "v100_sxm2_16gb"],
             "host_dispatch_overhead_ns": [None, 250, 250.0]}
    relatives = [base]
    for _ in range(draw(st.integers(1, 6))):
        changed = draw(st.dictionaries(st.sampled_from(sorted(pools)),
                                       st.integers(0, 5), max_size=3))
        relatives.append(Scenario(dataclasses.replace(base.config, **{
            name: pools[name][index % len(pools[name])]
            for name, index in changed.items()})))
    return relatives


@settings(max_examples=100, deadline=None)
@given(_drawn_relatives())
def test_equal_tokens_mean_equal_template_keys(scenarios):
    """The replay engine groups rows by token and compiles one template per
    group, so a token must not join configs whose template keys differ
    (``1`` and ``1.0`` compare equal, but their JSON does not)."""
    template_keys = {}
    for scenario in scenarios:
        if scenario.config.swap != "off":
            continue
        token = structure_token(scenario.config)
        assert template_keys.setdefault(token, template_key(scenario.config)) \
            == template_key(scenario.config)


def test_type_twins_split_the_token_and_the_key():
    twins = [TrainingRunConfig(model="mlp", learning_rate=value) for value in _TWINS]
    twins += [TrainingRunConfig(model="mlp", model_kwargs={"a": {"b": value}})
              for value in _TWINS]
    assert len({structure_token(config) for config in twins}) == len(twins)
    assert len({Scenario(config).key() for config in twins}) == len(twins)
    for config in twins:
        assert Scenario(config).key() == _literal_key(Scenario(config))


#: Strings that need escaping or leave ASCII: quotes, backslashes, control
#: characters, U+2028, accents, astral characters and lone surrogates.
_json_strings = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x7f", "\u2028", "\u00e9", "\U0001f600"]))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_strings
    | st.sampled_from([10**40, -(2**63), -0.0, 1e300, -1e-300, 0.1]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_canonical_json_is_sorted_compact_json_dumps(value):
    """Every key and structure token hashes ``_canonical_json`` text (and
    ``_json_value``'s scalar shortcuts), so both must be ``json.dumps`` with
    sorted keys and compact separators for any JSON value."""
    from repro.experiments import grid

    expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert grid._canonical_json(value) == expected
    assert grid._json_value(value) == expected


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
    monkeypatch.setattr(Scenario, "fingerprint", lambda scenario: (
        fingerprints.append(scenario), original(scenario))[1])
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
                               n_devices=2, host_dispatch_overhead_ns=2_000)
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
    """Results computed under different Eq.-1 bandwidths never share an entry:
    two device specs with different link bandwidths get one entry each, and
    each entry's fingerprint carries its own spec's bandwidths."""
    from repro.device.spec import get_device_spec

    specs = ("titan_x_pascal", "v100_sxm2_16gb")
    links = {name: {"h2d_bytes_per_s": get_device_spec(name).h2d_bandwidth,
                    "d2h_bytes_per_s": get_device_spec(name).d2h_bandwidth}
             for name in specs}
    assert links[specs[0]] != links[specs[1]]
    cache_dir = tmp_path / "sweeps"
    runner = SweepRunner(cache_dir=cache_dir)
    titan = runner.run(tiny_grid(batch_sizes=(16,), device_specs=specs[:1]))
    both = runner.run(tiny_grid(batch_sizes=(16,), device_specs=specs))
    assert (both.cache_hits, both.cache_misses) == (1, 1)
    assert both.results[0].to_dict() == titan.results[0].to_dict()
    assert len({result.key for result in both.results}) == 2
    for result in both.results:
        entry = json.loads((cache_dir / f"{result.key}.json").read_text())
        assert entry["fingerprint"]["bandwidths"] == links[result.scenario["device_spec"]]


def test_failing_scenario_does_not_discard_completed_results(tmp_path):
    """Completed scenarios are cached even when a later scenario raises."""
    from repro.errors import ReproError

    cache_dir = tmp_path / "sweeps"
    runner = SweepRunner(cache_dir=cache_dir)
    good = tiny_grid(batch_sizes=(16,)).expand()
    # lenet5 cannot consume the 2-D two_cluster samples: this scenario raises.
    bad = Scenario(config=TrainingRunConfig(model="lenet5", dataset="two_cluster",
                                            batch_size=16, iterations=2))
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
    assert "(1 cached, 0 replayed, 0 simulated, 0 failed," in out
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
    from repro.device.spec import get_device_spec

    titan = tiny_grid(batch_sizes=(16,)).expand()[0]
    v100 = tiny_grid(batch_sizes=(16,), device_specs=("v100_sxm2_16gb",)).expand()[0]
    assert titan.key() != v100.key()
    resolved = v100.resolve_bandwidths()
    spec = get_device_spec("v100_sxm2_16gb")
    assert resolved == BandwidthConfig(h2d_bytes_per_s=spec.h2d_bandwidth,
                                       d2h_bytes_per_s=spec.d2h_bandwidth)


def test_a_run_resolves_each_scenarios_bandwidths_once(monkeypatch):
    """The replay phase resolves each row once; keys read the preset table."""
    resolved = []
    original = Scenario.resolve_bandwidths

    def counting(scenario):
        resolved.append(scenario)
        return original(scenario)

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
                                            batch_size=16, iterations=2))
    outcomes = _run_scenario_chunk(good[:1] + [bad] + good[1:2],
                                   ["k0", "k1", "k2"], [0, 0, 0], None)
    assert [type(outcome).__name__ for outcome in outcomes] == [
        "ScenarioResult", "_ScenarioFailure", "ScenarioResult"]
    assert [outcomes[0].key, outcomes[2].key] == ["k0", "k2"]
    with SweepRunner(cache_dir=cache_dir, workers=2) as runner:
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
    """About four chunks per worker, never less than one scenario each."""
    executor = SweepRunner(workers=3)._executor
    for count, sizes in ((10, [1] * 10), (30, [3] * 10), (31, [3] * 10 + [1])):
        missing = [(index, None) for index in range(count)]
        chunks = executor._chunks(missing)
        assert [entry for chunk in chunks for entry in chunk] == missing
        assert [len(chunk) for chunk in chunks] == sizes


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
                                            batch_size=16, iterations=2))
    with SweepRunner(workers=2) as runner:
        with pytest.raises(ReproError) as caught:
            runner.run(good + [bad])
    assert caught.value.__cause__ is not None
    assert "run_scenario" in str(caught.value.__cause__)
