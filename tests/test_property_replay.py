"""Property tests for template replay over randomly sampled scenario grids.

Complementing the exactness suite (which diffs replay against fresh runs on
a fixed matrix), these tests sample random pricing/structure points and
check invariants that must hold for *any* replay: per-rank time must be
monotone along the tape, the footprint peaks must be consistently ordered,
and a result served from the cache must be bitwise identical to the replay
that produced it.
"""

import dataclasses
import functools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.loader import HostLatencyModel
from repro.experiments.replay import ReplayEngine, shared_stable_order
from repro.experiments.sweep import Scenario, SweepGrid, SweepRunner, run_scenario
from repro.train.session import TrainingRunConfig

from tests.helpers import price_one, reference_price_times

MODELS = [("mlp", {"hidden_dim": 32}, "two_cluster", 16),
          ("paper_mlp", {}, "two_cluster", 32),
          ("lenet5", {"num_classes": 10}, "mnist", 4)]
DEVICE_SPECS = ["titan_x_pascal", "v100_sxm2_16gb", "gtx_1080_8gb",
                "ampere_a100_40gb"]
INTERCONNECTS = ["pcie_gen3", "nvlink2", "ethernet_25g"]
HOST_LATENCY = HostLatencyModel(per_batch_ns=1_500_000, per_sample_ns=30_000)

#: ``pytest --hypothesis-profile=replay-wide`` (``make replay-smoke``) draws
#: every property below at the profile's count instead of its tier-1 one.
WIDE = settings.get_current_profile_name() == "replay-wide"


def examples(narrow: int) -> int:
    return settings.default.max_examples if WIDE else narrow


def sample_config(rng: random.Random) -> TrainingRunConfig:
    model, model_kwargs, dataset, batch_size = rng.choice(MODELS)
    return TrainingRunConfig(
        model=model, model_kwargs=model_kwargs, dataset=dataset,
        batch_size=batch_size, iterations=rng.choice([1, 2, 3]),
        allocator=rng.choice(["caching", "bump"]),
        device_spec=rng.choice(DEVICE_SPECS),
        dtype=rng.choice(["float32", "float16"]),
        n_devices=rng.choice([1, 2]),
        interconnect=rng.choice(INTERCONNECTS),
        host_dispatch_overhead_ns=rng.choice([None, 2_000, 9_000]),
        host_latency=rng.choice([None, HOST_LATENCY]),
        seed=rng.choice([0, 7]),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_replayed_timestamps_are_monotone_per_rank(seed):
    """Along every rank's tape, resolved time never goes backwards, and every
    event lands inside the rank's [start, end] window."""
    rng = random.Random(seed)
    engine = ReplayEngine()
    for _ in range(3):
        config = sample_config(rng)
        template = engine.template_for(config)
        assert template is not None, config
        times, _, _ = template._price_times([config])
        for rank, absolute in zip(template.classes,
                                  template._class_times(times[0])):
            assert absolute.size == rank.tape_kind.size + 1
            assert np.all(np.diff(absolute) >= 0)
            if rank.event_tape_pos.size:
                stamps = absolute[rank.event_tape_pos]
                assert stamps[0] >= absolute[0]
                assert stamps[-1] <= absolute[-1]


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_replayed_peaks_are_consistently_ordered(seed):
    """live peak <= allocated peak <= reserved peak, for any pricing point."""
    rng = random.Random(seed)
    engine = ReplayEngine()
    for _ in range(3):
        config = sample_config(rng)
        scenario = Scenario(config=config)
        result = price_one(engine, scenario)
        assert result is not None, config
        # The live peak aggregates the merged (cluster-wide) trace while the
        # allocated/reserved peaks are per-replica — same as a fresh run.
        assert (0 < result.peak_live_bytes
                <= config.n_devices * result.peak_allocated_bytes)
        assert result.peak_allocated_bytes <= result.peak_reserved_bytes
        assert 0.0 < result.mean_utilization <= 1.0
        assert 0.0 <= result.swappable_fraction <= 1.0
        assert result.step_time_s_total >= result.step_time_s_mean > 0.0


def test_repricing_responds_to_the_timing_axes():
    """Not just consistent — the replayed clock actually moves with pricing:
    a slower dispatch path can only lengthen the run, a faster interconnect
    can only shorten the collectives."""
    engine = ReplayEngine()

    def total_s(**overrides):
        config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 32},
                                   batch_size=16, iterations=2, n_devices=2,
                                   **overrides)
        scenario = Scenario(config=config)
        return price_one(engine, scenario)

    slow = total_s(host_dispatch_overhead_ns=20_000)
    fast = total_s(host_dispatch_overhead_ns=1_000)
    assert slow.step_time_s_total > fast.step_time_s_total

    pcie = total_s(interconnect="pcie_gen3")
    nvlink = total_s(interconnect="nvlink2")
    assert (pcie.collective["total_time_ns"] > nvlink.collective["total_time_ns"])
    assert engine.templates_compiled == 1  # one structure served all four


def test_cache_hit_rows_are_bitwise_identical(tmp_path):
    """A replayed result read back from the cache is byte-for-byte the row
    that was stored (including wall_time_s, which the cache preserves)."""
    grid = SweepGrid(models=("mlp",), model_kwargs={"hidden_dim": 32},
                     batch_sizes=(16,), iterations=(2,),
                     device_specs=("titan_x_pascal", "v100_sxm2_16gb"),
                     execution_mode="replay")
    first = SweepRunner(cache_dir=tmp_path).run(grid)
    assert first.replayed == len(first.results) == 2
    second = SweepRunner(cache_dir=tmp_path).run(grid)
    assert second.cache_hits == 2 and second.replayed == 0
    for stored, loaded in zip(first.results, second.results):
        assert loaded.from_cache
        assert (json.dumps(stored.to_dict(), sort_keys=True)
                == json.dumps(loaded.to_dict(), sort_keys=True))


@pytest.mark.parametrize("seed", [20, 21, 22, 23])
def test_batched_repricing_matches_scalar_replay(seed):
    """For any randomly drawn scenario grid, ``price_batch`` is
    element-for-element bit-identical to pricing each scenario alone —
    whether a row takes the vectorized broadcast or the per-scenario
    fallback inside :meth:`TraceTemplate.replay_batch`."""
    rng = random.Random(seed)
    scenarios = [Scenario(config=sample_config(rng)) for _ in range(6)]
    bandwidths = [s.resolve_bandwidths() for s in scenarios]
    scalar = [price_one(ReplayEngine(), s, bw)
              for s, bw in zip(scenarios, bandwidths)]
    batched = ReplayEngine().price_batch(scenarios, bandwidths)
    for one, many in zip(scalar, batched):
        assert one is not None and many is not None
        one, many = one.to_dict(), many.to_dict()
        one.pop("wall_time_s"), many.pop("wall_time_s")
        assert one == many


multi_rank_pricing_points = st.fixed_dictionaries({
    "device_spec": st.sampled_from(DEVICE_SPECS),
    "interconnect": st.sampled_from(INTERCONNECTS),
    "allreduce_algorithm": st.sampled_from(["ring", "naive"]),
    "host_dispatch_overhead_ns": st.one_of(st.none(),
                                           st.integers(0, 50_000)),
})


#: (model, model kwargs, dataset) of the multi-rank structures below.
WORKLOADS = {"mlp": ({"hidden_dim": 64}, "two_cluster"),
             "resnet18": ({"input_size": 32, "num_classes": 10}, "cifar10")}


def multi_rank_config(model, n_devices, batch_size, **fields):
    model_kwargs, dataset = WORKLOADS[model]
    return TrainingRunConfig(
        model=model, model_kwargs=model_kwargs, dataset=dataset,
        batch_size=batch_size, iterations=2, n_devices=n_devices,
        seed=5, **fields)


@settings(max_examples=examples(15), deadline=None)
@given(structure=st.sampled_from([("mlp", 2, 16), ("mlp", 2, 17), ("mlp", 3, 16),
                                  ("mlp", 4, 18), ("resnet18", 2, 8),
                                  ("resnet18", 2, 7)]),
       dtype=st.sampled_from(["float32", "float16"]),
       points=st.lists(multi_rank_pricing_points, min_size=1, max_size=3),
       dispatches=st.lists(st.integers(0, 50_000), max_size=4))
def test_multi_rank_batches_match_fresh_simulation(structure, dtype, points,
                                                   dispatches):
    """Any multi-rank pricing grid priced in one batch equals fresh symbolic
    simulation, row for row: even and uneven shards, each point with several
    rows at dispatch costs from 0 to 50k ns — the rows of a point sharing
    its merged event order (resnet18 at 2 x 8) or each sorting its own
    (resnet18 at 2 x 7)."""
    scenarios = [Scenario(config=multi_rank_config(
        *structure, dtype=dtype, **dict(point, host_dispatch_overhead_ns=dispatch)))
        for point in points
        for dispatch in [point["host_dispatch_overhead_ns"], *dispatches]]
    engine = ReplayEngine()
    batched = engine.price_batch(
        scenarios, [s.resolve_bandwidths() for s in scenarios])
    assert engine.templates_compiled == 1 and engine.fallback_reasons == {}
    for scenario, result in zip(scenarios, batched):
        one, many = run_scenario(scenario).to_dict(), result.to_dict()
        one.pop("wall_time_s"), many.pop("wall_time_s")
        assert one == many


@settings(max_examples=examples(100), deadline=None)
@given(data=st.data())
def test_a_shared_order_is_the_stable_order_at_every_dispatch_cost(data):
    """Synthetic affine clocks ``base + d · slope`` (tied base clocks, tied
    kernel counts): whenever :func:`shared_stable_order` shares an order over
    ``[low, high]``, it is the stable argsort at every ``d`` in the range."""
    size = data.draw(st.integers(1, 30))
    column = lambda values: np.array(data.draw(st.lists(
        values, min_size=size, max_size=size)), dtype=np.int64)
    base, slope = column(st.integers(0, 300)), column(st.integers(0, 6))
    low = data.draw(st.integers(0, 300))
    high = data.draw(st.integers(low, low + 200))
    order = shared_stable_order(base, slope, low, high)
    orders = [np.argsort(base + d * slope, kind="stable")
              for d in range(low, high + 1)]
    if order is None:
        assert not np.array_equal(orders[0], orders[-1])
    for stable in orders if order is not None else ():
        assert np.array_equal(order, stable)


@pytest.mark.parametrize("batch_size,shared", [(8, True), (7, False)])
def test_rows_of_a_point_share_one_breakdown_when_their_order_does(
        batch_size, shared, monkeypatch):
    """A 32-row two-device grid over 4 points (2 specs x 2 interconnects x 8
    dispatch costs): on even shards every point's rows share one merged
    order, so the breakdown is computed once per point; uneven shards move
    the order with the dispatch cost (at 2 x 7 it differs at every ``d`` in
    {0, 10^2, ..., 10^6}), so each row computes its own."""
    from repro.experiments import replay

    base = multi_rank_config("resnet18", 2, batch_size)
    template = ReplayEngine().template_for(base)
    batch = template._batch_arrays()
    columns = batch.merged.life_col
    times = template._price_points([base]).times[0]
    orders = {np.argsort(times[columns] + d * batch.kernels_before[columns],
                         kind="stable").tobytes()
              for d in [0] + [10 ** exponent for exponent in range(2, 7)]}
    assert len(orders) == (1 if shared else 6)

    calls = []
    breakdown = replay.occupation_from_columns
    monkeypatch.setattr(replay, "occupation_from_columns",
                        lambda *args, **kwargs: calls.append(args) or breakdown(
                            *args, **kwargs))
    scenarios = [Scenario(config=dataclasses.replace(
        base, device_spec=spec, interconnect=link, host_dispatch_overhead_ns=d))
        for spec in ("titan_x_pascal", "v100_sxm2_16gb")
        for link in ("pcie_gen3", "nvlink2")
        for d in range(200, 12_000, 1_475)]
    assert len(scenarios) == 32
    priced = template.replay_batch(scenarios,
                                   [s.resolve_bandwidths() for s in scenarios])
    assert len(calls) == (4 if shared else 32)
    for index in (0, 31):
        one, many = run_scenario(scenarios[index]).to_dict(), priced[index].to_dict()
        one.pop("wall_time_s"), many.pop("wall_time_s")
        assert one == many


def test_memoized_replays_are_deterministic():
    """Pricing the same scenario twice through one engine gives identical
    rows (wall time aside) — replay holds no mutable state per scenario."""
    engine = ReplayEngine()
    scenario = Scenario(config=TrainingRunConfig(
        model="mlp", model_kwargs={"hidden_dim": 32}, batch_size=16,
        iterations=2))
    bandwidths = scenario.resolve_bandwidths()
    first = price_one(engine, scenario, bandwidths).to_dict()
    second = price_one(engine, scenario, bandwidths).to_dict()
    first.pop("wall_time_s"), second.pop("wall_time_s")
    assert first == second


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_row_blocks_price_what_one_broadcast_prices(block_rows, monkeypatch):
    """``price_batch`` bounds its time matrices by pricing a structure group
    in row blocks; rows are independent, so any block size gives the same
    results — single- and multi-rank, policy-free and policy-carrying rows,
    with the declined rows still declined."""
    from repro.experiments import replay

    rng = random.Random(31)
    base = [sample_config(rng) for _ in range(2)]
    grid = [Scenario(config=TrainingRunConfig(**{
        **config.to_dict(), "device_spec": spec, "host_dispatch_overhead_ns": overhead}),
        swap_policy=policy)
        for config in base for spec in DEVICE_SPECS
        for overhead in (None, 3_000) for policy in ("none", "planner")]
    grid.append(Scenario(config=TrainingRunConfig(**{**base[0].to_dict(), "swap": "lru"})))
    bandwidths = [s.resolve_bandwidths() for s in grid]

    def priced():
        engine = ReplayEngine()
        rows = []
        for result in engine.price_batch(grid, bandwidths):
            row = result.to_dict() if result is not None else {}
            row.pop("wall_time_s", None)
            rows.append(row)
        return rows, engine.replayed, engine.fallback_reasons

    assert len(grid) > replay.PRICE_BLOCK_ROWS // 2
    monkeypatch.setattr(replay, "PRICE_BLOCK_ROWS", len(grid))
    unblocked = priced()
    assert unblocked[1] == len(grid) - 1 and unblocked[0][-1] == {}
    monkeypatch.setattr(replay, "PRICE_BLOCK_ROWS", block_rows)
    assert priced() == unblocked


@functools.lru_cache(maxsize=None)
def _structure_template(n_devices, batch_size, host_latency):
    config = TrainingRunConfig(
        model="mlp", model_kwargs={"hidden_dim": 64}, dataset="two_cluster",
        batch_size=batch_size, iterations=2, n_devices=n_devices,
        host_latency=HOST_LATENCY if host_latency else None,
        seed=5)
    return config, ReplayEngine().template_for(config)


pricing_points = st.fixed_dictionaries({
    "device_spec": st.sampled_from(DEVICE_SPECS),
    "interconnect": st.sampled_from(INTERCONNECTS),
    "allreduce_algorithm": st.sampled_from(["ring", "naive"]),
})
dispatch_costs = st.one_of(st.none(), st.just(0), st.integers(0, 50_000))


@settings(max_examples=examples(25), deadline=None)
@given(structure=st.sampled_from([(1, 16), (2, 16), (2, 17), (3, 16), (4, 16),
                                  (4, 18)]),
       host_latency=st.booleans(),
       points=st.lists(pricing_points, min_size=1, max_size=3),
       rows=st.lists(st.tuples(st.integers(0, 2), dispatch_costs),
                     min_size=1, max_size=8),
       data=st.data())
def test_rows_read_off_their_points_equal_the_per_row_repricer(
        structure, host_latency, points, rows, data):
    """Every clock reading of every row — its point priced once, plus
    dispatch × kernels launched — equals the per-row repricer element for
    element, whatever the replica count, shards, host latency, collective
    and dispatch; and a sample of the batch's rows equals fresh simulation."""
    base, template = _structure_template(*structure, host_latency)
    configs = [dataclasses.replace(base, host_dispatch_overhead_ns=dispatch,
                                   **points[point % len(points)])
               for point, dispatch in rows]
    times, costs, clusters = template._price_times(configs)
    expected_times, expected_costs, expected_clusters = reference_price_times(
        template, configs)
    assert times.dtype == expected_times.dtype == np.int64
    assert np.array_equal(times, expected_times)
    assert np.array_equal(costs, expected_costs)
    assert clusters == expected_clusters

    scenarios = [Scenario(config=config) for config in configs]
    priced = template.replay_batch(
        scenarios, [s.resolve_bandwidths() for s in scenarios])
    for index in data.draw(st.sets(st.integers(0, len(rows) - 1),
                                   min_size=1, max_size=2)):
        one = run_scenario(scenarios[index]).to_dict()
        many = priced[index].to_dict()
        one.pop("wall_time_s"), many.pop("wall_time_s")
        assert one == many
