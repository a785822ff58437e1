"""Tests for the cluster layer: interconnects, allreduce cost models,
DeviceGroup, CollectiveEngine, and the DeviceGroup(n=1) equivalence."""

import pytest

from repro.core.profiler import MemoryProfiler
from repro.data.datasets import build_dataset
from repro.data.loader import DataLoader
from repro.device import (
    ALLREDUCE_ALGORITHMS,
    ClusterSpec,
    CollectiveEngine,
    DeviceGroup,
    INTERCONNECT_PRESETS,
    InterconnectSpec,
    get_interconnect,
    naive_allreduce_time_ns,
    ring_allreduce_time_ns,
    small_test_device,
)
from repro.errors import ConfigurationError
from repro.models.registry import build_model
from repro.nn import SGD, CrossEntropyLoss
from repro.train import Trainer, TrainingRunConfig, run_training_session
from repro.train.session import build_device

from tests.helpers import trace_events

MIB = 1024 * 1024


# -- allreduce cost models ------------------------------------------------------------


def test_ring_allreduce_formula_is_exact():
    # 2(N-1) steps of latency + chunk/bandwidth with chunk = S/N.
    nbytes, n, bw, lat = 64 * MIB, 4, 10e9, 5_000
    steps = 2 * (n - 1)
    expected = round(steps * (lat + 1e9 * (nbytes / n) / bw))
    assert ring_allreduce_time_ns(nbytes, n, bw, lat) == expected


def test_naive_allreduce_formula_is_exact():
    nbytes, n, bw, lat = 64 * MIB, 4, 10e9, 5_000
    steps = 2 * (n - 1)
    expected = round(steps * (lat + 1e9 * nbytes / bw))
    assert naive_allreduce_time_ns(nbytes, n, bw, lat) == expected


def test_allreduce_costs_zero_for_one_device_or_no_bytes():
    for model in ALLREDUCE_ALGORITHMS.values():
        assert model(64 * MIB, 1, 10e9, 5_000) == 0
        assert model(0, 8, 10e9, 5_000) == 0


def test_ring_beats_naive_at_every_cluster_size():
    # Ring pipelines S/N chunks; naive serializes the full buffer per step,
    # so ring is exactly N times cheaper at zero latency.
    for n in (2, 3, 4, 8):
        ring = ring_allreduce_time_ns(64 * MIB, n, 10e9, 0)
        naive = naive_allreduce_time_ns(64 * MIB, n, 10e9, 0)
        assert ring < naive
        assert naive == pytest.approx(n * ring, abs=n)


def test_bandwidth_term_scales_inversely():
    # With zero latency the time is purely bandwidth-bound: 2x the link
    # bandwidth must exactly halve the allreduce.
    slow = ring_allreduce_time_ns(128 * MIB, 4, 10e9, 0)
    fast = ring_allreduce_time_ns(128 * MIB, 4, 20e9, 0)
    assert slow == pytest.approx(2 * fast, abs=1)


def test_latency_term_dominates_tiny_messages():
    # With an (effectively) infinite link the cost is the per-step latency.
    lat = 7_000
    for n in (2, 4, 8):
        assert ring_allreduce_time_ns(8, n, 1e18, lat) == 2 * (n - 1) * lat
        assert naive_allreduce_time_ns(8, n, 1e18, lat) == 2 * (n - 1) * lat


def test_ring_allreduce_approaches_bandwidth_limit():
    # Ring moves 2(N-1)/N * S per link: the time must *grow* with N toward
    # the 2*S/B asymptote, never reach double it.
    times = [ring_allreduce_time_ns(256 * MIB, n, 10e9, 0) for n in (2, 4, 8, 16)]
    assert times == sorted(times)
    assert times[-1] < 2 * 1e9 * 256 * MIB / 10e9


# -- specs ----------------------------------------------------------------------------


def test_interconnect_presets_resolve_and_validate():
    for name in INTERCONNECT_PRESETS:
        spec = get_interconnect(name)
        assert spec.name == name
        assert spec.bandwidth > 0
    with pytest.raises(KeyError, match="unknown interconnect"):
        get_interconnect("token_ring")
    with pytest.raises(ConfigurationError):
        InterconnectSpec(name="bad", bandwidth=-1, latency_ns=0)


def test_cluster_spec_validates_and_costs():
    cluster = ClusterSpec(device=small_test_device(), n_devices=4,
                          interconnect=get_interconnect("pcie_gen3"))
    assert cluster.allreduce_time_ns(64 * MIB) == ring_allreduce_time_ns(
        64 * MIB, 4, 12e9, 10_000)
    naive = ClusterSpec(device=small_test_device(), n_devices=4,
                        allreduce_algorithm="naive")
    assert naive.allreduce_time_ns(64 * MIB) > cluster.allreduce_time_ns(64 * MIB)
    with pytest.raises(ConfigurationError):
        ClusterSpec(device=small_test_device(), n_devices=0)
    with pytest.raises(ConfigurationError):
        ClusterSpec(device=small_test_device(), allreduce_algorithm="quantum")


def test_cluster_spec_defaults_to_pcie_gen3():
    cluster = ClusterSpec(device=small_test_device(), n_devices=2)
    assert cluster.interconnect.name == "pcie_gen3"


# -- the collective engine ------------------------------------------------------------


def test_collective_engine_barriers_and_advances_all_clocks():
    group = DeviceGroup(ClusterSpec(device=small_test_device(), n_devices=3))
    group[0].clock.advance(1_000)
    group[1].clock.advance(5_000)  # the straggler defines the start
    record = group.collective.allreduce(MIB, tag="grads")
    assert record.start_ns == 5_000
    assert record.duration_ns == ring_allreduce_time_ns(MIB, 3, 12e9, 10_000)
    assert {device.clock.now_ns for device in group} == {record.end_ns}
    assert record.world_size == 3
    summary = group.collective.summary()
    assert summary["count"] == 1
    assert summary["total_bytes"] == MIB
    assert summary["interconnect"] == "pcie_gen3"


def test_collective_engine_is_free_for_one_replica():
    group = DeviceGroup.single(small_test_device())
    group[0].clock.advance(123)
    record = group.collective.allreduce(16 * MIB)
    assert record.duration_ns == 0
    assert group[0].clock.now_ns == 123


def test_allreduce_waits_for_the_straggler():
    group = DeviceGroup(ClusterSpec(device=small_test_device(), n_devices=2))
    group[1].clock.advance(9_999)
    record = group.collective.allreduce(MIB)
    assert record.start_ns == 9_999
    assert {device.clock.now_ns for device in group} == {record.end_ns}


def test_device_group_says_what_it_holds():
    """Five ranks in two classes: the world stays five, two are simulated."""
    cluster = ClusterSpec(device=small_test_device(), n_devices=5)
    group = DeviceGroup(cluster, rank_classes=[171, 171, 170, 171, 170])
    assert group.n_devices == group.collective.world_size == 5
    assert group.n_materialized == len(group) == len(list(group)) == 2
    assert group.rank_classes == (0, 0, 1, 0, 1)
    assert group.class_ranks == ((0, 1, 3), (2, 4))
    assert "n=5" in repr(group) and "materialized=2" in repr(group)

    big = group[0].allocate(4 * MIB)
    group[1].allocate(1 * MIB)
    placements = [device.place() for device in group]
    assert sum(placement.stats.allocated_bytes * len(ranks)
               for placement, ranks in zip(placements, group.class_ranks)) == \
        3 * placements[0].size[big] + 2 * MIB
    assert max(placement.stats.peak_allocated_bytes
               for placement in placements) == placements[0].size[big]

    group[1].clock.advance(50_000)   # the straggler class sets the barrier
    latest = group[1].clock.now_ns
    record = group.collective.allreduce(MIB)
    assert record.start_ns == latest
    assert {device.clock.now_ns for device in group} == {record.end_ns}
    assert record.world_size == 5
    assert record.duration_ns == ring_allreduce_time_ns(MIB, 5, 12e9, 10_000)
    assert group.collective.summary()["world_size"] == 5

    default = DeviceGroup(cluster)   # unlabelled: every rank is its own class
    assert default.n_materialized == default.n_devices == 5
    assert default.rank_classes == (0, 1, 2, 3, 4)
    with pytest.raises(ConfigurationError):
        DeviceGroup(cluster, rank_classes=[0, 0, 1])


# -- DeviceGroup(n=1) equivalence -----------------------------------------------------


def _classic_single_device_trace(config):
    """The historical single-Device pipeline, reproduced piece by piece."""
    device = build_device(config)
    profiler = MemoryProfiler(device)
    model = build_model(config.model, device, **dict(config.model_kwargs))
    dataset = build_dataset(config.dataset, **dict(config.dataset_kwargs))
    loader = DataLoader(dataset, batch_size=config.batch_size,
                        host_latency=config.host_latency)
    loss_fn = CrossEntropyLoss(device, name="loss")
    optimizer = SGD(model.parameters(), lr=config.learning_rate,
                    momentum=config.momentum)
    trainer = Trainer(model, loader, optimizer, loss_fn, device)
    trainer.train(config.iterations)
    return profiler.trace(), trainer


def _events(trace):
    """Event dicts, raw block ids and addresses included: both are numbered
    and laid out per placement, so two runs of one workload share them."""
    return [event._asdict() for event in trace_events(trace)]


@pytest.mark.parametrize("batch_size,iterations", [(16, 3), (32, 2), (64, 4)])
def test_device_group_of_one_reproduces_the_single_device_trace(batch_size, iterations):
    """Property: the data-parallel path with one replica is event-identical
    to the historical single-device Trainer pipeline."""
    config = TrainingRunConfig(
        model="mlp", model_kwargs={"hidden_dim": 32}, batch_size=batch_size,
        iterations=iterations, n_devices=1)
    session = run_training_session(config)
    classic_trace, classic_trainer = _classic_single_device_trace(config)

    assert _events(session.trace) == _events(classic_trace)
    assert ([mark.to_dict() for mark in session.trace.iteration_marks]
            == [mark.to_dict() for mark in classic_trace.iteration_marks])
    assert session.trace.end_ns == classic_trace.end_ns
    assert ([stats.duration_ns for stats in session.iteration_stats]
            == [stats.duration_ns for stats in classic_trainer.history])
    assert session.n_devices == 1
    assert session.collective is None


# -- multi-rank sweeps through the cache ----------------------------------------------


def test_multi_rank_sweep_smoke_through_the_cache(tmp_path):
    from repro.experiments.sweep import SweepGrid, SweepRunner

    grid = SweepGrid(models=("mlp",), model_kwargs={"hidden_dim": 32},
                     batch_sizes=(32,), iterations=(2,), n_devices=(1, 2, 4),
                     execution_mode="symbolic")
    runner = SweepRunner(cache_dir=tmp_path / "sweeps")
    cold = runner.run(grid)
    assert cold.cache_misses == 3 and cold.cache_hits == 0
    warm = SweepRunner(cache_dir=tmp_path / "sweeps").run(grid)
    assert warm.cache_hits == 3 and warm.cache_misses == 0

    by_n = {result.scenario["n_devices"]: result for result in warm.results}
    assert set(by_n) == {1, 2, 4}
    # Per-device peak shrinks as the global batch is sharded.
    assert (by_n[1].peak_allocated_bytes > by_n[2].peak_allocated_bytes
            > by_n[4].peak_allocated_bytes)
    # The collective summary is cached alongside (None for one replica).
    assert by_n[1].collective is None
    assert by_n[2].collective["world_size"] == 2
    assert by_n[4].collective["total_time_ns"] > by_n[2].collective["total_time_ns"]
    # Cached and fresh rows agree byte for byte.
    assert [r.row() for r in warm.results] == [
        {**row.row(), "cached": True} for row in cold.results]
