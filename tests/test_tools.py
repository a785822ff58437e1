"""Tests for the repository tooling under ``tools/``."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def decide():
    return _load("bench_pairs").decide


PARENT = [93.7, 92.3, 93.7, 98.1, 91.8, 91.7, 93.4, 92.9, 93.0, 94.1]


def test_nine_wins_and_a_gap_beyond_the_parents_spread_is_a_gain(decide):
    change = [90.5, 107.8, 110.6, 107.9, 106.0, 105.8, 108.3, 107.0, 109.1, 106.4]
    verdict = decide(PARENT, change, "higher", 0.25)
    assert (verdict["wins"], verdict["losses"], verdict["pairs"]) == (9, 1, 10)
    assert verdict["gap_exceeds_parent_iqr"] and verdict["gain"] and not verdict["regression"]
    assert verdict["ratio"] == pytest.approx(107.4 / 93.2)
    assert verdict["parent"]["q1"] <= verdict["parent"]["median"] <= verdict["parent"]["q3"]


def test_eight_wins_of_ten_is_not_a_gain_however_large_the_gap(decide):
    change = [90.5, 90.0, 110.6, 107.9, 106.0, 105.8, 108.3, 107.0, 109.1, 106.4]
    verdict = decide(PARENT, change, "higher", 0.25)
    assert verdict["wins"] == 8 and verdict["gap_exceeds_parent_iqr"] and not verdict["gain"]


def test_a_tie_counts_for_neither_side(decide):
    change = [value + 10 for value in PARENT]
    change[3], change[7] = PARENT[3], PARENT[7]
    verdict = decide(PARENT, change, "higher", 0.25)
    assert (verdict["wins"], verdict["losses"]) == (8, 0) and not verdict["gain"]
    change[7] += 10
    assert decide(PARENT, change, "higher", 0.25)["gain"]      # 9 wins, one tie


def test_ten_wins_inside_the_parents_spread_is_not_a_gain(decide):
    change = [value + 0.1 for value in PARENT]
    verdict = decide(PARENT, change, "higher", 0.25)
    assert verdict["wins"] == 10 and not verdict["gap_exceeds_parent_iqr"] and not verdict["gain"]


def test_lower_is_better_metrics_flip_the_direction_and_bounds_flag_regressions(decide):
    setup = [0.30, 0.31, 0.30, 0.32, 0.30, 0.31, 0.30, 0.31, 0.30, 0.30]
    faster = [value - 0.05 for value in setup]
    assert decide(setup, faster, "lower", 0.25)["gain"]
    assert decide(setup, faster, "higher", 0.25)["wins"] == 0
    slower = [value * 1.3 for value in setup]
    verdict = decide(setup, slower, "lower", 0.25)
    assert verdict["regression"] and not verdict["gain"] and verdict["losses"] == 10
    assert not decide(setup, [value * 1.2 for value in setup], "lower", 0.25)["regression"]
    assert decide(PARENT, [value * 0.7 for value in PARENT], "higher", 0.25)["regression"]


def test_single_pair_and_mismatched_readings(decide):
    verdict = decide([10.0], [12.0], "higher", 0.25)
    assert verdict["wins"] == 1 and verdict["gain"] and verdict["parent"]["q1"] == 10.0
    with pytest.raises(ValueError):
        decide([1.0, 2.0], [1.0], "higher", 0.25)
    with pytest.raises(ValueError):
        decide([], [], "higher", 0.25)


# -- tools/kernel_probe.py --------------------------------------------------------------


def test_kernel_probe_table_ranks_each_case_against_its_fastest_kernel():
    table = _load("kernel_probe").table
    text = table([("order statistics 2 x 3", {"percentile": (8.0, 12.0), "sort": (2.0, 0.0)}),
                  ("group by block id, n = 6", {"stable argsort": (0.5, 0.0),
                                                "unique-key argsort": (0.125, 2212.0)})])
    assert text.splitlines() == [
        "order statistics 2 x 3           percentile 8.000 ms (4.0x, 12 faults), "
        "sort 2.000 ms (1.0x, 0 faults)",
        "group by block id, n = 6         stable argsort 0.500 ms (4.0x, 0 faults), "
        "unique-key argsort 0.125 ms (1.0x, 2,212 faults)"]
    assert table([]) == ""


def test_kernel_probe_times_every_case_it_names():
    import numpy as np

    probe = _load("kernel_probe")
    rows = probe.probe(np.random.default_rng(0))
    cases = [case for case, _timings in rows]
    assert len(cases) == len(set(cases)) == 11
    assert all(ms > 0 and faults >= 0
               for _case, timings in rows for ms, faults in timings.values())
    assert {kernel for _case, timings in rows for kernel in timings} >= {
        "percentile", "8-pivot partition", "sort", "stable argsort",
        "unique-key argsort", "per-row mean", "axis mean",
        "allocating chain", "two owned buffers"}
    assert probe.table(rows).splitlines()[0].startswith("block temporaries 64 x 3500 ")


def test_kernel_probe_block_chains_compute_the_same_arrays():
    import numpy as np

    chains = _load("kernel_probe").block_chain(np.random.default_rng(3), 5, 40)
    allocating, owned = chains["allocating chain"](), chains["two owned buffers"]()
    assert [array.tobytes() for array in allocating] == [array.tobytes() for array in owned]


# -- tools/capture_probe.py -------------------------------------------------------------


def test_capture_probe_times_a_tiny_config_and_finds_equal_results():
    probe = _load("capture_probe")
    ((label, config),) = probe.configs(
        {"mlp": dict(model="mlp", dataset="two_cluster", batch_size=16,
                     model_kwargs={"hidden_dim": 32})}, devices=(2,))
    assert label == "mlp x 2" and config.n_devices == 2
    assert (config.iterations, config.seed) == (3, 3)
    row = probe.probe(config, repeats=1)
    assert row["equal"] is True
    assert row["simulate_ms"] > 0 and row["compile_ms"] > 0
    assert row["ratio"] == pytest.approx(row["compile_ms"] / row["simulate_ms"])
    lines = probe.table([(label, row)]).splitlines()
    assert lines[0].split() == ["config", "simulate", "ms", "compile", "ms", "ratio", "results"]
    assert lines[1].startswith("mlp x 2 ") and lines[1].endswith("x  equal")


def test_capture_probe_covers_three_structures_at_one_and_two_devices():
    labels = [label for label, _config in _load("capture_probe").configs()]
    assert labels == ["resnet18 x 1", "resnet18 x 2", "vgg11 x 1", "vgg11 x 2",
                      "mlp x 1", "mlp x 2"]
