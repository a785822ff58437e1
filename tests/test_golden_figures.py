"""Golden-number regression tests for the figure experiments (tiny configs).

``test_experiments.py`` asserts the paper's *qualitative* claims; these tests
pin the *exact numbers* produced by scaled-down configurations of every
figure experiment, so numeric drift introduced by a ``core/`` refactor
(event columnization, ATI pairing, breakdown attribution) is caught
immediately.

The simulation is fully deterministic under a fixed seed, so integer byte
counts are compared exactly; float statistics use a tight relative tolerance
(they only depend on deterministic arithmetic, the tolerance merely absorbs
library-level reassociation).
"""

import numpy as np
import pytest

from repro.experiments import (
    paper_mlp_config,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    small_mlp_config,
)
from repro.experiments.sweep import SweepRunner

from tests.helpers import json_digest

REL = 1e-9

#: The reduced paper MLP (batch 512, 3 symbolic iterations) figs 3 and 4 share.
GOLDEN_CONFIG = paper_mlp_config(batch_size=512, iterations=3)


@pytest.fixture(scope="module")
def golden_runner():
    """One shared runner: fig. 4 rebuilds the trace fig. 3 compiled."""
    return SweepRunner()


def test_fig2_golden_numbers():
    result = run_fig2(config=small_mlp_config(batch_size=16, iterations=4,
                                              hidden_dim=32), max_iterations=4)
    summary = result.summary()
    assert summary["num_rectangles"] == 56
    assert summary["num_iterations"] == 4
    assert summary["peak_live_bytes"] == 14336
    assert summary["periodic_from"] == 1
    assert summary["period"] == 1
    assert summary["pair_breaks"] == ["rows", None, None]


def test_fig3_golden_numbers(golden_runner):
    result = run_fig3(GOLDEN_CONFIG, runner=golden_runner)
    stats = result.summary_stats
    assert stats.count == 187
    assert stats.p50_us == pytest.approx(93.624, rel=REL)
    assert stats.p90_us == pytest.approx(29032.0142, rel=1e-6)
    assert stats.mean_us == pytest.approx(6087.17731016, rel=1e-6)
    assert result.fraction_below_25us == pytest.approx(61 / 187, rel=1e-6)


def test_fig4_golden_numbers(golden_runner):
    result = run_fig4(GOLDEN_CONFIG, runner=golden_runner)
    assert len(result.pairwise) == 187
    assert len(result.intervals) == 187
    assert result.outliers.count == 0  # paper-scale thresholds need the full batch
    assert len(result.top_candidates) == 10


#: sha256 of :func:`fig3_payload` / :func:`fig4_payload` on ``GOLDEN_CONFIG``.
FIG3_SHA256 = "8f99bfe385556bed6493f315260a0180e34db36bbdd36e9b362a20e13f4050d2"
FIG4_SHA256 = "6a130e1f842c8feb2f7442ee0ddee37de65b6e8ed7bddb6742dbeeb84da75d08"


def fig3_payload(result):
    """Every number fig. 3 reports: summary, CDF and each violin in full."""
    return {
        "summary": result.summary(),
        "cdf": [result.cdf.values.tolist(), result.cdf.probabilities.tolist()],
        "violins": {kind: [stats.to_dict(), stats.density_x.tolist(),
                           stats.density_y.tolist()]
                    for kind, stats in result.violins.items()},
    }


def top_candidate_columns(result):
    """``(block_id, size, interval_ns)`` of each of fig. 4's top candidates,
    read off ``result.intervals`` when the candidates are its row indices."""
    rows = result.top_candidates
    if isinstance(rows, np.ndarray):
        arrays = result.intervals
        return np.stack([arrays.block_id[rows], arrays.size[rows],
                         arrays.interval_ns[rows]], axis=1).tolist()
    return [[c.block_id, c.size, c.interval_ns] for c in rows]


def fig4_payload(result):
    """Every number fig. 4 reports: summary, series, outliers, top candidates."""
    return {
        "summary": result.summary(),
        "pairwise": result.pairwise,
        "describe": result.outliers.describe(),
        "outliers": result.outliers.to_dict(),
        "top_candidates": top_candidate_columns(result),
    }


def test_fig3_digest_is_golden(golden_runner):
    assert json_digest(fig3_payload(run_fig3(GOLDEN_CONFIG, runner=golden_runner))) \
        == FIG3_SHA256


def test_fig4_digest_is_golden(golden_runner):
    assert json_digest(fig4_payload(run_fig4(GOLDEN_CONFIG, runner=golden_runner))) \
        == FIG4_SHA256


def test_fig5_golden_numbers():
    result = run_fig5(workloads=(("lenet5", "lenet5", "mnist", 16, 28),))
    row = result.rows()[0]
    assert row["total_bytes"] == 1785856
    assert row["input data"] == pytest.approx(0.028383027523, rel=1e-6)
    assert row["parameters"] == pytest.approx(0.201834862385, rel=1e-6)
    assert row["intermediate results"] == pytest.approx(0.769782110092, rel=1e-6)


def test_fig6_golden_numbers():
    result = run_fig6(batch_sizes=(16, 32), input_size=32, num_classes=100)
    rows = result.rows()
    assert [row["batch_size"] for row in rows] == [16, 32]
    assert rows[0]["total_bytes"] == 292385792
    assert rows[1]["total_bytes"] == 301763584
    assert rows[0]["parameters"] == pytest.approx(0.647634424042, rel=1e-6)
    assert rows[1]["parameters"] == pytest.approx(0.633589081445, rel=1e-6)
    assert rows[0]["intermediate results"] == pytest.approx(0.351691398192, rel=1e-6)
    assert rows[1]["intermediate results"] == pytest.approx(0.365106162048, rel=1e-6)


def test_fig7_golden_numbers():
    result = run_fig7(depths=("resnet18",), batch_size=2)
    row = result.rows()[0]
    assert row["depth"] == "resnet18"
    assert row["total_bytes"] == 191209472
    assert row["input data"] == pytest.approx(0.006300608372, rel=1e-6)
    assert row["parameters"] == pytest.approx(0.494505376805, rel=1e-6)
    assert row["intermediate results"] == pytest.approx(0.499194014824, rel=1e-6)


def test_fig6_numbers_identical_through_cached_engine(tmp_path):
    """The sweep engine's cache round-trip must not perturb figure numbers."""
    direct = run_fig6(batch_sizes=(16,), input_size=32, num_classes=100)
    runner = SweepRunner(cache_dir=tmp_path / "sweeps")
    warm = run_fig6(batch_sizes=(16,), input_size=32, num_classes=100, runner=runner)
    cached = run_fig6(batch_sizes=(16,), input_size=32, num_classes=100, runner=runner)
    assert warm.rows() == direct.rows()
    assert cached.rows() == direct.rows()


def test_fig5_numbers_identical_through_cached_engine(tmp_path):
    workloads = (("lenet5", "lenet5", "mnist", 16, 28),)
    direct = run_fig5(workloads=workloads)
    runner = SweepRunner(cache_dir=tmp_path / "sweeps")
    warm = run_fig5(workloads=workloads, runner=runner)
    cached = run_fig5(workloads=workloads, runner=runner)
    assert warm.rows() == cached.rows() == direct.rows()
    assert not hasattr(direct, "sessions")      # no session is kept alive
