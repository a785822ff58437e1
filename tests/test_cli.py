"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_cli_list_prints_registries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "paper_mlp" in out
    assert "cifar100" in out
    assert "titan_x_pascal" in out


def test_cli_profile_small_workload(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    exit_code = main([
        "profile", "--model", "mlp", "--dataset", "two_cluster",
        "--batch-size", "16", "--iterations", "2", "--execution-mode", "symbolic",
        "--save-trace", str(trace_path),
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Trace summary" in out
    assert "Occupation breakdown" in out
    assert trace_path.exists()

    from repro.core.trace import MemoryTrace
    loaded = MemoryTrace.load_json(trace_path)
    assert len(loaded) > 0
    assert loaded.iterations() == [0, 1]


def test_cli_profile_with_conv_model(capsys):
    exit_code = main([
        "profile", "--model", "lenet5", "--dataset", "mnist", "--batch-size", "4",
        "--iterations", "1", "--input-size", "28", "--num-classes", "10",
    ])
    assert exit_code == 0
    assert "peak allocated" in capsys.readouterr().out


def test_cli_figure_eq1(capsys):
    assert main(["figure", "eq1"]) == 0
    out = capsys.readouterr().out
    assert "Host to Device Bandwidth" in out
    assert "79.37" in out


def test_cli_rejects_unknown_arguments():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["profile", "--model", "not-a-model"])
