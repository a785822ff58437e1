"""Tests for the command-line interface."""

import hashlib
import re

import pytest

from repro.cli import main


def test_cli_list_prints_registries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "paper_mlp" in out
    assert "cifar100" in out
    assert "titan_x_pascal" in out


@pytest.mark.parametrize("argv", [
    ["profile", "--execution", "symbolic"],
    ["sweep", "--execution", "eager"],
    ["sweep", "--execution-mode", "replay"],
], ids=["profile-execution", "sweep-eager", "sweep-execution-mode"])
def test_execution_is_a_sweep_option_of_two_modes(argv, capsys):
    """Every run simulates one way; only a sweep picks symbolic or replay."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


def test_cli_profile_small_workload(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    exit_code = main([
        "profile", "--model", "mlp", "--dataset", "two_cluster",
        "--batch-size", "16", "--iterations", "2",
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


#: sha256 of ``repro figure <name>``'s stdout: the paper-scale MLP trace's
#: Gantt chart, ATI figures and the swap planner's plan, every number as printed.
FIGURE_STDOUT_SHA256 = {
    "fig2": "2e019f5fbf2105d54ed061dbe4d364e61b08507cbdbbb5f982e9c6e4d89fa790",
    "fig3": "8b14e8f6209231269bc12b5de7ce3a98f711ae023192a929d4348cd15b45a980",
    "fig4": "5ab66c94d5b6f966c801f55370e5202f12f10a8fe2caedc854cbdc7860370749",
    "swap": "1f64083649efad1b8152446452ec860bd7f0920ecfb03d449e5090fc8bb088fe",
}


@pytest.mark.parametrize("name", list(FIGURE_STDOUT_SHA256))
def test_cli_figure_stdout_is_golden(name, capsys):
    assert main(["figure", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIGURE_STDOUT_SHA256[name]


def test_cli_sweep_footer_partitions_the_scenarios(tmp_path, capsys):
    """Cached, replayed, simulated and failed add up to the scenarios: two
    mlp rows run and two lenet5 rows fail (lenet5 rejects two_cluster's 2-D
    samples); under --resume the mlp rows are cached and the lenet5 rows are
    resume-skipped, which counts them as failed and runs nothing."""
    argv = ["sweep", "--models", "mlp,lenet5", "--batch-sizes", "16,32",
            "--iterations", "1", "--workers", "1", "--cache-dir", str(tmp_path)]

    def footer():
        out = capsys.readouterr().out
        line, = [line for line in out.splitlines() if " scenario(s) in " in line]
        return re.sub(r" in [0-9.]+s \(", " in _s (", line.replace(str(tmp_path), "_"))

    assert main(argv) == 0
    assert footer() == ("4 scenario(s) in _s (0 cached, 0 replayed, 2 simulated, "
                        "2 failed, workers=1, cache=_)")
    assert main(argv + ["--resume"]) == 0
    assert footer() == ("4 scenario(s) in _s (2 cached, 0 replayed, 0 simulated, "
                        "2 failed, 2 resume-skipped, workers=1, cache=_)")


def test_cli_rejects_unknown_arguments():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["profile", "--model", "not-a-model"])
