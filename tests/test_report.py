"""Golden-file tests for the report generator (`repro report`).

The report must be a pure function of the code and the sweep cache: two
generations are byte-identical, `check_report` accepts a freshly written
tree and flags any tampering, and the CLI exit codes mirror that.
"""

from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.sweep import SweepRunner
from repro.report import (
    FIGURE_BUILDERS,
    SMOKE_PROFILE,
    check_report,
    generate_report,
    write_report,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One sweep cache shared by every test in this module."""
    return tmp_path_factory.mktemp("report-cache")


@pytest.fixture(scope="module")
def files(cache_dir):
    """The generated smoke-profile report (scenarios run once, then cached)."""
    runner = SweepRunner(cache_dir=cache_dir)
    return generate_report(runner=runner, profile=SMOKE_PROFILE)


def test_report_contains_every_figure_page(files):
    assert "EXPERIMENTS.md" in files
    slugs = {f"docs/figures/{page}" for page in (
        "fig2_gantt.md", "fig3_ati.md", "fig4_outliers.md", "fig5_breakdown.md",
        "fig6_alexnet.md", "fig7_resnet.md", "ablations.md", "scaling.md",
        "swap_execution.md", "feasibility.md")}
    assert slugs <= set(files)
    assert len(FIGURE_BUILDERS) == 10


def test_scaling_page_reports_replica_axis(files):
    scaling = files["docs/figures/scaling.md"]
    assert "--n-devices" in scaling
    assert "n_devices" in scaling
    assert "allreduce_ms" in scaling
    assert "![scaling peak](svg/scaling_peak.svg)" in scaling
    svg = files["docs/figures/svg/scaling_step.svg"]
    assert svg.startswith("<svg ")


def test_swap_execution_page_reports_predicted_vs_simulated(files):
    page = files["docs/figures/swap_execution.md"]
    assert "--swap" in page
    assert "measured_savings_mib" in page
    assert "predicted_savings_mib" in page
    assert "stall_ms_per_iter" in page
    assert "![swap savings](svg/swap_execution_savings.svg)" in page
    assert files["docs/figures/svg/swap_execution_stalls.svg"].startswith("<svg ")


def test_feasibility_page_reports_the_frontier(files):
    page = files["docs/figures/feasibility.md"]
    assert "--device-memory-gib" in page
    assert "smallest_feasible_capacity_mib" in page
    assert "InfeasibleScenarioError" in page
    assert "pressure" in page or "capacity" in page
    assert "![feasibility stalls](svg/feasibility_stalls.svg)" in page
    assert files["docs/figures/svg/feasibility_stalls.svg"].startswith("<svg ")


def test_report_tables_expose_the_new_sweep_axes(files):
    experiments = files["EXPERIMENTS.md"]
    # The comparison table carries the three axes introduced in this PR.
    assert "| policy | dtype | device |" in experiments
    assert "float16" in experiments
    assert "recompute" in experiments
    # Eq.-1 table pins the paper's operating points.
    assert "79.37" in experiments
    assert "2.54 GB" in experiments


def test_report_pages_embed_charts_and_commands(files):
    fig6 = files["docs/figures/fig6_alexnet.md"]
    assert "**Reproduce:**" in fig6
    assert "![fig6 breakdown](svg/fig6_alexnet.svg)" in fig6
    assert "- [x]" in fig6 or "- [ ]" in fig6
    svg = files["docs/figures/svg/fig6_alexnet.svg"]
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_report_is_byte_stable_across_runs(files, cache_dir):
    again = generate_report(runner=SweepRunner(cache_dir=cache_dir),
                            profile=SMOKE_PROFILE)
    assert files == again


def test_warm_trace_figures_simulate_nothing(files, cache_dir, monkeypatch):
    """Results come from the cache, fig. 2's trace from the template store
    (only the feasibility page's infeasible points, which raise and are never
    cached, re-run in a warm report)."""
    import repro.experiments.replay as replay
    import repro.experiments.results as results
    import repro.experiments.sweep as sweep

    def no_simulation(*args, **kwargs):
        raise AssertionError("a warm report must not simulate")

    for module in (replay, results, sweep):
        monkeypatch.setattr(module, "run_training_session", no_simulation)
    from repro.report.generate import _MemoRunner
    runner = _MemoRunner(SweepRunner(cache_dir=cache_dir))
    for builder in FIGURE_BUILDERS[:3]:
        page = builder(runner, SMOKE_PROFILE)
        assert page.body == files[page.path]


def test_fig2_claims_are_read_off_the_trace(files, cache_dir, monkeypatch):
    """The two ticks are ``run_fig2``'s pattern report and Gantt, not counts."""
    import dataclasses

    from repro.report import figures

    page = files["docs/figures/fig2_gantt.md"]
    assert page.count("- [x]") == 2
    real = figures.run_fig2

    def aperiodic(config, runner):
        result = real(config, runner=runner)
        result.patterns = dataclasses.replace(result.patterns, is_iterative=False)
        result.gantt.rectangles.clear()
        return result

    monkeypatch.setattr(figures, "run_fig2", aperiodic)
    unticked = figures.build_fig2(SweepRunner(cache_dir=cache_dir), SMOKE_PROFILE)
    assert [ok for _, ok in unticked.checks] == [False, False]


def test_check_report_flags_stale_and_missing_files(files, tmp_path):
    root = tmp_path / "repo"
    write_report(files, root=root)
    assert check_report(files, root=root) == []

    stale = root / "EXPERIMENTS.md"
    stale.write_text(stale.read_text(encoding="utf-8") + "drift\n", encoding="utf-8")
    assert check_report(files, root=root) == ["EXPERIMENTS.md"]

    (root / "docs" / "figures" / "fig3_ati.md").unlink()
    assert check_report(files, root=root) == ["EXPERIMENTS.md",
                                              "docs/figures/fig3_ati.md"]


def test_cli_report_write_then_check_then_tamper(tmp_path, cache_dir, capsys):
    out = tmp_path / "repo"
    base = ["report", "--profile", "smoke", "--out", str(out),
            "--cache-dir", str(cache_dir)]
    assert cli_main(base) == 0
    assert (out / "EXPERIMENTS.md").is_file()
    capsys.readouterr()

    assert cli_main(base + ["--check"]) == 0
    assert "in sync" in capsys.readouterr().out

    experiments = out / "EXPERIMENTS.md"
    experiments.write_text("stale", encoding="utf-8")
    assert cli_main(base + ["--check"]) == 1
    err = capsys.readouterr().err
    assert "EXPERIMENTS.md" in err


def test_check_report_flags_orphaned_generated_files(files, tmp_path):
    root = tmp_path / "repo"
    write_report(files, root=root)
    orphan = root / "docs" / "figures" / "fig9_removed.md"
    orphan.write_text("left behind by a renamed builder", encoding="utf-8")
    assert check_report(files, root=root) == [
        "docs/figures/fig9_removed.md (orphaned - no longer generated)"]


# -- the committed checklist ------------------------------------------------------------

#: Paper claims the committed report does not reproduce, each a known
#: deviation with its reason.  A new ``no`` row fails the gate below; a row
#: that turns ``yes`` must leave this list.
KNOWN_UNREPRODUCED = {
    # p50 is 2,263 us at batch 16,384: not "far too small" (ROADMAP item 2).
    ("fig3", "the p50 ATI is far too small to hide any meaningful swap "
             "(Eq. 1 at the paper's bandwidths)"),
}


def test_committed_checklist_has_no_unreproduced_claim_outside_the_allow_list():
    text = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text(
        encoding="utf-8")
    table = text.split("## Paper-claim checklist", 1)[1].split("\n## ", 1)[0]
    rows = [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in table.splitlines() if line.startswith("|")]
    assert rows[0] == ("figure", "claim", "reproduced")
    verdicts = rows[2:]                      # past the header and its rule
    assert len(verdicts) >= 20 and {row[2] for row in verdicts} <= {"yes", "no"}
    unreproduced = {row[:2] for row in verdicts if row[2] == "no"}
    assert unreproduced == KNOWN_UNREPRODUCED
