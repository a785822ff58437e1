"""Generate, write and verify the repository's results documentation.

:func:`generate_report` renders every generated artifact **in memory** as a
mapping of repo-relative paths to file contents:

* ``EXPERIMENTS.md`` — the top-level results report: figure index with
  one-line findings, the Eq.-1 table, the policy x dtype x device comparison
  tables and the consolidated paper-claim checklist;
* ``docs/figures/<slug>.md`` — one page per paper figure (fig2-fig7 and the
  ablations) with tables, ASCII/SVG charts and the reproduce command;
* ``docs/figures/svg/*.svg`` — the SVG charts those pages embed.

:func:`write_report` persists the mapping; :func:`check_report` diffs it
against the working tree, which is what ``repro report --check`` (and the
``docs-sync`` CI job) uses to guarantee the committed docs can never drift
from the code that computes them.  Every scenario behind the report flows
through the PR-1 sweep cache, so a regeneration with a warm cache takes
milliseconds.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from ..experiments.sweep import SweepGrid, SweepResult, SweepRunner, default_cache_dir
from .figures import (
    FIGURE_BUILDERS,
    FULL_PROFILE,
    PROFILES,
    ReportProfile,
    comparison_rows,
    eq1_rows,
)
from .markdown import GENERATED_BANNER, join_page, markdown_table, section

PathLike = Union[str, Path]

#: Repo-relative location of the generated pages.
FIGURES_DIR = "docs/figures"


class _MemoRunner:
    """Run-once facade over a :class:`SweepRunner` for a single generation.

    Several figure pages share scenarios (fig2/fig3/fig4 all reduce the same
    paper-MLP trace).  With the on-disk cache enabled the repeats are cheap,
    but with ``--no-cache`` they would re-execute the most expensive scenario
    once per page — so results are memoized by scenario key for the lifetime
    of one report generation regardless of the underlying cache policy.
    """

    def __init__(self, runner: SweepRunner):
        self._runner = runner
        self._memo: Dict[str, object] = {}
        #: Terminal failure records accumulated across the whole generation
        #: (only populated when the underlying runner is non-strict).
        self.failures: List[object] = []

    def trace(self, scenario):
        """The scenario's merged trace, served by the underlying runner."""
        return self._runner.trace(scenario)

    def run(self, grid_or_scenarios) -> SweepResult:
        """Run only the scenarios not seen in this generation; keep order.

        Results are memoized *by key*, not by submission position: a
        non-strict runner may return fewer results than scenarios submitted
        (failed scenarios land in the failure manifest instead), so pairing
        by ``zip`` would mis-attribute every result after the first gap.
        """
        if isinstance(grid_or_scenarios, SweepGrid):
            scenarios = grid_or_scenarios.expand()
        else:
            scenarios = list(grid_or_scenarios)
        keys = [scenario.key() for scenario in scenarios]
        missing = [scenario for scenario, key in zip(scenarios, keys)
                   if key not in self._memo]
        if missing:
            fresh = self._runner.run(missing)
            for result in fresh.results:
                self._memo[result.key] = result
            self.failures.extend(fresh.failures)
        return SweepResult(results=[self._memo[key] for key in keys
                                    if key in self._memo],
                           cache_hits=len(scenarios) - len(missing),
                           cache_misses=len(missing), wall_time_s=0.0,
                           failures=[record for record in self.failures
                                     if record.key in keys])


def _failures_section(failures) -> str:
    """A "Failed scenarios" table for partial generations (empty when clean).

    The default (strict) runner raises on the first failure, so committed
    docs never carry this section; it only appears when a caller generates a
    report from a non-strict runner and some scenarios terminally failed.
    """
    if not failures:
        return ""
    rows = [{
        "model": record.scenario.get("model"),
        "batch_size": record.scenario.get("batch_size"),
        "swap": record.scenario.get("swap"),
        "reason": record.reason,
        "kind": record.kind,
        "attempts": record.attempts,
    } for record in failures]
    return section(
        "Failed scenarios",
        ("The scenarios below produced no result this generation; every "
         "number above comes from the scenarios that completed."),
        markdown_table(rows, columns=["model", "batch_size", "swap", "reason",
                                      "kind", "attempts"]))


def _experiments_md(pages, comparison, profile: ReportProfile,
                    failures=()) -> str:
    """Assemble the top-level EXPERIMENTS.md from the rendered figure pages."""
    index_rows = [{
        "figure": f"[{page.fig_id}]({page.path})",
        "title": page.title.split(" - ", 1)[-1],
        "finding": page.finding,
    } for page in pages]

    checklist = []
    for page in pages:
        for claim, ok in page.checks:
            checklist.append({"figure": page.fig_id, "claim": claim,
                              "reproduced": ok})

    by_axis = section(
        "Comparison: policy x dtype x device",
        (f"One workload (the paper MLP at batch "
         f"{profile.comparison_batch_size}, host-latency model included) "
         "swept across the three axes "
         "introduced in this PR - baseline policy (swapping variants, "
         "recomputation, parameter compression), training dtype and device "
         "spec. Peak footprint follows the dtype, Eq.-1 swappability follows "
         "the device's host link, and the policies split the same footprint "
         "very differently:"),
        markdown_table(comparison,
                       columns=["policy", "dtype", "device", "peak_alloc_mib",
                                "swappable_frac", "savings_mib", "overhead_ms",
                                "step_time_ms"]),
        ("Reproduce: `PYTHONPATH=src python -m repro sweep "
         f"--models {profile.comparison_model} "
         f"--batch-sizes {profile.comparison_batch_size} "
         f"--dtypes {','.join(profile.comparison_dtypes)} "
         f"--devices {','.join(profile.comparison_devices)} "
         f"--swap-policies {','.join(profile.comparison_policies)}`"),
    )

    return join_page(
        GENERATED_BANNER,
        "# EXPERIMENTS",
        ("Reproduction record for *Pinpointing the Memory Behaviors of DNN "
         "Training* (ISPASS). Every number below is computed from cached "
         "`ScenarioResult`s produced by the sweep engine; regenerate with "
         "`make report`, verify with `make docs-check` "
         f"(profile: `{profile.name}`)."),
        section("Figure index", markdown_table(
            index_rows, columns=["figure", "title", "finding"])),
        section("Equation 1 - swap bound vs ATI",
                ("At the paper's measured pinned bandwidths (6.3 GB/s "
                 "host-to-device, 6.4 GB/s device-to-host), Eq. 1 bounds the "
                 "bytes swappable within one access-time interval:"),
                markdown_table(eq1_rows(),
                               columns=["ati_us", "max_swap_kb", "paper_reports"]),
                "Reproduce: `PYTHONPATH=src python -m repro figure eq1`"),
        by_axis,
        section("Paper-claim checklist", markdown_table(
            checklist, columns=["figure", "claim", "reproduced"])),
        _failures_section(failures),
    )


def generate_report(runner: Optional[SweepRunner] = None,
                    profile: Union[str, ReportProfile] = FULL_PROFILE) -> Dict[str, str]:
    """Render every generated artifact as ``{repo-relative path: content}``."""
    if isinstance(profile, str):
        profile = PROFILES[profile]
    if runner is None:
        runner = SweepRunner(cache_dir=default_cache_dir())
    memo = _MemoRunner(runner)
    pages = [builder(memo, profile) for builder in FIGURE_BUILDERS]
    comparison = comparison_rows(memo, profile)

    files: Dict[str, str] = {"EXPERIMENTS.md": _experiments_md(
        pages, comparison, profile, failures=memo.failures)}
    for page in pages:
        files[page.path] = page.body
        for svg_name, svg_text in page.svgs.items():
            files[f"{FIGURES_DIR}/svg/{svg_name}"] = svg_text
    return files


def write_report(files: Dict[str, str], root: PathLike = ".") -> List[Path]:
    """Write the generated files under ``root`` (parents created)."""
    root = Path(root)
    written = []
    for relative, content in sorted(files.items()):
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        written.append(path)
    return written


def check_report(files: Dict[str, str], root: PathLike = ".") -> List[str]:
    """Paths under ``root`` that are missing, differ, or are orphaned.

    Orphans are files under the generated docs tree (``docs/figures/``) that
    the generator no longer emits — e.g. a page left behind after a figure
    was renamed.  They carry stale numbers and the GENERATED banner, so they
    count as drift too.
    """
    root = Path(root)
    stale = []
    for relative, content in sorted(files.items()):
        path = root / relative
        if not path.is_file() or path.read_text(encoding="utf-8") != content:
            stale.append(relative)
    figures_root = root / FIGURES_DIR
    if figures_root.is_dir():
        for path in sorted(figures_root.rglob("*")):
            if path.suffix not in (".md", ".svg") or not path.is_file():
                continue
            relative = path.relative_to(root).as_posix()
            if relative not in files:
                stale.append(f"{relative} (orphaned - no longer generated)")
    return stale
