"""Declarative figure specifications for the report generator.

One builder per paper figure (fig2-fig7) plus the ablations: each consumes
cached :class:`~repro.experiments.sweep.ScenarioResult`s from a shared
:class:`~repro.experiments.sweep.SweepRunner` (missing scenarios are executed
on demand by the PR-1 engine) and renders a self-contained Markdown page with
the comparison table, an ASCII chart, an SVG chart where the figure is a
breakdown, the paper's claims checked against the reproduced numbers, and
the exact command to reproduce the figure.

Two :class:`ReportProfile`\\ s size the underlying grids: ``full`` is the
committed docs tree, ``smoke`` is a miniature used by the golden-file tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.events import PAPER_BUCKETS
from ..core.swap import BandwidthConfig, max_swap_bytes
from ..experiments.ablations import run_allocator_ablation, run_timing_ablation
from ..experiments.configs import PAPER_MLP_HOST_LATENCY, paper_mlp_config
from ..experiments.eq1_swap import PAPER_EXPECTED_SWAP_BYTES, PAPER_OPERATING_POINTS_US
from ..experiments.fig2_gantt import run_fig2
from ..experiments.fig5_breakdown import DEFAULT_FIG5_WORKLOADS, run_fig5
from ..experiments.fig6_alexnet import DEFAULT_FIG6_BATCH_SIZES, run_fig6
from ..experiments.fig7_resnet import DEFAULT_FIG7_DEPTHS, run_fig7
from ..experiments.sweep import Scenario, ScenarioResult, SweepGrid, SweepRunner
from ..units import GB, GIB, KB, MIB, us_to_ns
from ..viz import render_stacked_bars, render_svg_bars, render_svg_stacked_bars
from .markdown import (
    GENERATED_BANNER,
    code_block,
    fmt_mib,
    join_page,
    markdown_table,
    section,
)


@dataclass(frozen=True)
class ReportProfile:
    """Grid sizes behind one report flavor (``full`` docs vs ``smoke`` tests)."""

    name: str
    paper_mlp_batch_size: int
    paper_mlp_iterations: int
    fig5_workloads: Tuple[Tuple[str, str, str, int, int], ...]
    fig6_batch_sizes: Tuple[int, ...]
    fig7_depths: Tuple[str, ...]
    fig7_batch_size: int
    comparison_model: str
    comparison_model_kwargs: Dict[str, object]
    comparison_batch_size: int
    comparison_dtypes: Tuple[str, ...]
    comparison_devices: Tuple[str, ...]
    comparison_policies: Tuple[str, ...]
    ablation_batch_size: int
    ablation_iterations: int
    ablation_hidden_dim: int
    timing_overheads_us: Tuple[float, ...]
    scaling_batch_size: int = 4096
    scaling_iterations: int = 3
    scaling_n_devices: Tuple[int, ...] = (1, 2, 4, 8)
    scaling_interconnects: Tuple[str, ...] = ("pcie_gen3", "nvlink2")
    # closed-loop swap-execution page (a deep MLP whose long activation /
    # state idle windows give the planner something to hide transfers behind)
    swap_hidden_dim: int = 8192
    swap_num_layers: int = 6
    swap_batch_size: int = 2048
    swap_iterations: int = 7
    swap_modes: Tuple[str, ...] = ("off", "planner", "swap_advisor",
                                   "zero_offload", "lru", "unified")
    # feasibility-frontier page: the swap workload run under a ladder of hard
    # device-memory capacities (bytes), per execution mode
    frontier_capacities: Tuple[int, ...] = (256 * MIB, 1 * GIB, 2 * GIB,
                                            3 * GIB, 4 * GIB,
                                            int(4.75 * GIB))
    frontier_modes: Tuple[str, ...] = ("off", "lru", "unified")


#: The committed docs tree: the paper's grids.
FULL_PROFILE = ReportProfile(
    name="full",
    paper_mlp_batch_size=16_384,
    paper_mlp_iterations=5,
    fig5_workloads=DEFAULT_FIG5_WORKLOADS,
    fig6_batch_sizes=DEFAULT_FIG6_BATCH_SIZES,
    fig7_depths=DEFAULT_FIG7_DEPTHS,
    fig7_batch_size=16,
    comparison_model="paper_mlp",
    comparison_model_kwargs={},
    comparison_batch_size=4096,
    comparison_dtypes=("float32", "float16"),
    comparison_devices=("titan_x_pascal", "v100_sxm2_16gb", "rtx_3090_24gb"),
    comparison_policies=("none", "planner", "swap_advisor", "zero_offload",
                         "recompute", "pruning", "quantization"),
    ablation_batch_size=1024,
    ablation_iterations=4,
    ablation_hidden_dim=2048,
    timing_overheads_us=(1.0, 6.0, 20.0, 50.0),
    scaling_batch_size=4096,
    scaling_iterations=3,
    scaling_n_devices=(1, 2, 4, 8),
    scaling_interconnects=("pcie_gen3", "nvlink2"),
)

#: Miniature grids for the golden-file tests (same page structure, seconds).
SMOKE_PROFILE = ReportProfile(
    name="smoke",
    paper_mlp_batch_size=512,
    paper_mlp_iterations=3,
    fig5_workloads=(("mlp", "mlp", "two_cluster", 256, 0),
                    ("lenet5", "lenet5", "mnist", 64, 28)),
    fig6_batch_sizes=(32, 64),
    fig7_depths=("resnet18",),
    fig7_batch_size=4,
    comparison_model="paper_mlp",
    comparison_model_kwargs={},
    comparison_batch_size=256,
    comparison_dtypes=("float32", "float16"),
    comparison_devices=("titan_x_pascal",),
    comparison_policies=("none", "planner", "recompute"),
    ablation_batch_size=256,
    ablation_iterations=2,
    ablation_hidden_dim=512,
    timing_overheads_us=(1.0, 20.0),
    scaling_batch_size=256,
    scaling_iterations=2,
    scaling_n_devices=(1, 2),
    scaling_interconnects=("pcie_gen3",),
    swap_hidden_dim=1024,
    swap_num_layers=3,
    swap_batch_size=256,
    swap_iterations=5,
    swap_modes=("off", "planner", "zero_offload", "unified"),
    frontier_capacities=(2 * MIB, 8 * MIB, 16 * MIB, 48 * MIB),
    frontier_modes=("off", "unified"),
)

PROFILES = {profile.name: profile for profile in (FULL_PROFILE, SMOKE_PROFILE)}


@dataclass
class FigurePage:
    """One generated ``docs/figures/<slug>.md`` page."""

    slug: str                              # file stem, e.g. "fig6_alexnet"
    fig_id: str                            # "fig6"
    title: str
    finding: str                           # one-line reproduced result
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    body: str = ""                         # full page content (banner included)
    svgs: Dict[str, str] = field(default_factory=dict)   # filename -> svg text
    reproduce: str = ""                    # shell command

    @property
    def path(self) -> str:
        """Repo-relative path of the page."""
        return f"docs/figures/{self.slug}.md"


def _checks_list(checks: Sequence[Tuple[str, bool]]) -> str:
    """Render claim checks as a Markdown task list."""
    return "\n".join(f"- [{'x' if ok else ' '}] {claim}" for claim, ok in checks)


def _page(page: FigurePage, *chunks: str) -> FigurePage:
    """Assemble the page body from the standard header plus ``chunks``."""
    header = [GENERATED_BANNER, f"# {page.title}",
              f"**Reproduce:** `{page.reproduce}`"]
    tail = []
    if page.checks:
        tail.append(section("Paper claims", _checks_list(page.checks)))
    page.body = join_page(*header, *chunks, *tail)
    return page


def _paper_mlp_scenario(profile: ReportProfile, swap_policy: str = "none") -> Scenario:
    """The shared workload behind Figures 2-4 (the paper's Fig.-1 MLP)."""
    config = paper_mlp_config(batch_size=profile.paper_mlp_batch_size,
                              iterations=profile.paper_mlp_iterations)
    return Scenario(config=config, swap_policy=swap_policy)


def _workload_metric_rows(result: ScenarioResult) -> List[Dict[str, object]]:
    """Footprint/shape metrics of one scenario as a two-column table."""
    return [
        {"metric": "peak allocated (MiB)",
         "value": fmt_mib(result.peak_allocated_bytes)},
        {"metric": "peak live (MiB)", "value": fmt_mib(result.peak_live_bytes)},
        {"metric": "parameter bytes (MiB)", "value": fmt_mib(result.parameter_bytes)},
        {"metric": "memory behaviors (events)", "value": result.num_events},
        {"metric": "distinct blocks", "value": result.num_blocks},
        {"metric": "iterations", "value": result.scenario["iterations"]},
        {"metric": "mean step time (ms)",
         "value": f"{result.step_time_s_mean * 1e3:.3f}"},
    ]


def build_fig2(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Figure 2 — the block-lifetime Gantt chart of the MLP workload."""
    scenario = _paper_mlp_scenario(profile)
    result = runner.run([scenario]).results[0]
    fig2 = run_fig2(scenario.config, runner=runner)
    periodic = fig2.periodicity
    page = FigurePage(
        slug="fig2_gantt", fig_id="fig2",
        title="Figure 2 - Memory-behavior Gantt chart (paper MLP)",
        finding=(f"{result.num_events} behaviors over {result.num_blocks} blocks; "
                 f"peak {fmt_mib(result.peak_allocated_bytes)} MiB; "
                 f"{periodic.describe()}"),
        reproduce="PYTHONPATH=src python -m repro figure fig2",
        checks=[
            (f"the memory behaviors repeat every iteration: {periodic.describe()}",
             periodic.period is not None),
            ("long-lived parameter blocks coexist with short-lived activations",
             fig2.lifetimes_span_and_nest()),
        ],
    )
    intro = ("The paper's first observation is *what the trace looks like*: "
             "block lifetimes tile the timeline identically every iteration, "
             "with device-idle gaps wherever the host prepares the next batch. "
             "The table below summarizes the recorded trace; the ASCII Gantt "
             "itself is printed by the reproduce command.")
    table = markdown_table(_workload_metric_rows(result), columns=["metric", "value"])
    pairs = [{"iterations": f"{a} -> {b}", "first differing column": column or "none"}
             for a, b, column in zip(periodic.iterations, periodic.iterations[1:],
                                     periodic.breaks)]
    periods = section(
        "Periodicity",
        "Two iterations match when they hold the same rows with equal kind, "
        "size and category, timestamps one constant apart, block ids related "
        "by a bijection and equal addresses. The trace is "
        f"{periodic.describe()}; each consecutive pair's first differing "
        "column:",
        markdown_table(pairs, columns=["iterations", "first differing column"]))
    return _page(page, intro, table, periods)


def build_fig3(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Figure 3 — the access-time-interval (ATI) distribution."""
    result = runner.run([_paper_mlp_scenario(profile)]).results[0]
    ati = result.ati
    bimodal = float(ati["max_us"]) > 100.0 * float(ati["p50_us"])
    page = FigurePage(
        slug="fig3_ati", fig_id="fig3",
        title="Figure 3 - Access-time-interval distribution (paper MLP)",
        finding=(f"p50 {float(ati['p50_us']):.1f} us vs max "
                 f"{float(ati['max_us']) / 1e6:.3f} s across {int(ati['count'])} ATIs"),
        reproduce="PYTHONPATH=src python -m repro figure fig3",
        checks=[
            ("the ATI distribution is strongly bimodal: a dense band of "
             "microsecond-scale intervals plus rare huge outliers", bimodal),
            ("the p50 ATI is far too small to hide any meaningful swap "
             "(Eq. 1 at the paper's bandwidths)",
             max_swap_bytes(us_to_ns(float(ati["p50_us"])),
                            BandwidthConfig.from_paper()) < 1 * MIB),
        ],
    )
    rows = [{"statistic": key, "value": f"{float(value):.3f}"}
            for key, value in ati.items()]
    intro = ("Figure 3 collects the elapsed time between adjacent accesses to "
             "the same block (the ATI). Most intervals sit in the tens of "
             "microseconds - back-to-back kernels - while blocks reused across "
             "iterations see the whole host-side pause.")
    return _page(page, intro, markdown_table(rows, columns=["statistic", "value"]))


def build_fig4(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Figure 4 — ATI/size outliers and what the swap planner makes of them."""
    plain, planned = runner.run([
        _paper_mlp_scenario(profile),
        _paper_mlp_scenario(profile, swap_policy="planner"),
    ]).results
    swap = planned.swap or {}
    savings_fraction = float(swap.get("savings_fraction", 0.0))
    page = FigurePage(
        slug="fig4_outliers", fig_id="fig4",
        title="Figure 4 - Outlier behaviors and swap feasibility (paper MLP)",
        finding=(f"swappable fraction {plain.swappable_fraction:.3f}; planner "
                 f"saves {fmt_mib(swap.get('savings_bytes', 0))} MiB "
                 f"({100.0 * savings_fraction:.1f}% of peak)"),
        reproduce="PYTHONPATH=src python -m repro figure fig4",
        checks=[
            ("a meaningful fraction of the footprint is swappable at zero "
             "runtime cost (Eq.-1 screening)", plain.swappable_fraction > 0.1),
            ("the planner's savings come from few selected blocks",
             int(swap.get("num_selected", 0)) <= int(swap.get("num_candidates", 0))),
        ],
    )
    rows = [
        {"metric": "swappable fraction (Eq. 1)",
         "value": f"{plain.swappable_fraction:.4f}"},
        {"metric": "plan candidates", "value": int(swap.get("num_candidates", 0))},
        {"metric": "plan selected blocks", "value": int(swap.get("num_selected", 0))},
        {"metric": "peak before (MiB)",
         "value": fmt_mib(swap.get("peak_bytes_before", plain.peak_live_bytes))},
        {"metric": "peak after plan (MiB)",
         "value": fmt_mib(swap.get("peak_bytes_after", plain.peak_live_bytes))},
        {"metric": "savings (MiB)", "value": fmt_mib(swap.get("savings_bytes", 0))},
        {"metric": "overhead (ms)",
         "value": f"{float(swap.get('overhead_ns', 0.0)) / 1e6:.3f}"},
    ]
    intro = ("Figure 4 pairs each behavior's ATI with the size of the block it "
             "touches: the high-ATI behaviors are also the largest blocks - "
             "the outliers the paper argues swapping should target. Feeding "
             "the same trace to the Eq.-1 planner quantifies that argument.")
    return _page(page, intro, markdown_table(rows, columns=["metric", "value"]))


def _breakdown_page(page: FigurePage, rows: List[Dict[str, object]],
                    label_key: str, intro: str, svg_name: str,
                    svg_title: str) -> FigurePage:
    """Shared rendering for the three breakdown figures (5, 6, 7), from the
    experiment's ``rows()`` (label, total bytes, bucket fractions)."""
    table_rows = []
    for row in rows:
        table_row = {label_key: row[label_key],
                     "total_mib": fmt_mib(row["total_bytes"])}
        table_row.update({bucket: row[bucket] for bucket in PAPER_BUCKETS})
        table_rows.append(table_row)
    ascii_chart = render_stacked_bars(rows, PAPER_BUCKETS, label_key=label_key)
    page.svgs[svg_name] = render_svg_stacked_bars(rows, PAPER_BUCKETS,
                                                  label_key=label_key,
                                                  title=svg_title)
    return _page(
        page, intro,
        markdown_table(table_rows, columns=[label_key, "total_mib", *PAPER_BUCKETS]),
        f"![{page.fig_id} breakdown](svg/{svg_name})",
        code_block(ascii_chart),
    )


def build_fig5(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Figure 5 — occupation breakdown of typical DNNs."""
    fig5 = run_fig5(profile.fig5_workloads, runner=runner)
    dominant = fig5.intermediates_dominant_count()
    page = FigurePage(
        slug="fig5_breakdown", fig_id="fig5",
        title="Figure 5 - Occupation breakdown of typical DNNs",
        finding=(f"intermediate results are the largest bucket for "
                 f"{dominant}/{len(profile.fig5_workloads)} models"),
        reproduce="PYTHONPATH=src python -m repro figure fig5",
        checks=[
            ("parameters are a minor fraction of the footprint for every model",
             fig5.parameters_always_minor()),
            ("intermediate results dominate for most models",
             dominant >= len(profile.fig5_workloads) / 2),
        ],
    )
    intro = ("The paper splits the bytes live at peak occupancy into three "
             "buckets (input data / parameters / intermediate results) for a "
             "family of typical DNNs. Parameters - the only bucket pruning or "
             "quantization can shrink - are consistently small, which is the "
             "basis of the paper's argument that training-time memory "
             "pressure must be attacked through the intermediate results.")
    return _breakdown_page(page, fig5.rows(), "label", intro, "fig5_breakdown.svg",
                           "Occupation breakdown at peak (per model)")


def build_fig6(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Figure 6 — AlexNet breakdown versus batch size."""
    fig6 = run_fig6(profile.fig6_batch_sizes, runner=runner)
    intermediate_share = fig6.series.trend("intermediate results")
    page = FigurePage(
        slug="fig6_alexnet", fig_id="fig6",
        title="Figure 6 - AlexNet breakdown vs batch size (CIFAR-100)",
        finding=(f"intermediate share rises from "
                 f"{intermediate_share[0]:.2f} to "
                 f"{intermediate_share[-1]:.2f} across "
                 f"batch {profile.fig6_batch_sizes[0]} to "
                 f"{profile.fig6_batch_sizes[-1]}"),
        reproduce=("PYTHONPATH=src python -m repro sweep --models alexnet "
                   "--batch-sizes "
                   + ",".join(str(b) for b in profile.fig6_batch_sizes)
                   + " --dataset cifar100 --input-size 32 --num-classes 100"),
        checks=[
            ("the intermediate-results share grows with the batch size",
             fig6.intermediates_grow_with_batch()),
            ("the parameter share shrinks with the batch size",
             fig6.parameters_shrink_with_batch()),
        ],
    )
    intro = ("Sweeping the batch size for AlexNet on CIFAR-100-shaped data: "
             "intermediate results gradually dominate the footprint while the "
             "(constant-size) parameters lose relative weight.")
    return _breakdown_page(page, fig6.rows(), "batch_size", intro, "fig6_alexnet.svg",
                           "AlexNet: breakdown vs batch size")


def build_fig7(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Figure 7 — ResNet breakdown versus depth."""
    fig7 = run_fig7(profile.fig7_depths, batch_size=profile.fig7_batch_size,
                    runner=runner)
    page = FigurePage(
        slug="fig7_resnet", fig_id="fig7",
        title=(f"Figure 7 - ResNet breakdown vs depth "
               f"(ImageNet, batch {profile.fig7_batch_size})"),
        finding=(f"intermediates stay dominant across "
                 f"{len(profile.fig7_depths)} depths"),
        reproduce=("PYTHONPATH=src python -m repro sweep --models "
                   + ",".join(profile.fig7_depths)
                   + f" --batch-sizes {profile.fig7_batch_size} "
                     "--dataset imagenet --input-size 224 --num-classes 1000"),
        checks=[
            ("intermediate results dominate at every depth",
             fig7.intermediates_dominant_everywhere()),
            ("the parameter share stays minor at every depth",
             fig7.parameters_always_minor()),
        ],
    )
    intro = ("The same breakdown for the non-linear ResNet family: residual "
             "connections extend activation lifetimes, so depth deepens the "
             "dominance of intermediate results rather than diluting it.")
    return _breakdown_page(page, fig7.rows(), "depth", intro, "fig7_resnet.svg",
                           "ResNet: breakdown vs depth")


def build_ablations(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """A1/A2 — allocator-policy and timing-model ablations."""
    allocator_rows = [row.to_dict() for row in run_allocator_ablation(
        batch_size=profile.ablation_batch_size,
        iterations=profile.ablation_iterations,
        hidden_dim=profile.ablation_hidden_dim, runner=runner)]
    timing_rows = [row.to_dict() for row in run_timing_ablation(
        dispatch_overheads_us=profile.timing_overheads_us,
        batch_size=profile.ablation_batch_size // 4,
        iterations=profile.ablation_iterations,
        hidden_dim=profile.ablation_hidden_dim // 2, runner=runner)]
    for row in allocator_rows:
        row["peak_allocated_mib"] = fmt_mib(row.pop("peak_allocated_bytes"))
        row["peak_reserved_mib"] = fmt_mib(row.pop("peak_reserved_bytes"))
    caching = next(row for row in allocator_rows if row["allocator"] == "caching")
    p50_spread = (max(row["p50_us"] for row in timing_rows)
                  / max(1e-9, min(row["p50_us"] for row in timing_rows)))
    page = FigurePage(
        slug="ablations", fig_id="ablations",
        title="Ablations - allocator policy (A1) and timing model (A2)",
        finding=(f"caching-allocator hit rate {caching['cache_hit_rate']:.3f}; "
                 f"dispatch overhead moves the p50 ATI by {p50_spread:.1f}x"),
        reproduce=("PYTHONPATH=src python -m repro sweep --models mlp "
                   "--allocators caching,best_fit,bump"),
        checks=[
            ("the caching allocator serves most allocations from its cache",
             float(caching["cache_hit_rate"]) > 0.5),
            ("the small-ATI band tracks the host dispatch overhead "
             "(timing-model sensitivity)", p50_spread > 1.5),
        ],
    )
    intro = ("Two design choices are quantified on the shared MLP workload: "
             "A1 swaps the allocator policy (the caching allocator is what "
             "gives blocks stable identities across iterations), A2 sweeps "
             "the host dispatch overhead (the knob behind the microsecond "
             "ATI band).")
    return _page(
        page, intro,
        section("A1 - allocator policy", markdown_table(allocator_rows)),
        section("A2 - timing-model sensitivity", markdown_table(timing_rows)),
    )


def scaling_grid(profile: ReportProfile) -> SweepGrid:
    """The replica-count x interconnect grid behind the scaling page.

    The workload is the paper MLP with its host-latency model; the *global*
    batch is fixed while the replica count grows, so per-device activations
    shrink while parameters, gradients and optimizer state replicate — the
    data-parallel memory story — and every iteration inserts one gradient
    allreduce on the configured interconnect.
    """
    return SweepGrid(
        models=(profile.comparison_model,),
        model_kwargs=dict(profile.comparison_model_kwargs),
        batch_sizes=(profile.scaling_batch_size,),
        iterations=(profile.scaling_iterations,),
        n_devices=profile.scaling_n_devices,
        interconnects=profile.scaling_interconnects,
        host_latency=PAPER_MLP_HOST_LATENCY,
    )


def scaling_scenarios(profile: ReportProfile) -> List[Scenario]:
    """The scaling grid's scenarios, with the single-device point deduplicated.

    With one replica the allreduce is skipped and the interconnect is never
    used, so crossing ``n_devices=1`` with every interconnect would simulate
    (and tabulate) byte-identical scenarios under different cache keys; only
    the first interconnect's ``n=1`` point is kept.
    """
    scenarios = []
    seen_single = False
    for scenario in scaling_grid(profile).expand():
        if scenario.config.n_devices == 1:
            if seen_single:
                continue
            seen_single = True
        scenarios.append(scenario)
    return scenarios


def build_scaling(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Scaling page — per-device peak memory and step time vs replica count."""
    sweep = runner.run(scaling_scenarios(profile))
    rows = []
    for result in sweep.results:
        n = int(result.scenario["n_devices"])
        link = str(result.scenario["interconnect"])
        step_ms = result.step_time_s_mean * 1e3
        collective = result.collective or {}
        allreduce_ms = (float(collective.get("total_time_ns", 0.0))
                        / max(1, int(result.scenario["iterations"])) / 1e6)
        rows.append({
            "n_devices": n,
            "interconnect": link,
            "peak_per_device_mib": fmt_mib(result.peak_allocated_bytes),
            "peak_per_device_bytes": result.peak_allocated_bytes,
            "step_time_ms": f"{step_ms:.3f}",
            "allreduce_ms": f"{allreduce_ms:.3f}",
            "allreduce_share": (allreduce_ms / step_ms) if step_ms else 0.0,
        })

    first_link = profile.scaling_interconnects[0]
    base_series = [row for row in rows if row["interconnect"] == first_link]
    peaks = [row["peak_per_device_bytes"] for row in base_series]
    allreduce = [float(row["allreduce_ms"]) for row in base_series]
    peak_shrinks = all(late <= early for early, late in zip(peaks, peaks[1:]))
    allreduce_grows = all(early <= late
                          for early, late in zip(allreduce, allreduce[1:]))
    if len(profile.scaling_interconnects) > 1:
        by_link = {link: [float(row["allreduce_ms"]) for row in rows
                          if row["interconnect"] == link]
                   for link in profile.scaling_interconnects}
        fastest_helps = (max(by_link[profile.scaling_interconnects[-1]])
                         <= max(by_link[first_link]))
    else:
        fastest_helps = True

    page = FigurePage(
        slug="scaling", fig_id="scaling",
        title=(f"Scaling - data-parallel replicas "
               f"(paper MLP, global batch {profile.scaling_batch_size})"),
        finding=(f"per-device peak {fmt_mib(peaks[0])} -> {fmt_mib(peaks[-1])} MiB "
                 f"from {base_series[0]['n_devices']} to "
                 f"{base_series[-1]['n_devices']} replicas; allreduce "
                 f"{allreduce[-1]:.3f} ms/step at the largest cluster"),
        reproduce=("PYTHONPATH=src python -m repro sweep "
                   f"--models {profile.comparison_model} "
                   f"--batch-sizes {profile.scaling_batch_size} "
                   "--n-devices "
                   + ",".join(str(n) for n in profile.scaling_n_devices)
                   + " --interconnects "
                   + ",".join(profile.scaling_interconnects)),
        checks=[
            ("sharding the global batch shrinks the per-device peak as "
             "replicas are added", peak_shrinks),
            ("gradient-allreduce time grows with the replica count "
             "(ring: 2(N-1)/N transfers of the gradient bytes)", allreduce_grows),
            ("a faster interconnect reduces the collective's share of the step",
             fastest_helps),
        ],
    )
    intro = ("The single-device assumption is gone: each scenario below runs "
             "N data-parallel replicas of the paper MLP on a simulated "
             "cluster, the global batch sharded across ranks and one "
             "gradient allreduce (ring cost model) inserted before every "
             "optimizer step. Parameters, gradients and optimizer state "
             "replicate per device while activations shrink with the shard, "
             "so the per-device peak falls short of linear scaling - and the "
             "interconnect decides how much of the step the collective eats.")
    table = markdown_table(rows, columns=["n_devices", "interconnect",
                                          "peak_per_device_mib", "step_time_ms",
                                          "allreduce_ms"])
    page.svgs["scaling_peak.svg"] = render_svg_bars(
        [(f"n={row['n_devices']}", row["peak_per_device_bytes"] / MIB)
         for row in base_series],
        title=f"Per-device peak (MiB) vs replica count ({first_link})",
        y_label="MiB per device")
    composition_rows = [{
        "label": f"n={row['n_devices']} {row['interconnect']}",
        "compute": 1.0 - row["allreduce_share"],
        "allreduce": row["allreduce_share"],
    } for row in rows]
    page.svgs["scaling_step.svg"] = render_svg_stacked_bars(
        composition_rows, ("compute", "allreduce"), label_key="label",
        title="Step-time composition (compute vs allreduce)")
    return _page(
        page, intro, table,
        "![scaling peak](svg/scaling_peak.svg)",
        "![scaling step](svg/scaling_step.svg)",
    )


def swap_execution_grid(profile: ReportProfile) -> SweepGrid:
    """The swap-mode grid behind the predicted-vs-simulated page.

    The workload is a deep compute-bound MLP: early-layer activations and
    weights idle across most of the forward+backward span and the optimizer
    state idles between steps, so the Eq.-1 planner has multi-hundred-ms
    windows to hide gigabyte-scale transfers behind — the regime where
    executing the plan (rather than estimating it) is informative.
    """
    return SweepGrid(
        models=("mlp",),
        model_kwargs={"hidden_dim": profile.swap_hidden_dim,
                      "num_hidden_layers": profile.swap_num_layers},
        batch_sizes=(profile.swap_batch_size,),
        iterations=(profile.swap_iterations,),
        swaps=profile.swap_modes,
    )


def build_swap_execution(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Swap-execution page — measured vs predicted eviction/prefetch outcomes."""
    sweep = runner.run(swap_execution_grid(profile))
    rows = []
    by_mode: Dict[str, Dict[str, object]] = {}
    for result in sweep.results:
        mode = str(result.scenario["swap"])
        execution = result.swap_execution or {}
        predicted = execution.get("predicted") or {}
        measured_mib = float(execution.get("measured_savings_bytes", 0)) / MIB
        predicted_mib = float(predicted.get("savings_bytes", 0) or 0) / MIB
        stall_ms = float(execution.get("stall_ns_per_iteration", 0.0)) / 1e6
        by_mode[mode] = {
            "execution": execution,
            "predicted": predicted,
            "peak_allocated_bytes": result.peak_allocated_bytes,
        }
        rows.append({
            "swap": mode,
            "peak_alloc_mib": fmt_mib(result.peak_allocated_bytes),
            "measured_savings_mib": f"{measured_mib:.2f}",
            "predicted_savings_mib": f"{predicted_mib:.2f}",
            "stall_ms_per_iter": f"{stall_ms:.3f}",
            "swap_outs": int(execution.get("swap_out_count", 0)),
            "prefetch_hits": int(execution.get("prefetch_hits", 0)),
            "demand_fetches": int(execution.get("demand_fetches", 0)),
            "step_time_ms": f"{result.step_time_s_mean * 1e3:.3f}",
        })

    planner = by_mode.get("planner", {})
    planner_exec = planner.get("execution") or {}
    planner_pred = planner.get("predicted") or {}
    peak_live = int(planner_exec.get("peak_live_bytes", 0) or 0)
    gap = abs(int(planner_exec.get("measured_savings_bytes", 0))
              - int(planner_pred.get("savings_bytes", 0) or 0))
    planner_agrees = gap <= 0.05 * peak_live if peak_live else True
    zero = (by_mode.get("zero_offload", {}).get("execution") or {})
    offload_runs = (int(zero.get("swap_out_count", 0)) > 0
                    and int(zero.get("demand_fetches", 0)) > 0)
    off_peak = by_mode.get("off", {}).get("peak_allocated_bytes")
    allocation_invariant = all(
        info["peak_allocated_bytes"] == off_peak for info in by_mode.values())

    planner_measured_mib = float(
        planner_exec.get("measured_savings_bytes", 0)) / MIB
    planner_stall_ms = float(
        planner_exec.get("stall_ns_per_iteration", 0.0)) / 1e6
    page = FigurePage(
        slug="swap_execution", fig_id="swap-exec",
        title=(f"Swap execution - predicted vs simulated (deep MLP, "
               f"{profile.swap_num_layers}x{profile.swap_hidden_dim}, "
               f"batch {profile.swap_batch_size})"),
        finding=(f"planner: {planner_measured_mib:.0f} MiB measured peak "
                 f"reduction at {planner_stall_ms:.1f} ms/iter stall; "
                 "demand policies trade stalls for the same reduction"),
        reproduce=("PYTHONPATH=src python -m repro sweep --models mlp "
                   f"--hidden-dim {profile.swap_hidden_dim} "
                   f"--num-layers {profile.swap_num_layers} "
                   f"--batch-sizes {profile.swap_batch_size} "
                   f"--iterations {profile.swap_iterations} "
                   "--swap " + ",".join(profile.swap_modes)),
        checks=[
            ("the planner's predicted peak reduction agrees with the "
             "simulated execution within 5% of the live peak (the pinned "
             "cost-model-accuracy tolerance)", planner_agrees),
            ("the ZeRO-Offload-style executable policy really moves state "
             "(swap traffic + synchronous demand-fetch stalls in the trace)",
             offload_runs),
            ("swap execution changes residency and timing only - the "
             "allocation peak is identical to the swap-off run",
             allocation_invariant),
        ],
    )
    intro = ("Earlier pages *predict* what swapping would do; this page "
             "*executes* it. Each row simulates the same training session "
             "with swap off, then walks that recording with the closed-loop "
             "engine (`repro.swap`) driving a different policy: evictions "
             "and prefetches are scheduled on the engine's own copy stream, "
             "overlap with compute, contend with each other, and delay the "
             "recording's clock when a prefetch misses its deadline. "
             "`swap_out`/`swap_in` are first-class trace events, "
             "so the measured peak reduction (live peak minus resident "
             "peak over the steady iterations) and the stall time come out "
             "of the trace - directly comparable with the planner's "
             "predictions from its warm-up observations.")
    table = markdown_table(rows, columns=["swap", "peak_alloc_mib",
                                          "measured_savings_mib",
                                          "predicted_savings_mib",
                                          "stall_ms_per_iter", "swap_outs",
                                          "prefetch_hits", "demand_fetches",
                                          "step_time_ms"])
    page.svgs["swap_execution_savings.svg"] = render_svg_bars(
        [(f"{row['swap']} meas", float(row["measured_savings_mib"]))
         for row in rows if row["swap"] != "off"]
        + [(f"{row['swap']} pred", float(row["predicted_savings_mib"]))
           for row in rows if row["swap"] != "off"],
        title="Measured vs predicted peak reduction (MiB)",
        y_label="MiB")
    page.svgs["swap_execution_stalls.svg"] = render_svg_bars(
        [(row["swap"], float(row["stall_ms_per_iter"]))
         for row in rows if row["swap"] != "off"],
        title="Measured stall per iteration (ms)",
        y_label="ms / iteration")
    return _page(
        page, intro, table,
        "![swap savings](svg/swap_execution_savings.svg)",
        "![swap stalls](svg/swap_execution_stalls.svg)",
    )


def feasibility_scenarios(profile: ReportProfile) -> List[Tuple[str, int, Scenario]]:
    """The (mode, capacity, scenario) ladder behind the feasibility page.

    The swap workload is rerun under every hard capacity in
    ``frontier_capacities`` for every mode in ``frontier_modes``.  Scenarios
    are expanded one grid per mode so infeasible points (which *raise* — a
    raw OOM with the engine off, a structured
    :class:`~repro.errors.InfeasibleScenarioError` with it on) can be run
    and caught individually.
    """
    ladder: List[Tuple[str, int, Scenario]] = []
    for mode in profile.frontier_modes:
        grid = SweepGrid(
            models=("mlp",),
            model_kwargs={"hidden_dim": profile.swap_hidden_dim,
                          "num_hidden_layers": profile.swap_num_layers},
            batch_sizes=(profile.swap_batch_size,),
            iterations=(profile.swap_iterations,),
            swaps=(mode,),
            device_memory_capacities=profile.frontier_capacities,
        )
        for capacity, scenario in zip(profile.frontier_capacities, grid.expand()):
            ladder.append((mode, capacity, scenario))
    return ladder


def build_feasibility(runner: SweepRunner, profile: ReportProfile) -> FigurePage:
    """Feasibility frontier — smallest workable capacity per eviction policy."""
    from ..errors import InfeasibleScenarioError, OutOfMemoryError, ReproError

    rows = []
    frontier: Dict[str, int] = {}          # mode -> smallest feasible capacity
    capacity_ok = True                     # peak_resident <= capacity everywhere
    structured_failures = True             # engine-on failures are never raw OOMs
    unified_stalls: List[Tuple[int, float]] = []
    for mode, capacity, scenario in feasibility_scenarios(profile):
        row = {"swap": mode, "capacity_mib": fmt_mib(capacity),
               "_capacity": capacity}
        try:
            result = runner.run([scenario]).results[0]
        except (InfeasibleScenarioError, OutOfMemoryError) as error:
            row.update({"feasible": "no",
                        "failure": type(error).__name__,
                        "peak_resident_mib": "-", "stall_ms_per_iter": "-",
                        "recompute_ms_per_iter": "-", "step_time_ms": "-"})
            if mode != "off" and not isinstance(error, InfeasibleScenarioError):
                structured_failures = False
            rows.append(row)
            continue
        except ReproError as error:  # unexpected shape of failure: surface it
            row.update({"feasible": "no", "failure": type(error).__name__,
                        "peak_resident_mib": "-", "stall_ms_per_iter": "-",
                        "recompute_ms_per_iter": "-", "step_time_ms": "-"})
            structured_failures = False
            rows.append(row)
            continue
        execution = result.swap_execution or {}
        peak_resident = int(execution.get("peak_resident_bytes",
                                          result.peak_allocated_bytes))
        stall_ms = float(execution.get("stall_ns_per_iteration", 0.0)) / 1e6
        recompute_ms = float(execution.get("recompute_ns_per_iteration", 0.0)) / 1e6
        if mode != "off" and peak_resident > capacity:
            capacity_ok = False
        frontier[mode] = min(frontier.get(mode, capacity), capacity)
        if mode == "unified":
            unified_stalls.append((capacity, stall_ms))
        row.update({
            "feasible": "yes", "failure": "",
            "peak_resident_mib": fmt_mib(peak_resident),
            "stall_ms_per_iter": f"{stall_ms:.3f}",
            "recompute_ms_per_iter": f"{recompute_ms:.3f}",
            "step_time_ms": f"{result.step_time_s_mean * 1e3:.3f}",
        })
        rows.append(row)

    off_frontier = frontier.get("off")
    unified_frontier = frontier.get("unified")
    unified_extends = (unified_frontier is not None
                       and (off_frontier is None
                            or unified_frontier < off_frontier))
    unified_stalls.sort()
    pressure_costs = (unified_stalls[0][1] >= unified_stalls[-1][1]
                      if len(unified_stalls) >= 2 else True)

    frontier_rows = [{"swap": mode,
                      "smallest_feasible_capacity_mib":
                          fmt_mib(frontier[mode]) if mode in frontier else "-"}
                     for mode in profile.frontier_modes]
    page = FigurePage(
        slug="feasibility", fig_id="feasibility",
        title=(f"Feasibility frontier - smallest workable capacity (deep MLP, "
               f"{profile.swap_num_layers}x{profile.swap_hidden_dim}, "
               f"batch {profile.swap_batch_size})"),
        finding=(f"unified runs down to "
                 f"{fmt_mib(unified_frontier) if unified_frontier else '-'} MiB "
                 f"of device memory vs "
                 f"{fmt_mib(off_frontier) if off_frontier else 'no workable point'}"
                 f"{' MiB' if off_frontier else ''} without the engine"),
        reproduce=("PYTHONPATH=src python -m repro sweep --models mlp "
                   f"--hidden-dim {profile.swap_hidden_dim} "
                   f"--num-layers {profile.swap_num_layers} "
                   f"--batch-sizes {profile.swap_batch_size} "
                   f"--iterations {profile.swap_iterations} "
                   "--swap " + ",".join(profile.frontier_modes)
                   + " --device-memory-gib "
                   + ",".join(f"{capacity / GIB:g}"
                              for capacity in profile.frontier_capacities)),
        checks=[
            ("the unified policy extends the feasibility frontier below the "
             "raw-allocation minimum (scenarios complete where swap-off OOMs)",
             unified_extends),
            ("every capacity-governed run keeps its measured resident peak "
             "at or below the configured capacity", capacity_ok),
            ("infeasible engine-on scenarios fail with the structured "
             "InfeasibleScenarioError, never a raw device OOM",
             structured_failures),
            ("squeezing the capacity costs stall time (the tightest feasible "
             "point stalls at least as much as the loosest)", pressure_costs),
        ],
    )
    intro = ("Every page so far ran with unbounded device memory; this page "
             "makes the capacity *real*. Each row reruns the deep-MLP swap "
             "workload under a hard device-memory capacity: with the engine "
             "off the allocator itself is shrunk (an allocation that does "
             "not fit raises a raw OOM), while with an execution policy on "
             "the engine's capacity governor force-evicts "
             "least-recently-used blocks - stalling the clock for the "
             "transfers - and raises a structured `InfeasibleScenarioError` "
             "only when even full eviction cannot fit the working set. The "
             "frontier table reports the smallest capacity at which each "
             "policy completes; the cost curve shows what living near the "
             "frontier costs in stall time per iteration.")
    table = markdown_table(rows, columns=["swap", "capacity_mib", "feasible",
                                          "failure", "peak_resident_mib",
                                          "stall_ms_per_iter",
                                          "recompute_ms_per_iter",
                                          "step_time_ms"])
    frontier_table = markdown_table(frontier_rows,
                                    columns=["swap",
                                             "smallest_feasible_capacity_mib"])
    page.svgs["feasibility_stalls.svg"] = render_svg_bars(
        [(fmt_mib(capacity), stall) for capacity, stall in unified_stalls],
        title="Unified policy: stall per iteration vs capacity (MiB)",
        y_label="ms / iteration")
    return _page(
        page, intro, table,
        section("Frontier", frontier_table),
        "![feasibility stalls](svg/feasibility_stalls.svg)",
    )


#: Page builders in presentation order.
FIGURE_BUILDERS = (build_fig2, build_fig3, build_fig4, build_fig5, build_fig6,
                   build_fig7, build_ablations, build_scaling,
                   build_swap_execution, build_feasibility)


def eq1_rows() -> List[Dict[str, object]]:
    """The closed-form Eq.-1 table (paper bandwidths; no scenarios needed)."""
    bandwidths = BandwidthConfig.from_paper()
    rows = []
    for ati_us in (1, 5, 10, 25, 50, 100, 1_000, 10_000, 100_000, 800_000, 1_000_000):
        bound = max_swap_bytes(us_to_ns(float(ati_us)), bandwidths)
        row: Dict[str, object] = {"ati_us": ati_us,
                                  "max_swap_kb": f"{bound / KB:.2f}"}
        if float(ati_us) in PAPER_OPERATING_POINTS_US:
            expected = PAPER_EXPECTED_SWAP_BYTES[float(ati_us)]
            row["paper_reports"] = (f"{expected / KB:.2f} KB"
                                    if expected < GB else f"{expected / GB:.2f} GB")
        else:
            row["paper_reports"] = ""
        rows.append(row)
    return rows


def comparison_grid(profile: ReportProfile) -> SweepGrid:
    """The policy x dtype x device grid behind the EXPERIMENTS.md comparison.

    The workload is the paper's Fig.-1 MLP including its host-latency model:
    the cross-iteration host pauses are what give the swapping policies real
    outlier intervals to hide transfers behind.
    """
    return SweepGrid(
        models=(profile.comparison_model,),
        model_kwargs=dict(profile.comparison_model_kwargs),
        batch_sizes=(profile.comparison_batch_size,),
        iterations=(3,),
        dtypes=profile.comparison_dtypes,
        device_specs=profile.comparison_devices,
        swap_policies=profile.comparison_policies,
        host_latency=PAPER_MLP_HOST_LATENCY,
    )


def comparison_rows(runner: SweepRunner, profile: ReportProfile) -> List[Dict[str, object]]:
    """Tidy rows of the comparison sweep (policy/dtype/device as columns)."""
    sweep = runner.run(comparison_grid(profile))
    rows = []
    for result in sweep.results:
        swap = result.swap or {}
        rows.append({
            "policy": result.scenario["swap_policy"],
            "dtype": result.scenario["dtype"],
            "device": result.scenario["device_spec"],
            "peak_alloc_mib": fmt_mib(result.peak_allocated_bytes),
            "swappable_frac": f"{result.swappable_fraction:.3f}",
            "savings_mib": fmt_mib(swap.get("savings_bytes", 0)),
            "overhead_ms": f"{float(swap.get('overhead_ns', 0.0)) / 1e6:.3f}",
            "step_time_ms": f"{result.step_time_s_mean * 1e3:.3f}",
        })
    return rows
