"""Command-line interface.

Three subcommands cover the common workflows without writing any Python:

``python -m repro list``
    Show the registered models, datasets and device presets.

``python -m repro profile --model lenet5 --dataset mnist --batch-size 32``
    Run one profiled training session and print the trace summary, the ATI
    statistics and the occupation breakdown; optionally save the full trace
    to JSON for later analysis.

``python -m repro figure fig6``
    Regenerate one of the paper's figures (``fig2`` … ``fig7``, ``eq1``,
    ``swap``) and print its ASCII rendering / table.

``python -m repro sweep --models alexnet,resnet18 --batch-sizes 32,64,128,256``
    Expand a scenario grid (model × batch size × iterations × allocator ×
    baseline policy × device × dtype × replica count × interconnect), run it
    across worker processes with on-disk result caching and print the tidy
    summary table.  ``--n-devices 1,2,4`` turns each scenario into a
    data-parallel cluster sweep.  ``--swap planner`` runs each scenario under
    the closed-loop swap-execution engine and reports measured peak
    reduction and stall time next to the planner's predictions.
    ``--dry-run`` prints the expanded scenarios without running anything.

``python -m repro report``
    Regenerate EXPERIMENTS.md and the ``docs/figures/`` pages from cached
    sweep results (running any missing scenarios); ``--check`` verifies the
    committed docs match a fresh regeneration and exits nonzero on drift.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import compute_interval_arrays, occupation_breakdown, summarize_values_us
from .core.events import PAPER_BUCKETS
from .data.datasets import DATASET_PRESETS
from .device.allocator import PLACEMENT_PASSES
from .device.cluster import INTERCONNECT_PRESETS
from .device.spec import DEVICE_PRESETS
from .errors import InfeasibleScenarioError, OutOfMemoryError
from .models.registry import available_models
from .swap.policies import SWAP_EXECUTION_MODES, SWAP_OFF, SWAP_POLICIES
from .tensor.dtype import all_dtypes
from .train.session import TrainingRunConfig, run_training_session
from .units import format_bytes
from .viz import render_stacked_bars, render_table


#: Training precisions the ``--dtypes`` axis accepts: the registry's float types.
_FLOAT_DTYPES = tuple(dtype.name for dtype in all_dtypes()
                      if dtype.numpy_dtype.kind == "f")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Pinpointing the Memory Behaviors of DNN Training'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered models, datasets and devices")

    profile = subparsers.add_parser("profile", help="profile one training workload")
    profile.add_argument("--model", default="paper_mlp", choices=available_models())
    profile.add_argument("--dataset", default="two_cluster", choices=sorted(DATASET_PRESETS))
    profile.add_argument("--batch-size", type=int, default=64)
    profile.add_argument("--iterations", type=int, default=5)
    profile.add_argument("--device", default="titan_x_pascal", choices=sorted(DEVICE_PRESETS))
    profile.add_argument("--allocator", default="caching",
                         choices=tuple(PLACEMENT_PASSES))
    profile.add_argument("--swap", default=SWAP_OFF,
                         choices=SWAP_EXECUTION_MODES,
                         help="run the closed-loop swap-execution engine "
                              "during the session and print its measured "
                              "vs predicted summary")
    profile.add_argument("--input-size", type=int, default=None,
                         help="model input resolution (conv models only)")
    profile.add_argument("--num-classes", type=int, default=None)
    profile.add_argument("--save-trace", default=None, metavar="PATH",
                         help="write the full trace to a JSON file")

    figure = subparsers.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("name", choices=("fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                                         "eq1", "swap"))

    report = subparsers.add_parser(
        "report",
        help="regenerate EXPERIMENTS.md and docs/figures/ from the sweep cache")
    report.add_argument("--check", action="store_true",
                        help="verify the committed docs match a fresh "
                             "regeneration (exit 1 on drift) instead of writing")
    report.add_argument("--profile", default="full", choices=("full", "smoke"),
                        help="grid sizes behind the report (smoke = tiny test grids)")
    report.add_argument("--out", default=".", metavar="DIR",
                        help="repository root to write/check against")
    report.add_argument("--workers", type=int, default=1,
                        help="worker processes for uncached scenarios")
    report.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="sweep result cache directory "
                             "(default: $REPRO_SWEEP_CACHE or .repro_cache/sweeps)")
    report.add_argument("--no-cache", action="store_true",
                        help="ignore cached scenario results")

    sweep = subparsers.add_parser(
        "sweep", help="run a scenario grid in parallel with result caching")
    sweep.add_argument("--models", default="mlp",
                       help="comma-separated model names (see `repro list`)")
    sweep.add_argument("--batch-sizes", default="64",
                       help="comma-separated batch sizes")
    sweep.add_argument("--iterations", default="2",
                       help="comma-separated iteration counts")
    sweep.add_argument("--allocators", default="caching",
                       help="comma-separated allocator policies "
                            f"({', '.join(PLACEMENT_PASSES)})")
    sweep.add_argument("--swap-policies", default="none",
                       help="comma-separated baseline policies "
                            f"({', '.join(SWAP_POLICIES)})")
    sweep.add_argument("--devices", default="titan_x_pascal",
                       help="comma-separated device presets")
    sweep.add_argument("--dtypes", default="float32",
                       help="comma-separated training dtypes "
                            f"({', '.join(_FLOAT_DTYPES)})")
    sweep.add_argument("--n-devices", default="1", dest="n_devices",
                       help="comma-separated data-parallel replica counts "
                            "(e.g. 1,2,4)")
    sweep.add_argument("--interconnects", default="pcie_gen3",
                       help="comma-separated interconnect presets "
                            f"({', '.join(INTERCONNECT_PRESETS)})")
    sweep.add_argument("--allreduce", default="ring", choices=("ring", "naive"),
                       help="allreduce cost model used for gradient collectives")
    sweep.add_argument("--swap", default="off",
                       help="comma-separated closed-loop swap-execution modes "
                            f"({', '.join(SWAP_EXECUTION_MODES)}): "
                            "the session is simulated with swap off, then "
                            "the engine walks that recording, evicting and "
                            "prefetching blocks on its own copy stream, and "
                            "reports measured peak reduction + stall "
                            "time next to the policy's predictions; unified "
                            "additionally rematerializes activations when "
                            "replaying the producer is cheaper than the "
                            "transfer; use >=4 iterations to see "
                            "steady-state behavior")
    sweep.add_argument("--seeds", default="0",
                       help="comma-separated seeds (row labels: no result "
                            "depends on them)")
    sweep.add_argument("--dataset", default="two_cluster",
                       choices=sorted(DATASET_PRESETS))
    sweep.add_argument("--execution", dest="execution_mode",
                       default="symbolic", choices=("symbolic", "replay"),
                       help="symbolic (the default) simulates every scenario; "
                            "replay compiles each structure once and "
                            "re-prices the grid from trace templates "
                            "(bit-identical to symbolic)")
    sweep.add_argument("--input-size", type=int, default=None,
                       help="model input resolution (conv models only)")
    sweep.add_argument("--num-classes", type=int, default=None)
    sweep.add_argument("--hidden-dim", type=int, default=None,
                       help="hidden width (mlp models only); deep/wide MLPs "
                            "are the workloads where --swap planner has "
                            "multi-hundred-ms idle windows to hide "
                            "transfers behind")
    sweep.add_argument("--num-layers", type=int, default=None,
                       help="number of hidden layers (mlp models only)")
    sweep.add_argument("--device-memory-gib", default=None,
                       help="comma-separated device memory capacities (GiB, "
                            "floats) — a sweep axis: with --swap on, the "
                            "executor enforces each capacity (forced "
                            "evictions + stalls, structured infeasibility); "
                            "with swap off the allocator is shrunk and OOMs")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial)")
    sweep.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="result cache directory "
                            "(default: $REPRO_SWEEP_CACHE or .repro_cache/sweeps)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore and do not read cached results")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="delete cached results before running")
    sweep.add_argument("--retries", type=int, default=0,
                       help="per-scenario retry budget for transient "
                            "failures (worker crashes, timeouts, injected "
                            "faults, I/O errors); deterministic failures "
                            "(infeasible capacity, OOM, config errors) are "
                            "recorded once and never retried")
    sweep.add_argument("--backoff-s", type=float, default=0.05,
                       help="base of the exponential backoff between retry "
                            "rounds (round n sleeps backoff * 2^(n-1))")
    sweep.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-scenario wall-clock deadline in seconds; "
                            "overdue pool workers are killed and the "
                            "scenario is retried or recorded as a timeout")
    sweep.add_argument("--resume", action="store_true",
                       help="consult the per-grid run journal: scenarios "
                            "that failed deterministically in a prior run "
                            "are skipped instead of re-executed (finished "
                            "scenarios are served from the cache either way)")
    sweep.add_argument("--strict", action="store_true",
                       help="exit nonzero when any scenario failed; the "
                            "default prints the partial grid plus a failure "
                            "footer and exits 0 unless every scenario failed")
    sweep.add_argument("--fault-plan", default=None, metavar="PATH",
                       help="JSON fault-injection plan (testing: see "
                            "repro.experiments.faults.FaultPlan)")
    sweep.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                       help="derive a deterministic fault plan over the "
                            "expanded grid from this seed (chaos testing; "
                            "combine with --retries to watch the sweep "
                            "converge through injected crashes)")
    sweep.add_argument("--dry-run", action="store_true",
                       help="print the expanded scenarios and exit")
    sweep.add_argument("--json", action="store_true", dest="as_json",
                       help="print the tidy rows as JSON instead of a table")
    return parser


def _cmd_list() -> int:
    print("models:   " + ", ".join(available_models()))
    print("datasets: " + ", ".join(sorted(DATASET_PRESETS)))
    print("devices:  " + ", ".join(sorted(DEVICE_PRESETS)))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    model_kwargs = {}
    if args.input_size is not None:
        model_kwargs["input_size"] = args.input_size
    if args.num_classes is not None:
        model_kwargs["num_classes"] = args.num_classes
    config = TrainingRunConfig(
        model=args.model, model_kwargs=model_kwargs, dataset=args.dataset,
        batch_size=args.batch_size, iterations=args.iterations,
        device_spec=args.device,
        allocator=args.allocator, swap=args.swap,
    )
    print(f"Profiling {config.describe()} ...")
    result = run_training_session(config)
    trace = result.trace

    print("\nTrace summary:")
    for key, value in trace.summary().items():
        print(f"  {key}: {value}")
    print(f"  peak allocated: {format_bytes(result.peak_allocated_bytes)}")

    summary = summarize_values_us(compute_interval_arrays(trace).interval_us)
    print("\nAccess-time intervals (us):")
    for key, value in summary.to_dict().items():
        print(f"  {key}: {value:.3f}" if isinstance(value, float) else f"  {key}: {value}")

    print("\nOccupation breakdown at peak:")
    print("  " + occupation_breakdown(trace, label=config.describe()).format_row())

    if result.swap_execution is not None:
        print("\nSwap execution (measured vs predicted):")
        for key, value in result.swap_execution.items():
            print(f"  {key}: {value}")

    if args.save_trace:
        path = trace.save_json(args.save_trace)
        print(f"\nTrace written to {path}")
    return 0


def _cmd_figure(name: str) -> int:
    # Imports are local so that `repro list` stays fast.
    from . import experiments
    from .viz import render_cdf, render_gantt, render_scatter, render_violin

    if name == "fig2":
        result = experiments.run_fig2()
        print(render_gantt(result.gantt, width=100, max_rows=30))
        for key, value in result.summary().items():
            print(f"{key}: {value}")
    elif name == "fig3":
        result = experiments.run_fig3()
        print(render_cdf(result.cdf))
        print()
        print(render_violin(result.violins))
        print()
        for key, value in result.summary().items():
            print(f"{key}: {value}")
    elif name == "fig4":
        result = experiments.run_fig4()
        points = [(index, row["ati_us"]) for index, row in enumerate(result.pairwise)]
        print(render_scatter(points))
        for line in result.outliers.describe():
            print("  " + line)
        for key, value in result.summary().items():
            print(f"{key}: {value}")
    elif name == "fig5":
        result = experiments.run_fig5()
        print(render_stacked_bars(result.rows(), PAPER_BUCKETS, label_key="label"))
    elif name == "fig6":
        result = experiments.run_fig6()
        print(render_stacked_bars(result.rows(), PAPER_BUCKETS, label_key="batch_size"))
    elif name == "fig7":
        result = experiments.run_fig7()
        print(render_stacked_bars(result.rows(), PAPER_BUCKETS, label_key="depth"))
    elif name == "eq1":
        result = experiments.run_eq1()
        print(result.bandwidth_report.summary())
        rows = [{"ati_us": ati, "max_swap_kb": round(bound / 1000, 2)}
                for ati, bound in result.sweep]
        print(render_table(rows))
    elif name == "swap":
        result = experiments.run_swap_planner()
        print(result.plan.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.sweep import SweepRunner, default_cache_dir
    from .report import check_report, generate_report, write_report

    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    with SweepRunner(cache_dir=cache_dir, workers=args.workers,
                     use_cache=not args.no_cache) as runner:
        files = generate_report(runner=runner, profile=args.profile)
    if args.check:
        stale = check_report(files, root=args.out)
        if stale:
            print("stale generated docs (regenerate with `python -m repro report`):",
                  file=sys.stderr)
            for path in stale:
                print(f"  {path}", file=sys.stderr)
            return 1
        print(f"{len(files)} generated file(s) in sync")
        return 0
    written = write_report(files, root=args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _split_csv(value: str, cast=str) -> list:
    """Parse a comma-separated CLI value into a list of ``cast``ed entries."""
    return [cast(part.strip()) for part in str(value).split(",") if part.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json as json_module

    from .experiments.faults import FaultPlan
    from .experiments.sweep import SweepGrid, SweepRunner, default_cache_dir
    from .units import GIB

    # Validate the comma-separated dimensions up front: a typo must fail with
    # a clean message before any scenario (or worker process) starts.
    dimension_choices = (
        ("--models", _split_csv(args.models), set(available_models())),
        ("--allocators", _split_csv(args.allocators), set(PLACEMENT_PASSES)),
        ("--swap-policies", _split_csv(args.swap_policies), set(SWAP_POLICIES)),
        ("--swap", _split_csv(args.swap), set(SWAP_EXECUTION_MODES)),
        ("--devices", _split_csv(args.devices), set(DEVICE_PRESETS)),
        ("--dtypes", _split_csv(args.dtypes), set(_FLOAT_DTYPES)),
        ("--interconnects", _split_csv(args.interconnects),
         set(INTERCONNECT_PRESETS)),
    )
    for flag, values, known in dimension_choices:
        unknown = [value for value in values if value not in known]
        if unknown:
            print(f"error: {flag}: unknown value(s) {', '.join(unknown)} "
                  f"(choose from {', '.join(sorted(known))})", file=sys.stderr)
            return 2
    try:
        batch_sizes = _split_csv(args.batch_sizes, int)
        iterations = _split_csv(args.iterations, int)
        seeds = _split_csv(args.seeds, int)
        n_devices = _split_csv(args.n_devices, int)
    except ValueError as error:
        print(f"error: --batch-sizes/--iterations/--seeds/--n-devices must be "
              f"comma-separated integers ({error})", file=sys.stderr)
        return 2
    try:
        capacities = ([None] if args.device_memory_gib is None
                      else [int(gib * GIB) for gib in
                            _split_csv(args.device_memory_gib, float)])
    except ValueError as error:
        print(f"error: --device-memory-gib must be comma-separated numbers "
              f"({error})", file=sys.stderr)
        return 2
    if any(n < 1 for n in n_devices):
        print("error: --n-devices entries must be positive", file=sys.stderr)
        return 2

    model_kwargs = {}
    if args.input_size is not None:
        model_kwargs["input_size"] = args.input_size
    if args.num_classes is not None:
        model_kwargs["num_classes"] = args.num_classes
    if args.hidden_dim is not None:
        model_kwargs["hidden_dim"] = args.hidden_dim
    if args.num_layers is not None:
        model_kwargs["num_hidden_layers"] = args.num_layers
    grid = SweepGrid(
        models=_split_csv(args.models),
        batch_sizes=batch_sizes,
        iterations=iterations,
        allocators=_split_csv(args.allocators),
        swap_policies=_split_csv(args.swap_policies),
        device_specs=_split_csv(args.devices),
        dtypes=_split_csv(args.dtypes),
        n_devices=n_devices,
        interconnects=_split_csv(args.interconnects),
        allreduce_algorithm=args.allreduce,
        swaps=_split_csv(args.swap),
        seeds=seeds,
        dataset=args.dataset,
        execution_mode=args.execution_mode,
        model_kwargs=model_kwargs,
        device_memory_capacities=capacities,
    )
    scenarios = grid.expand()
    if args.dry_run:
        print(f"{len(scenarios)} scenario(s):")
        for scenario in scenarios:
            print("  " + scenario.describe())
        return 0

    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: --fault-plan: cannot load {args.fault_plan} "
                  f"({error})", file=sys.stderr)
            return 2
    elif args.chaos_seed is not None:
        fault_plan = FaultPlan.seeded(args.chaos_seed,
                                      [scenario.key() for scenario in scenarios])
        print(f"chaos: seeded fault plan (seed={args.chaos_seed}, "
              f"{len(fault_plan.faults)} fault(s))")

    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    with SweepRunner(cache_dir=cache_dir, workers=args.workers,
                     use_cache=not args.no_cache,
                     retries=args.retries, backoff_s=args.backoff_s,
                     timeout_s=args.timeout, strict=False,
                     resume=args.resume, fault_plan=fault_plan) as runner:
        if args.clear_cache:
            removed = runner.clear_cache()
            print(f"cleared {removed} cached result(s)")
        try:
            result = runner.run(scenarios)
        except (InfeasibleScenarioError, OutOfMemoryError) as error:
            print(f"error: a scenario does not fit its --device-memory-gib "
                  f"capacity: {error}", file=sys.stderr)
            return 1

    if args.as_json:
        print(json_module.dumps(result.rows(), indent=2, default=str))
    else:
        print(result.summary_table())
    replayed = f"{result.replayed} replayed"
    if result.replayed:
        replayed += f" from {result.templates_compiled} template(s)"
    notes = ""
    if result.retries:
        notes += f", {result.retries} retried"
    if result.resumed_skipped:
        notes += f", {result.resumed_skipped} resume-skipped"
    if result.replay_fallbacks:
        reasons = ", ".join(f"{reason}={count}" for reason, count
                            in sorted(result.replay_fallbacks.items()))
        notes += f", replay declined {sum(result.replay_fallbacks.values())} ({reasons})"
    # The four counts partition the scenarios; resume-skipped rows are failed.
    print(f"\n{len(result) + len(result.failures)} scenario(s) in "
          f"{result.wall_time_s:.2f}s ({result.cache_hits} cached, {replayed}, "
          f"{result.simulated} simulated, {len(result.failures)} failed{notes}, "
          f"workers={args.workers}, cache={cache_dir})")
    if result.failures:
        print("\n" + result.failure_summary(), file=sys.stderr)
        if any(f.reason in ("infeasible", "oom") for f in result.failures):
            print("hint: scenario(s) exceeded their --device-memory-gib "
                  "capacity; raise the capacity or turn on --swap",
                  file=sys.stderr)
        if args.strict or not result.results:
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "figure":
        return _cmd_figure(args.name)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
