#!/usr/bin/env python
"""The paper's future work: plan memory swapping from the recorded trace.

Runs the trace-driven swap planner (the "automatic cost model" announced in
the paper's conclusion) on the MLP workload and compares it against:

* a SwapAdvisor-style policy that swaps the largest tensors regardless of
  their access timing;
* a ZeRO-Offload-style policy that keeps optimizer state and gradients on the
  host;
* a gradient-checkpointing (recompute) estimate; and
* the paper's own counter-argument to weight pruning/quantization.

Run with:  python examples/swap_planning.py [--batch-size N] [--allow-overhead-ms M]
"""

import argparse

from repro.core.swap import BandwidthConfig
from repro.experiments import Scenario, SweepRunner, paper_mlp_config, run_swap_planner
from repro.experiments.results import evaluate_policy
from repro.units import format_bytes, format_duration
from repro.viz import render_table

#: ``(registered policy, table label, overhead column)`` per row; ``None``
#: prints the policy's ``overhead_ns``.
APPROACHES = (
    ("planner", "ATI-aware swap planner", None),
    ("swap_advisor", "SwapAdvisor-style (largest tensors)", None),
    ("zero_offload", "ZeRO-Offload-style (optimizer state)", None),
    ("recompute", "Gradient checkpointing (keep 1/2)", None),
    ("pruning", "Weight pruning (90% sparsity)", "retraining"),
    ("quantization", "Weight quantization (8-bit)", "accuracy loss"),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch-size", type=int, default=16384)
    parser.add_argument("--allow-overhead-ms", type=float, default=0.0,
                        help="Runtime overhead budget the printed plan may spend (ms); "
                             "the comparison table runs every policy at its defaults")
    args = parser.parse_args()

    config = paper_mlp_config(batch_size=args.batch_size)
    print(f"Planning memory-pressure reduction for {config.describe()} ...\n")
    runner = SweepRunner()
    result = run_swap_planner(config=config,
                              allow_overhead_ns=args.allow_overhead_ms * 1e6,
                              runner=runner)
    trace = runner.trace(Scenario(config))   # rebuilt from the planner's template

    print("ATI-aware swap plan (this work):")
    print(result.plan.describe())

    # Every row is a registered policy at its defaults (the planner at zero
    # overhead budget), evaluated on the same trace.
    bandwidths = BandwidthConfig.from_paper()
    rows = []
    for name, label, overhead in APPROACHES:
        summary = evaluate_policy(name, trace, bandwidths)
        rows.append({"approach": label,
                     "peak saved": f"{100 * summary['savings_fraction']:.1f}%",
                     "overhead": overhead or format_duration(summary["overhead_ns"])})
    print("\nComparison of memory-pressure-reduction approaches on this trace:")
    print(render_table(rows))

    print(f"\nPeak footprint before: {format_bytes(result.plan.peak_bytes_before)}")
    print(f"Peak footprint after the planner's swaps: "
          f"{format_bytes(result.plan.estimated_peak_bytes_after)}")
    print("\nThe pruning/quantization rows illustrate the paper's Figure-5 argument: "
          "parameters are such a small share of the training footprint that compressing "
          "them barely moves the peak, while the high-ATI/large-block outliers that the "
          "planner targets account for most of it.")


if __name__ == "__main__":
    main()
