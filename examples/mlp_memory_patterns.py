#!/usr/bin/env python
"""Reproduce the paper's MLP case study (Figures 2, 3 and 4 + Equation 1).

Runs the Figure-1 MLP (2 -> 12288 -> 2) for five iterations on the simulated
Titan X (Pascal), then prints:

* the Gantt chart of block lifetimes (Figure 2) and the iterative-pattern
  similarity that backs the "obvious iterative patterns" observation;
* the ATI distribution as a CDF and per-behavior-kind violin statistics
  (Figure 3);
* the per-behavior ATI/size series with the high-ATI large-block outliers
  highlighted, and the Eq.-1 swap bound for the largest outlier (Figure 4).

Run with:  python examples/mlp_memory_patterns.py [--batch-size N]
"""

import argparse

from repro.experiments import SweepRunner, paper_mlp_config, run_fig2, run_fig3, run_fig4
from repro.units import GB, KB, format_bytes, format_duration
from repro.viz import render_cdf, render_gantt, render_scatter, render_violin


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch-size", type=int, default=16384,
                        help="MLP batch size (default 16384, large enough for >600 MB blocks)")
    parser.add_argument("--iterations", type=int, default=5)
    args = parser.parse_args()

    config = paper_mlp_config(batch_size=args.batch_size, iterations=args.iterations)
    print(f"Profiling {config.describe()} ...\n")

    # One runner serves all three figures: the first compiles the workload's
    # trace template, the others rebuild the trace from it in milliseconds.
    runner = SweepRunner()
    fig2 = run_fig2(config, max_iterations=args.iterations, runner=runner)

    print("=" * 78)
    print("Figure 2 — Gantt chart of the first five iterations")
    print("=" * 78)
    print(render_gantt(fig2.gantt, width=100, max_rows=28))
    print(f"\nPer-iteration similarity: sequence={fig2.patterns.mean_sequence_similarity:.3f}, "
          f"jaccard={fig2.patterns.mean_jaccard_similarity:.3f} "
          f"-> iterative={fig2.patterns.is_iterative}")
    print(f"Iteration durations: "
          f"{[round(x, 3) for x in fig2.iteration_durations_s]} s")

    fig3 = run_fig3(config, runner=runner)
    print("\n" + "=" * 78)
    print("Figure 3a — CDF of access-time intervals (us)")
    print("=" * 78)
    print(render_cdf(fig3.cdf, width=72, height=14))
    print("\nFigure 3b — violin statistics per behavior kind (us)")
    print(render_violin(fig3.violins))
    stats = fig3.summary_stats
    print(f"\nATI summary: p50={stats.p50_us:.1f} us, p90={stats.p90_us:.1f} us, "
          f"max={stats.max_us / 1e6:.3f} s; "
          f"{100 * fig3.fraction_below_25us:.1f}% of behaviors below 25 us")

    fig4 = run_fig4(config, runner=runner)
    print("\n" + "=" * 78)
    print("Figure 4 — per-behavior ATI and block size; outliers")
    print("=" * 78)
    points = [(index, row["ati_us"]) for index, row in enumerate(fig4.pairwise)]
    outlier_ids = {interval.end_event_id for interval in fig4.outliers.outliers}
    highlight = [(index, row["ati_us"]) for index, row in enumerate(fig4.pairwise)
                 if fig4.intervals[index].end_event_id in outlier_ids]
    print(render_scatter(points, highlight=highlight,
                         x_label="behavior index", y_label="ATI (us)"))
    print(f"\n{fig4.outliers.count} outlier behaviors "
          f"(ATI > 0.8 s and block > 600 MB) out of {len(fig4.intervals)}:")
    for line in fig4.outliers.describe()[:5]:
        print("  " + line)
    largest = fig4.outliers.largest
    if largest is not None:
        bound_gb = fig4.largest_outlier_swap_bound_gb()
        print(f"\nEq. 1 on the largest outlier: ATI={format_duration(largest.interval_ns)}, "
              f"block={format_bytes(largest.size)}, swap bound={bound_gb:.2f} GB "
              f"(>> block size, so this behavior is worth swapping)")


if __name__ == "__main__":
    main()
