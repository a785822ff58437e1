#!/usr/bin/env python
"""Quickstart: profile the memory behaviors of a small MLP training run.

This is the five-minute tour of the library:

1. describe a training workload with :class:`repro.TrainingRunConfig`;
2. run it with :func:`repro.run_training_session` — the device allocator and
   every tensor access are instrumented automatically;
3. analyse the recorded trace: access-time intervals, occupation breakdown,
   Gantt chart and iterative-pattern report.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import TrainingRunConfig, run_training_session
from repro.core import (
    build_gantt_chart,
    compute_interval_arrays,
    detect_iterative_pattern,
    occupation_breakdown,
    summarize_values_us,
)
from repro.units import format_bytes
from repro.viz import render_gantt


def main() -> None:
    config = TrainingRunConfig(
        model="mlp",
        model_kwargs={"hidden_dim": 512},
        dataset="two_cluster",
        batch_size=256,
        iterations=5,
        label="quickstart MLP",
    )
    print(f"Training {config.describe()} on a simulated Titan X (Pascal)...\n")
    result = run_training_session(config)
    trace = result.trace

    print("Per-iteration memory behaviors:")
    columns = trace.columns()
    # The allocated-bytes high-water mark up to each row.
    peaks = np.maximum.accumulate(np.cumsum(columns.live_deltas()))
    for stats in result.iteration_stats:
        in_iteration = columns.iteration == stats.index
        blocks = np.unique(columns.block_id[in_iteration]).size
        peak = int(peaks[np.flatnonzero(in_iteration)[-1]])
        print(f"  iteration {stats.index}: time={stats.duration_ns / 1e6:.2f} ms "
              f"peak={format_bytes(peak)} "
              f"behaviors={int(in_iteration.sum())} blocks={blocks}")

    print(f"\nRecorded {len(trace)} memory behaviors on {len(trace.block_ids())} device blocks.")

    intervals = compute_interval_arrays(trace)   # one row per ATI
    summary = summarize_values_us(intervals.interval_us)
    print(f"Access-time intervals: n={summary.count}, "
          f"p50={summary.p50_us:.1f} us, p90={summary.p90_us:.1f} us, "
          f"max={summary.max_us / 1e6:.3f} s")

    breakdown = occupation_breakdown(trace, label=config.label)
    print("\nOccupation breakdown at peak footprint:")
    print("  " + breakdown.format_row())

    patterns = detect_iterative_pattern(trace)
    print(f"\nIterative pattern: similarity={patterns.mean_sequence_similarity:.3f} "
          f"(iterative={patterns.is_iterative})")

    print("\nGantt chart of block lifetimes (first 5 iterations):")
    print(render_gantt(build_gantt_chart(trace, max_iterations=5), width=90, max_rows=20))


if __name__ == "__main__":
    main()
