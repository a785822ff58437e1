"""Experiment E1/E9 — Figure 2: Gantt chart of the first five MLP iterations.

The paper's observation: "there are obvious iterative memory access patterns
in the first five rounds of MLP training" and "there are fewer memory
fragments during MLP training".  This experiment produces the Gantt-chart
rectangles, the per-iteration pattern-similarity report and the
fragmentation summary from the MLP scenario's trace, served by the sweep
runner (:meth:`~repro.experiments.sweep.SweepRunner.trace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.fragmentation import FragmentationReport, analyze_fragmentation
from ..core.gantt import GanttChart, build_gantt_chart
from ..core.patterns import PatternReport, detect_iterative_pattern
from ..train.session import TrainingRunConfig
from .configs import paper_mlp_config
from .sweep import Scenario, SweepRunner


@dataclass
class Fig2Result:
    """Everything needed to redraw Figure 2 and back the iterative-pattern claim."""

    label: str
    gantt: GanttChart
    patterns: PatternReport
    fragmentation: FragmentationReport
    #: Duration of each completed profiled iteration, in seconds.
    iteration_durations_s: List[float]
    num_iterations: int
    peak_live_bytes: int

    def lifetimes_span_and_nest(self) -> bool:
        """The paper's second observation: long-lived parameter blocks coexist
        with short-lived activations — some rectangle spans every drawn
        iteration and some rectangle is shorter than one."""
        bounds = self.gantt.iteration_bounds
        rectangles = self.gantt.rectangles
        if not bounds or not rectangles:
            return False
        first_start = min(start for _, start, _ in bounds)
        last_end = max(end for _, _, end in bounds)
        shortest = min(end - start for _, start, end in bounds)
        return (any(r.start_ns <= first_start and r.end_ns >= last_end
                    for r in rectangles)
                and any(r.duration_ns < shortest for r in rectangles))

    def summary(self) -> Dict[str, object]:
        """Compact summary recorded in EXPERIMENTS.md."""
        return {
            "workload": self.label,
            "num_rectangles": len(self.gantt),
            "num_iterations": self.num_iterations,
            "mean_sequence_similarity": self.patterns.mean_sequence_similarity,
            "mean_jaccard_similarity": self.patterns.mean_jaccard_similarity,
            "is_iterative": self.patterns.is_iterative,
            "peak_live_bytes": self.peak_live_bytes,
            "mean_allocator_utilization": self.fragmentation.mean_utilization,
            "iteration_durations_s": self.iteration_durations_s,
        }


def run_fig2(config: Optional[TrainingRunConfig] = None,
             max_iterations: int = 5,
             runner: Optional[SweepRunner] = None) -> Fig2Result:
    """Run the Figure-2 experiment (paper MLP, five iterations, Gantt + patterns).

    ``runner`` (defaulting to a serial, uncached :class:`SweepRunner`) serves
    the trace; share one across figures to rebuild instead of re-simulating.
    """
    runner = runner if runner is not None else SweepRunner()
    scenario = Scenario(config if config is not None else paper_mlp_config())
    trace = runner.trace(scenario)
    return Fig2Result(
        label=scenario.label,
        gantt=build_gantt_chart(trace, max_iterations=max_iterations),
        patterns=detect_iterative_pattern(trace, skip_warmup=1),
        fragmentation=analyze_fragmentation(trace),
        iteration_durations_s=[mark.duration_ns() / 1e9
                               for mark in trace.iteration_marks
                               if mark.end_ns is not None],
        num_iterations=len(trace.iteration_marks),
        peak_live_bytes=trace.peak_live_bytes(),
    )
