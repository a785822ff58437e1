"""Per-layer metrics: from one traced sample's spans and its public results.

``busy_s`` metrics are span *self* times summed over the sample (see
``spans.py``); *counts* come from public result fields
(``SweepResult.cache_hits``, ``ScenarioResult.allocator_stats``,
``ScenarioResult.swap_execution`` ...) or from span call counts, and repeat
exactly between runs of one commit.  Names, units and directions are declared
in ``BENCHMARK.json``; this module only computes the values.
"""

from __future__ import annotations

from typing import Dict, List

from .spans import Tracer
from .workloads import Sample

#: Span names by layer group.  Used for the set-up attribution
#: (``setup.<group>.busy_s``) and for the "where did the time go" shares the
#: report prints; every span name of ``spans.SPAN_TABLE`` is in one group.
GROUPS: Dict[str, tuple] = {
    "sweep": ("sweep.run", "sweep.expand", "sweep.key"),
    "persist": ("sweep.cache_load", "sweep.cache_store", "journal.open",
                "journal.record", "journal.flush", "template_store.publish",
                "template_store.load", "replay.save_family", "replay.load_family"),
    "replay": ("replay.compile", "replay.price"),
    "train": ("session.run", "session.build", "trainer.iteration",
              "optimizer.step", "collective.allreduce"),
    "device": ("allocator.allocate", "allocator.free", "device.run_kernel"),
    "core": ("recorder.on_event", "recorder.to_trace", "trace.merge"),
    "reduce": ("sweep.reduce", "ati.intervals", "breakdown.occupation",
               "policy.evaluate"),
    "swap": ("swap.executor", "swap.plan"),
}

#: The groups a fresh simulation of one scenario runs through.
SIMULATION_GROUPS = ("train", "device", "core", "reduce", "swap")

#: Sample id the tracer files set-up (generation + ``prepare()``) spans under.
SETUP_SAMPLE = 0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def group_busy_s(tracer: Tracer, sample_id: int, group: str) -> float:
    """Self time of every span of ``group`` during ``sample_id``, seconds."""
    return sum(tracer.self_s(sample_id, name) for name in GROUPS[group])


def setup_metrics(tracer: Tracer, import_s: float) -> Dict[str, float]:
    """What set-up was spent on, by layer group."""
    return {
        "setup.import_s": import_s,
        "setup.sim.busy_s": sum(group_busy_s(tracer, SETUP_SAMPLE, group)
                                for group in SIMULATION_GROUPS),
        "setup.replay.busy_s": group_busy_s(tracer, SETUP_SAMPLE, "replay"),
        "setup.persist.busy_s": group_busy_s(tracer, SETUP_SAMPLE, "persist"),
        # expand is only ever called while the inputs are generated
        "sweep.expand.busy_s": tracer.self_s(SETUP_SAMPLE, "sweep.expand"),
    }


def sample_metrics(tracer: Tracer, sample_id: int, sample: Sample) -> Dict[str, float]:
    """Every span- or result-derived per-layer metric of one traced sample."""

    def busy(*names: str) -> float:
        return sum(tracer.self_s(sample_id, name) for name in names)

    calls = lambda name: tracer.calls(sample_id, name)   # noqa: E731
    sweeps = sample.sweeps
    # Replay-priced and cached results carry allocator/swap counters too, but
    # nothing ran to make them: layer *work* counts only take results a
    # simulation produced in this sample.  (No workload mixes the two inside
    # one SweepRunner.run; a replay fallback is a check failure.)
    priced = [r for sweep in sweeps if sweep.replayed
              for r in sweep.results if not r.from_cache]
    simulated = [r for sweep in sweeps if not sweep.replayed
                 for r in sweep.results if not r.from_cache]
    stats: Dict[str, int] = {}
    for result in simulated:
        for key, value in result.allocator_stats.items():
            stats[key] = stats.get(key, 0) + int(value)
    swap: Dict[str, float] = {}
    for result in simulated:
        for key, value in (result.swap_execution or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                swap[key] = swap.get(key, 0) + value

    return {
        # experiments.sweep
        "sweep.run.self_s": busy("sweep.run"),
        "sweep.key.busy_s": busy("sweep.key"),
        "sweep.key.calls_per_scenario": _ratio(calls("sweep.key"), sample.attempted),
        "sweep.cache_load.busy_s": busy("sweep.cache_load"),
        "sweep.cache_load.hit_ratio": _ratio(
            sum(sweep.cache_hits for sweep in sweeps), calls("sweep.cache_load")),
        "sweep.cache_store.busy_s": busy("sweep.cache_store"),
        "sweep.cache_store.bytes": sample.artifacts.get("cache_bytes", 0),
        "sweep.reduce.busy_s": busy("sweep.reduce"),
        "sweep.reduce.count": calls("sweep.reduce"),
        # experiments.journal
        "journal.open.busy_s": busy("journal.open"),
        "journal.record.busy_s": busy("journal.record", "journal.flush"),
        "journal.record.count": calls("journal.record"),
        "journal.bytes_written": tracer.counter(sample_id, "journal.bytes_written"),
        # experiments.replay
        "replay.compile.busy_s": busy("replay.compile"),
        "replay.compile.count": calls("replay.compile"),
        "replay.price.busy_s": busy("replay.price"),
        "replay.price.scenarios": len(priced),
        "replay.fallbacks": sum(sum(sweep.replay_fallbacks.values())
                                for sweep in sweeps),
        "replay.save_family.busy_s": busy("replay.save_family"),
        "replay.load_family.busy_s": busy("replay.load_family"),
        # experiments.template_store
        "template_store.publish.busy_s": busy("template_store.publish"),
        "template_store.publish.count": calls("template_store.publish"),
        "template_store.load.busy_s": busy("template_store.load"),
        "template_store.load.count": calls("template_store.load"),
        "template_store.bytes": sample.artifacts.get("template_bytes", 0),
        # train.session / train.trainer
        "session.run.busy_s": busy("session.run"),
        "session.run.count": calls("session.run"),
        "session.build.busy_s": busy("session.build"),
        "trainer.iteration.busy_s": busy("trainer.iteration"),
        "optimizer.step.busy_s": busy("optimizer.step"),
        "collective.allreduce.busy_s": busy("collective.allreduce"),
        # device
        "allocator.allocate.busy_s": busy("allocator.allocate"),
        "allocator.free.busy_s": busy("allocator.free"),
        "allocator.allocate.count": stats.get("total_alloc_count", 0),
        "allocator.cache_hit_ratio": _ratio(
            stats.get("cache_hits", 0),
            stats.get("cache_hits", 0) + stats.get("cache_misses", 0)),
        "allocator.segment_allocs": stats.get("segment_allocs", 0),
        "allocator.split_count": stats.get("split_count", 0),
        "device.run_kernel.busy_s": busy("device.run_kernel"),
        "device.run_kernel.count": calls("device.run_kernel"),
        # core.recorder / core.trace
        "recorder.on_event.busy_s": busy("recorder.on_event"),
        "recorder.events": sum(result.num_events for result in simulated),
        "recorder.to_trace.busy_s": busy("recorder.to_trace"),
        "trace.merge.busy_s": busy("trace.merge"),
        # core.ati / core.breakdown / baselines.policy
        "ati.intervals.busy_s": busy("ati.intervals"),
        "breakdown.occupation.busy_s": busy("breakdown.occupation"),
        "policy.evaluate.busy_s": busy("policy.evaluate"),
        # swap
        "swap.executor.busy_s": busy("swap.executor"),
        "swap.plan.busy_s": busy("swap.plan"),
        "swap.swap_outs": swap.get("swap_out_count", 0),
        "swap.swap_ins": swap.get("swap_in_count", 0),
        "swap.demand_fetches": swap.get("demand_fetches", 0),
        "swap.prefetch_hit_ratio": _ratio(swap.get("prefetch_hits", 0),
                                          swap.get("prefetches_scheduled", 0)),
        "swap.pressure_evictions": swap.get("pressure_evictions", 0),
        "swap.recomputes": swap.get("recompute_count", 0),
        "sim.swap_stall_ms_sum": swap.get("stall_ns_total", 0) / 1e6,
        # harness
        "trace.sample_wall_s": sample.wall_s,
        "trace.accounted_frac": _ratio(tracer.accounted_s(sample_id), sample.wall_s),
    }


def shares(tracer: Tracer, sample_id: int) -> List[tuple]:
    """``(group, busy_s, share of accounted time)`` rows, largest first."""
    total = tracer.accounted_s(sample_id)
    rows = [(group, group_busy_s(tracer, sample_id, group)) for group in GROUPS]
    return sorted(((group, seconds, _ratio(seconds, total))
                   for group, seconds in rows), key=lambda row: -row[1])
