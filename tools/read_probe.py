#!/usr/bin/env python
"""Where the time of a ``cache_read`` pass goes.

``make read-probe`` populates one store with the benchmark's ``cache_read``
grid (its 208 replay-priced scenarios at seed 100, written in the workload's
two sessions), then times, round after round, one whole pass — a fresh
``SweepRunner(resume=True).run`` served entirely from the store — and each
stage of that pass on its own, through the checkout's own functions:

* keys and tokens — every scenario's ``structure_token`` and
  ``Scenario.key`` (which resolves the scenario's bandwidths), as the run
  computes them;
* journal open — ``RunJournal.for_keys`` on those keys;
* open + read — every entry's bytes through the store (``read_lines``,
  which opens and reads the way ``read_json`` does, without a JSON decode);
* JSON decode — ``json.loads`` of every entry's text, the decode no read
  path avoids;
* construction — the runner's entry parser on every decoded entry;
* wrappers and rest — the pass minus the stages above: the per-hit calls
  around the decode (``cache_load``, ``read_json`` and what they do beyond
  the stages) and the run's own bookkeeping.

It prints the median microseconds per hit of each over the rounds, whose
stage order alternates so that a drifting host charges every stage alike.
Stages a checkout lacks are skipped, so the probe runs unchanged on an older
commit for a side-by-side reading.  Reports, never fails.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench.workloads import CacheRead  # noqa: E402
from repro.experiments import sweep  # noqa: E402
from repro.experiments.artifacts import ArtifactStore  # noqa: E402
from repro.experiments.journal import RunJournal  # noqa: E402
from repro.experiments.sweep import Scenario, SweepRunner  # noqa: E402

ORDER = ["keys and tokens", "journal open", "open + read", "JSON decode",
         "construction", "wrappers and rest"]


def benchmark_sample(directory: Path, seed: int = 100) -> Tuple[List[Scenario], Path]:
    """The ``cache_read`` workload's scenarios and the store it populates."""
    workload = CacheRead(seed, directory)
    workload.prepare()
    return workload.scenarios, workload.store


def _stages(scenarios: Sequence[Scenario], store: Path) -> Dict[str, Callable[[], object]]:
    """One callable per stage this checkout has, each over every scenario."""
    def keys_and_tokens():
        tokens = [sweep.structure_token(scenario.config) for scenario in scenarios]
        return [scenario.key(token=token)
                for scenario, token in zip(scenarios, tokens)]

    artifacts = ArtifactStore(store)
    keys = keys_and_tokens()
    names = [f"{key}.json" for key in keys]
    texts = [(store / name).read_text(encoding="utf-8") for name in names]
    entries = [json.loads(text) for text in texts]
    stages = {
        "keys and tokens": keys_and_tokens,
        "journal open": lambda: RunJournal.for_keys(
            artifacts, keys, sweep.RESULT_SCHEMA_VERSION),
        "open + read": lambda: _drain(artifacts.read_lines(name, "cache_corrupt", len)
                                      for name in names),
        "JSON decode": lambda: _drain(map(json.loads, texts)),
    }
    parse = getattr(sweep, "_parse_cache_entry", None)
    if parse is not None:
        stages["construction"] = lambda: [parse(entry) for entry in entries]
    return stages


def _drain(values) -> None:
    """Consume ``values`` keeping none alive (a pass keeps only its results)."""
    for _ in values:
        pass


def _pass(scenarios: Sequence[Scenario], store: Path) -> None:
    """One ``cache_read`` pass: a fresh resuming runner, every scenario a hit."""
    with SweepRunner(cache_dir=store, workers=1, strict=False, resume=True) as runner:
        served = runner.run(scenarios)
    if served.cache_hits != len(scenarios):
        raise RuntimeError(f"{served.cache_hits} hits of {len(scenarios)}")


def _timed(action: Callable[[], object], repeats: int) -> float:
    """The least of ``repeats`` wall times of ``action()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def probe(scenarios: Sequence[Scenario], store: Path, rounds: int = 15,
          repeats: int = 3) -> List[Tuple[str, float]]:
    """Median microseconds per hit of each stage and of the whole pass
    (``total``), over ``rounds`` rounds after one warm-up round; a round
    reads each the least of ``repeats`` runs (a shared host's stalls last
    milliseconds, a stage runs for a few)."""
    stages = _stages(scenarios, store)
    steps = [("total", lambda: _pass(scenarios, store)), *stages.items()]
    readings: List[Dict[str, float]] = []
    for round_number in range(rounds + 1):
        gc.collect()
        order = steps if round_number % 2 else steps[::-1]
        reading = {stage: _timed(action, repeats) * 1e6 / len(scenarios)
                   for stage, action in order}
        reading["wrappers and rest"] = reading["total"] - sum(
            reading[stage] for stage in stages)
        if round_number:
            readings.append(reading)
    return [(stage, statistics.median(reading[stage] for reading in readings))
            for stage in ORDER + ["total"] if stage in readings[0]]


def table(rows: List[Tuple[str, float]]) -> str:
    """One line per stage: median microseconds per hit and share of the pass."""
    total = dict(rows)["total"]
    lines = [f"{'stage':<20} {'us per hit':>10} {'share':>7}"]
    for stage, us in rows:
        lines.append(f"{stage:<20} {us:>10.2f} {us / total:>6.1%}")
    return "\n".join(lines)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        scenarios, store = benchmark_sample(Path(tmp))
        print(f"cache_read pass ({len(scenarios)} hits), medians of 15 alternating rounds")
        print(table(probe(scenarios, store)))
