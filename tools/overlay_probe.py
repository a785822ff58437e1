#!/usr/bin/env python
"""Where the time of a ``swap_ladder`` sample goes.

``make overlay-probe`` runs the benchmark's ``swap_ladder`` sample (its 23
rows at seed 100, one serial uncached ``SweepRunner.run``) seven times with
a timer on each stage and prints the median milliseconds of each:

* recording — ``record_session``, the swap-off twins the rows share;
* placement — ``Recording.placed``, each twin placed once per allocator and
  capacity (the placement passes and the segment rows);
* overlay — ``overlay`` split into the walk index and executor set-up
  (init), the row walk, the learning passes, the log (its columns merged
  where read, or built in full: a ``Splice`` under the overlay; the
  placement's own splice is the placement's time), the policies' plans,
  ``finalize`` and the rest of the overlay's own code;
* reduction — ``reduce_session``, its measure of the class recordings
  (``measure_class``) apart;
* trace build — an overlaid trace built when a session's traces are read
  (``WalkClock.trace``; none on this sweep, whose rows evaluate no offline
  policy);
* sweep — what the runner spends around them.

Every timer counts only its own time: a stage nested in another (the walk
inside ``finalize``, a plan inside the overlay) is charged to itself.
Stages a checkout lacks are skipped, so the probe runs unchanged on an
older commit for a side-by-side reading.

It then prints five exact counts of one more sample, taken with no timer
installed: the recorded rows the walks walked, the rows a walk acted on
(``SwapExecutor._enter``), the access rows walked with neither a capacity
nor a pressure-relieving policy — the most any lever that skips rows no
decision can fire on could save —, the overlaid logs built in full
(``Splice.columns`` less the one build of each placed recording,
``PlacedTrace._place``; ``WalkLog.columns`` or ``SwapExecutor.log`` on a
checkout without the splice) and the class recordings measured
(``measure_class``).

cProfile put ``Stream.reserve`` at 8-12 % of the overlay's self time, but
wall time did not confirm it: the profiler's per-call cost inflates the
many short calls, so read the overlay here, not off a profile.  Reports,
never fails.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from functools import cached_property
from pathlib import Path
from unittest import mock
from typing import Dict, Iterator, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench.workloads import SwapLadder  # noqa: E402
from repro.core import recorder, trace  # noqa: E402
from repro.experiments import results  # noqa: E402
from repro.experiments.sweep import Scenario, SweepRunner  # noqa: E402
from repro.swap import executor, policies  # noqa: E402
from repro.train import session  # noqa: E402


def _log_stage(stack: Sequence[str]) -> str:
    """A splice's merge is the overlay's log under the overlay, else its caller's stage."""
    return "overlay: log" if not stack or stack[-1].startswith("overlay") else stack[-1]


#: ``(owner, attribute, stage)`` of every timed call (a callable stage is
#: picked from the stages open at the call); owners a checkout lacks are skipped.
STAGES = [
    (session, "record_session", "recording"),
    (session.Recording, "placed", "placement"),
    (executor, "overlay", "overlay: rest"),
    (getattr(executor, "WalkIndex", None), "__init__", "overlay: init"),
    (executor.SwapExecutor, "__init__", "overlay: init"),
    (executor.SwapExecutor, "_walk", "overlay: walk"),
    (executor, "learn_from_rows", "overlay: learning"),
    (executor.SwapExecutor, "_learn_warmup", "overlay: learning"),
    (executor.SwapExecutor, "log", "overlay: log"),
    (executor.SwapExecutor, "finalize", "overlay: finalize"),
    *((policy, "plan", "overlay: plan") for policy in policies.POLICIES.values()
      if "plan" in vars(policy)),
    (results, "reduce_session", "reduction"),
    (results, "measure_class", "reduction: measure"),
    (getattr(trace, "Splice", None), "column", _log_stage),
    (getattr(trace, "Splice", None), "columns", _log_stage),
    (getattr(executor, "WalkLog", None), "column", "overlay: log"),
    (getattr(executor, "WalkLog", None), "columns", "overlay: log"),
    (getattr(executor, "WalkClock", None), "trace", "trace build"),
]
ORDER = ["recording", "placement", "overlay: init", "overlay: walk", "overlay: learning",
         "overlay: log", "overlay: plan", "overlay: finalize", "overlay: rest",
         "reduction: measure", "reduction", "trace build", "sweep"]


class Timers:
    """Exclusive wall time per stage: a call charges its parent's stage
    with the time up to it and its own stage with the time inside it."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self._stack: List[str] = []
        self._mark = 0.0

    def _charge(self) -> None:
        now = time.perf_counter()
        if self._stack:
            top = self._stack[-1]
            self.totals[top] = self.totals.get(top, 0.0) + now - self._mark
        self._mark = now

    @contextmanager
    def installed(self) -> Iterator["Timers"]:
        """Every stage of :data:`STAGES` present in this checkout wrapped,
        the originals put back on exit."""
        originals = []
        for owner, attribute, stage in STAGES:
            if owner is None or attribute not in vars(owner):
                continue
            original = vars(owner)[attribute]
            function = original.func if isinstance(original, cached_property) else original

            def timed(*args, _original=function, _stage=stage, **kwargs):
                self._charge()
                self._stack.append(_stage(self._stack) if callable(_stage) else _stage)
                try:
                    return _original(*args, **kwargs)
                finally:
                    self._charge()
                    self._stack.pop()
            if isinstance(original, cached_property):
                timed = cached_property(timed)
                timed.__set_name__(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, timed)
        try:
            yield self
        finally:
            for owner, attribute, original in originals:
                setattr(owner, attribute, original)


def sample(runner: SweepRunner, scenarios: Sequence[Scenario],
           timers: Timers) -> Dict[str, float]:
    """One sample's milliseconds per stage, the sweep's own time included."""
    timers.totals.clear()
    started = time.perf_counter()
    runner.run(scenarios)
    wall = time.perf_counter() - started
    spent = {stage: seconds * 1e3 for stage, seconds in timers.totals.items()}
    spent["sweep"] = wall * 1e3 - sum(spent.values())
    spent["total"] = wall * 1e3
    return spent


def ladder() -> List[Scenario]:
    """The ``swap_ladder`` sample's rows at seed 100."""
    with tempfile.TemporaryDirectory() as tmp:
        return SwapLadder(100, Path(tmp)).scenarios


def probe(scenarios: Sequence[Scenario], samples: int = 7) -> List[Tuple[str, float]]:
    """Median milliseconds per stage of a serial uncached sweep over
    ``scenarios``, over ``samples`` samples after one warm-up."""
    runner = SweepRunner(cache_dir=None, workers=1, strict=False)
    with Timers().installed() as timers:
        sample(runner, scenarios, timers)
        readings = [sample(runner, scenarios, timers) for _ in range(samples)]
    return [(stage, statistics.median(reading.get(stage, 0.0) for reading in readings))
            for stage in ORDER + ["total"]]


#: The exact counts of :func:`counts`, in print order.
COUNTS = ["recorded rows walked", "rows acted on", "ungoverned access rows",
          "full log builds", "measure_class calls"]


def counts(scenarios: Sequence[Scenario]) -> Dict[str, int]:
    """The :data:`COUNTS` of one serial uncached sweep over ``scenarios``,
    no timer installed (a walk without ``_enter`` counts no acted-on rows)."""
    found = dict.fromkeys(COUNTS, 0)
    owner = executor.SwapExecutor
    walk, enter = owner._walk, vars(owner).get("_enter")
    accesses = {executor._READ, executor._WRITE}
    # The full log build: ``Splice.columns``, less the one of each placed
    # recording; a checkout without the splice builds it in
    # ``WalkLog.columns``, one without either in ``SwapExecutor.log``.
    splice, walk_log = getattr(trace, "Splice", None), getattr(executor, "WalkLog", None)
    tallied = [(results, "measure_class", "measure_class calls")]
    if splice is not None:
        tallied += [(splice, "columns", "full log builds"),
                    (recorder.PlacedTrace, "_place", "placements")]
    else:
        tallied.append((*((walk_log, "columns") if walk_log is not None else (owner, "log")),
                        "full log builds"))

    def counted_walk(self, stop):
        walked = self._kind[self._cursor:stop]
        found["recorded rows walked"] += len(walked)
        if not self._governed:
            found["ungoverned access rows"] += sum(kind in accesses for kind in walked)
        return walk(self, stop)

    def counted_enter(self, row):
        found["rows acted on"] += 1
        return enter(self, row)

    def tally(function, name):
        def counted(*args, **kwargs):
            found[name] = found.get(name, 0) + 1
            return function(*args, **kwargs)
        return counted

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(owner, "_walk", counted_walk))
        if enter is not None:
            patches.enter_context(mock.patch.object(owner, "_enter", counted_enter))
        for target, attribute, name in tallied:
            patches.enter_context(mock.patch.object(
                target, attribute, tally(getattr(target, attribute), name)))
        SweepRunner(cache_dir=None, workers=1, strict=False).run(scenarios)
    found["full log builds"] -= found.pop("placements", 0)
    return found


def table(rows: List[Tuple[str, float]]) -> str:
    """One line per stage: median ms and share of the median sample."""
    total = dict(rows)["total"]
    overlay = sum(ms for stage, ms in rows if stage.startswith("overlay"))
    lines = [f"{'stage':<20} {'median ms':>10} {'share':>7}"]
    for stage, ms in rows:
        lines.append(f"{stage:<20} {ms:>10.2f} {ms / total:>6.1%}")
    lines.append(f"{'overlay (all)':<20} {overlay:>10.2f} {overlay / total:>6.1%}")
    return "\n".join(lines)


if __name__ == "__main__":
    rows = ladder()
    print(f"swap_ladder sample ({len(rows)} rows), medians of 7")
    print(table(probe(rows)))
    print("exact counts of one sample (no timers)")
    for name, count in counts(rows).items():
        print(f"{name:<24} {count:>10,}")
