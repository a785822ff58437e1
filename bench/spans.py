"""Span tracing from outside the program: wrap public callables, time them.

The traced pass installs one wrapper per row of :data:`SPAN_TABLE` around the
named public callable and removes it again on exit.  A span is
``(name, start_ns, end_ns, parent, sample)``; a layer's *self time* is its
span's duration minus the part its child spans cover, so self times over one
sample add up to the time inside the outermost spans and nothing is counted
twice.  Self times and call counts are accumulated per ``(sample, name)`` as
the spans close; the span rows themselves are kept (in memory, written at
exit) only when the caller asks for them with ``--trace-out``, because the
per-event wrappers produce a few hundred thousand rows per sample.

Wrapper bookkeeping runs outside the wrapped call's own clock readings, so it
lands in the *parent's* self time: that is the tracing overhead, reported as
``trace.overhead_frac``, and the reason no end-to-end number is ever taken
with wrappers installed.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One row of the span table."""

    module: str                  # import path of the defining module
    owner: Optional[str]         # class name, or None for a module-level function
    attribute: str
    name: str                    # span name (several rows may share one)
    #: Per-event wrapper: installed only for workloads that simulate inside
    #: the sample (it adds 40-60 % to a simulation, the coarse rows ~10 %).
    fine: bool = False
    #: Also wrap the attribute on every subclass that overrides it.
    subclasses: bool = False
    #: ``(counter, fn(args, result) -> number)`` added to a counter per call.
    tally: Optional[Tuple[str, Callable]] = None


def _journal_bytes(args, _result) -> int:
    return os.path.getsize(args[0].path)


_SWEEP = "repro.experiments.sweep"
_REPLAY = "repro.experiments.replay"
_SESSION = "repro.train.session"

SPAN_TABLE: Tuple[Span, ...] = (
    # experiments.sweep
    Span(_SWEEP, "SweepRunner", "run", "sweep.run"),
    Span(_SWEEP, "SweepGrid", "expand", "sweep.expand"),
    Span(_SWEEP, "Scenario", "key", "sweep.key"),
    Span(_SWEEP, "SweepRunner", "cache_load", "sweep.cache_load"),
    Span(_SWEEP, "SweepRunner", "cache_store", "sweep.cache_store"),
    Span(_SWEEP, None, "reduce_session", "sweep.reduce"),
    # experiments.journal (flush is the body of record_*, same span name; its
    # tally is the quadratic term: the whole file is rewritten per record)
    Span("repro.experiments.journal", "RunJournal", "for_keys", "journal.open"),
    Span("repro.experiments.journal", "RunJournal", "record_completed",
         "journal.record"),
    Span("repro.experiments.journal", "RunJournal", "record_failed",
         "journal.record"),
    Span("repro.experiments.journal", "RunJournal", "flush", "journal.flush",
         tally=("journal.bytes_written", _journal_bytes)),
    # experiments.replay
    Span(_REPLAY, "TemplateFamily", "capture", "replay.compile"),
    Span(_REPLAY, "ReplayEngine", "price_batch", "replay.price"),
    Span(_REPLAY, None, "save_family", "replay.save_family"),
    Span(_REPLAY, None, "load_family", "replay.load_family"),
    # experiments.template_store
    Span("repro.experiments.template_store", "TemplateStore", "publish",
         "template_store.publish"),
    Span("repro.experiments.template_store", "TemplateStore", "load",
         "template_store.load"),
    # train.session / train.trainer
    Span(_SESSION, None, "run_training_session", "session.run"),
    Span("repro.models.registry", None, "build_model", "session.build"),
    Span("repro.data.datasets", None, "build_dataset", "session.build"),
    Span(_SESSION, None, "build_device_group", "session.build"),
    Span("repro.train.trainer", "DataParallelTrainer", "train_iteration",
         "trainer.iteration"),
    Span("repro.nn.optim", "Optimizer", "step", "optimizer.step", subclasses=True),
    Span("repro.device.collective", "CollectiveEngine", "allreduce",
         "collective.allreduce"),
    # core.recorder / core.trace
    Span("repro.core.recorder", "TraceRecorder", "to_trace", "recorder.to_trace"),
    Span("repro.core.trace", None, "merge_rank_traces", "trace.merge"),
    # core.ati / core.breakdown / baselines.policy
    Span("repro.core.ati", None, "compute_interval_arrays", "ati.intervals"),
    Span("repro.core.breakdown", None, "occupation_breakdown",
         "breakdown.occupation"),
    Span("repro.baselines.policy", "MemoryPolicy", "evaluate", "policy.evaluate",
         subclasses=True),
    # swap
    Span("repro.swap.policies", "SwapExecutionPolicy", "plan", "swap.plan",
         subclasses=True),
    Span("repro.swap.executor", "SwapExecutor", "begin_iteration", "swap.executor"),
    Span("repro.swap.executor", "SwapExecutor", "end_iteration", "swap.executor"),
    Span("repro.swap.executor", "SwapExecutor", "finalize", "swap.executor"),
    Span("repro.swap.executor", "SwapExecutor", "on_malloc", "swap.executor", fine=True),
    Span("repro.swap.executor", "SwapExecutor", "on_free", "swap.executor", fine=True),
    Span("repro.swap.executor", "SwapExecutor", "on_read", "swap.executor", fine=True),
    Span("repro.swap.executor", "SwapExecutor", "on_write", "swap.executor", fine=True),
    # device
    Span("repro.device.device", "Device", "allocate", "allocator.allocate", fine=True),
    Span("repro.device.device", "Device", "free", "allocator.free", fine=True),
    Span("repro.device.device", "Device", "run_kernel", "device.run_kernel", fine=True),
    # core.recorder, per event
    Span("repro.core.recorder", "TraceRecorder", "on_malloc", "recorder.on_event", fine=True),
    Span("repro.core.recorder", "TraceRecorder", "on_free", "recorder.on_event", fine=True),
    Span("repro.core.recorder", "TraceRecorder", "on_read", "recorder.on_event", fine=True),
    Span("repro.core.recorder", "TraceRecorder", "on_write", "recorder.on_event", fine=True),
)


class Tracer:
    """Accumulates self time and call counts per ``(sample, span name)``."""

    def __init__(self, keep_rows: bool = False):
        self.keep_rows = keep_rows
        self.sample = 0
        #: sample -> name -> [calls, self_ns]
        self.totals: Dict[int, Dict[str, List[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0]))
        #: sample -> counter name -> value
        self.counters: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: (name, start_ns, end_ns, parent row or -1, sample), when kept
        self.rows: List[list] = []
        self._stack: List[list] = []     # open spans: [child_ns, row index]

    def begin_sample(self, sample: int) -> None:
        """Spans closed from now on belong to ``sample``."""
        self.sample = sample

    def wrap(self, function: Callable, name: str,
             tally: Optional[Tuple[str, Callable]] = None) -> Callable:
        """``function`` wrapped in a span called ``name``."""
        stack, rows, keep_rows = self._stack, self.rows, self.keep_rows

        def traced(*args, **kwargs):
            frame = [0, -1]
            if keep_rows:
                frame[1] = len(rows)
                rows.append([name, 0, 0, stack[-1][1] if stack else -1,
                             self.sample])
            stack.append(frame)
            started = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                stack.pop()
                duration = ended - started
                if stack:
                    stack[-1][0] += duration
                total = self.totals[self.sample][name]
                total[0] += 1
                total[1] += duration - frame[0]
                if keep_rows:
                    row = rows[frame[1]]
                    row[1], row[2] = started, ended
            if tally is not None:
                self.counters[self.sample][tally[0]] += tally[1](args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # -- reading ------------------------------------------------------------------------

    def self_s(self, sample: int, name: str) -> float:
        """Self time of every ``name`` span closed during ``sample``, seconds."""
        return self.totals[sample][name][1] / 1e9 if name in self.totals[sample] else 0.0

    def calls(self, sample: int, name: str) -> int:
        """Spans called ``name`` closed during ``sample``."""
        return self.totals[sample][name][0] if name in self.totals[sample] else 0

    def counter(self, sample: int, name: str) -> float:
        """Value of tally counter ``name`` over ``sample``."""
        return self.counters[sample].get(name, 0.0)

    def accounted_s(self, sample: int) -> float:
        """Sum of every span's self time in ``sample`` (= time inside root spans)."""
        return sum(total[1] for total in self.totals[sample].values()) / 1e9

    def write(self, path) -> None:
        """Write the kept span rows as JSON (``--trace-out``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "sample"],
                       "spans": self.rows}, handle)


def self_times(rows) -> Dict[str, int]:
    """Self time per span name, recomputed from kept ``rows``: each span's
    duration minus the durations of the spans naming it as their parent."""
    covered = defaultdict(int)
    for _name, start, end, parent, _sample in rows:
        if parent >= 0:
            covered[parent] += end - start
    result: Dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent, _sample) in enumerate(rows):
        result[name] += (end - start) - covered[index]
    return dict(result)


def _bindings(span: Span):
    """Every ``(namespace object, attribute, current value)`` the row names.

    For a module-level function that is the defining module *and* every
    loaded ``repro`` module that imported the function by name
    (``from ..train.session import run_training_session``), since those hold
    their own reference.
    """
    module = importlib.import_module(span.module)
    if span.owner is None:
        original = getattr(module, span.attribute)
        for name, candidate in list(sys.modules.items()):
            if candidate is not None and (name == "repro" or name.startswith("repro.")) \
                    and candidate.__dict__.get(span.attribute) is original:
                yield candidate, span.attribute, original
        return
    owner = getattr(module, span.owner)
    classes = [owner]
    if span.subclasses:
        pending = list(owner.__subclasses__())
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
    for cls in classes:
        if span.attribute in cls.__dict__:
            yield cls, span.attribute, cls.__dict__[span.attribute]


class installed:
    """Context manager: wrap every selected table row, restore on exit."""

    def __init__(self, tracer: Tracer, fine: bool = False,
                 table: Tuple[Span, ...] = SPAN_TABLE):
        self.tracer = tracer
        self.table = [span for span in table if fine or not span.fine]
        #: (namespace, attribute, original, wrapper) of everything replaced
        self.patched: List[tuple] = []

    def __enter__(self) -> "installed":
        # Import every named module first, so a module that imports a wrapped
        # function by name is already loaded and gets its binding replaced
        # (and restored) like the defining module's.
        for span in self.table:
            importlib.import_module(span.module)
        for span in self.table:
            for namespace, attribute, original in list(_bindings(span)):
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self.tracer.wrap(
                        original.__func__, span.name, span.tally))
                else:
                    wrapped = self.tracer.wrap(original, span.name, span.tally)
                setattr(namespace, attribute, wrapped)
                self.patched.append((namespace, attribute, original, wrapped))
        return self

    def __exit__(self, *exc_info) -> None:
        for namespace, attribute, original, _wrapped in reversed(self.patched):
            setattr(namespace, attribute, original)
        # A repro module first imported while the wrappers were installed
        # copied a wrapper by name; give it the original back too.
        originals = {id(wrapped): original
                     for _ns, _attr, original, wrapped in self.patched}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attribute, originals[id(value)])
        self.patched.clear()
