"""Shared trace-building helpers for the tier-1 suite.

This module (not ``conftest.py``) is the import target for plain helper
functions, so that test modules never depend on conftest import order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from repro.core import ati as ati_module
from repro.core import trace as trace_module
from repro.core.ati import IntervalArrays, compute_interval_arrays
from repro.core.events import IterationMark, MemoryCategory, MemoryEventKind
from repro.core.recorder import TraceRecorder
from repro.core.trace import (CATEGORY_CODES, CATEGORY_FROM_CODE, KIND_CODES, KIND_FROM_CODE,
                              NEVER_FREED, EventColumns, MemoryTrace, lifetimes_from_columns,
                              merge_rank_traces)
from repro.device.allocator import BASE_ADDRESS, call_rows, place, round_block_size
from repro.device.cluster import ClusterSpec
from repro.device.stream import Stream
from repro.device.timing import KernelTimingModel
from repro.core.swap import BandwidthConfig, swap_round_trip_ns
from repro.errors import InfeasibleScenarioError, TraceInvariantError
from repro.experiments.replay import _POINT_KEY
from repro.swap.executor import (PREFETCH_MARGIN_NS, WARMUP_ITERATIONS,
                                  SwapExecutionSummary, WarmupObservations)
from repro.swap.policies import EvictDirective, RecomputePolicy, get_policy
from repro.train.session import build_cluster
from repro.units import MIB


#: One behavior as the tests read it: a trace row's fields, with its kind and
#: category as enum members.
Event = namedtuple("Event", "event_id kind timestamp_ns block_id address size category "
                            "tag iteration op device_rank",
                   defaults=(MemoryCategory.UNKNOWN, "", -1, "", 0))
#: One block lifetime: its malloc row's fields, when it was freed (``None``:
#: never) and the number of accesses inside it.
Lifetime = namedtuple("Lifetime", "block_id address size category tag malloc_ns free_ns "
                                  "iteration access_count device_rank",
                      defaults=(None, -1, 0, 0))


def trace_events(trace):
    """The trace's rows as :data:`Event` tuples, in stream order."""
    cols = trace.columns()
    tags, ops = trace.event_strings()
    return [Event(event_id, KIND_FROM_CODE[kind], timestamp, block_id, address, size,
                  CATEGORY_FROM_CODE[category], tag, iteration, op, rank)
            for event_id, kind, timestamp, block_id, address, size, category, tag,
            iteration, op, rank in zip(
                cols.event_id.tolist(), cols.kind_code.tolist(),
                cols.timestamp_ns.tolist(), cols.block_id.tolist(),
                cols.address.tolist(), cols.size.tolist(), cols.category_code.tolist(),
                tags, cols.iteration.tolist(), ops, cols.device_rank.tolist())]


def trace_lifetimes(trace):
    """:func:`lifetimes_from_columns` as :data:`Lifetime` tuples, in malloc order."""
    rows, free_ns, access_count = lifetimes_from_columns(trace.columns())
    events = trace_events(trace)
    return [Lifetime(event.block_id, event.address, event.size, event.category, event.tag,
                     event.timestamp_ns, None if freed == NEVER_FREED else freed,
                     event.iteration, accesses, event.device_rank)
            for event, freed, accesses in zip([events[row] for row in rows.tolist()],
                                              free_ns.tolist(), access_count.tolist())]


def trace_from_events(events, iteration_marks=None, metadata=None, end_ns=0):
    """A :class:`MemoryTrace` whose columns hold ``events`` (:data:`Event` tuples)."""
    events = list(events)
    table = np.array([(event.event_id, KIND_CODES[event.kind], event.timestamp_ns,
                       event.block_id, event.address, event.size,
                       CATEGORY_CODES[event.category], event.iteration, event.device_rank)
                      for event in events], dtype=np.int64).reshape(len(events), 9)
    names = ("event_id", "kind_code", "timestamp_ns", "block_id", "address", "size",
             "category_code", "iteration", "device_rank")
    columns = EventColumns(**{name: table[:, i].copy() for i, name in enumerate(names)})
    return MemoryTrace(columns=columns, event_tags=[event.tag for event in events],
                       event_ops=[event.op for event in events],
                       iteration_marks=iteration_marks, metadata=metadata, end_ns=end_ns)


def json_digest(value) -> str:
    """sha256 of ``value``'s canonical JSON (sorted keys, floats by ``repr``)."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def interval_arrays(rows, category=MemoryCategory.ACTIVATION) -> IntervalArrays:
    """An :class:`IntervalArrays` of ``(block_id, size, interval_ns)`` rows:
    each a write closed by a read in iteration 0, row ``i`` closing at event
    ``i`` (so a tag list indexes by row)."""
    block_id, size, interval_ns = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
    index = np.arange(len(rows), dtype=np.int64)

    def constant(value):
        return np.full(len(rows), value, dtype=np.int64)

    return IntervalArrays(
        block_id=block_id, size=size, category_code=constant(CATEGORY_CODES[category]),
        interval_ns=interval_ns, start_event_id=index, end_event_id=index,
        start_kind_code=constant(KIND_CODES[MemoryEventKind.WRITE]),
        end_kind_code=constant(KIND_CODES[MemoryEventKind.READ]),
        iteration=constant(0), start_index=index, end_index=index)


def plan_rows(planner, rows, peak_before):
    """``planner.plan_columns`` over ``(block_id, size, interval_ns)`` rows,
    each candidate labelled ``b<block_id>``."""
    arrays = interval_arrays(rows)
    return planner.plan_columns(
        arrays.block_id, arrays.size, arrays.interval_ns,
        lambda kept: [f"b{block_id}" for block_id in arrays.block_id[kept].tolist()],
        peak_before)


def kernel_rows(recorder, op, reads, writes, duration_ns, flops, bytes_moved):
    """A hook-level recorder's ``on_kernel``: the launch of ``op`` spelled as
    its rows — every operand checked live, then ``on_read`` per tensor in
    ``reads``, the kernel's duration on the recorder's clock and
    ``on_write`` per tensor in ``writes`` — which
    :meth:`TraceRecorder.on_kernel` packs in one call."""
    for operand in (*reads, *writes):
        operand.storage.ensure_live()
    for operand in reads:
        recorder.on_read(operand.storage.request, op)
    recorder.clock.advance(duration_ns)
    for operand in writes:
        recorder.on_write(operand.storage.request, op)


def atom_advance(recorder, kind, duration_ns, nbytes=0):
    """A hook-level recorder's ``on_atom``: the atom's duration on the
    recorder's clock (a copy, a host pause, an allreduce's wait)."""
    recorder.clock.advance(duration_ns)


def call_advance(recorder):
    """What a hook-level recorder's ``on_malloc`` / ``on_free`` does first:
    the allocator's bookkeeping overhead on the recorder's clock."""
    recorder.clock.advance(recorder.call_ns)


class BehaviorLog:
    """Every behavior ``device`` reports from the log's construction on, in
    order: the log is the device's recorder.  A trainer's iteration marks
    are not behaviors, and a copied iteration reaches no hook, so a session
    logged here is simulated in full (``left_as_found`` patched).

    ``rows`` holds ``(kind, tag, op)`` — ``op`` is the kernel for a read or a
    write, ``None`` for a malloc or a free — and ``times`` the device clock
    at each.  The memory contract of a kernel is its rows, its output's
    shape, dtype and category, and :meth:`kernel_ns`.
    """

    def __init__(self, device):
        self.clock = device.clock
        self.call_ns = device.spec.allocator_overhead_ns
        # Requests go on being numbered where the device's recorder left off.
        self.tags = list(device.recorder.tags)
        self.start_ns = device.clock.now_ns
        self.rows: List[Tuple[str, str, Optional[str]]] = []
        self.times: List[int] = []
        device.recorder = self

    def _log(self, kind, request, op=None):
        self.rows.append((kind, self.tags[request], op))
        self.times.append(self.clock.now_ns)

    def on_malloc(self, nbytes, category_code, tag):
        call_advance(self)
        request = len(self.tags)
        self.tags.append(tag)
        self._log("malloc", request)
        return request

    def on_free(self, request):
        call_advance(self)
        self._log("free", request)

    def on_read(self, request, op):
        self._log("read", request, op)

    def on_write(self, request, op):
        self._log("write", request, op)

    on_kernel = kernel_rows
    on_atom = atom_advance

    def __len__(self):
        return len(self.rows)

    def begin_iteration(self, index):
        pass

    def end_iteration(self, index):
        pass

    def kernel_ns(self, op, tag):
        """The clock advance of ``op``'s launch writing ``tag``: from the
        behavior before that write (the log's start if none) to the write."""
        index = self.rows.index(("write", tag, op))
        return self.times[index] - (self.times[index - 1] if index else self.start_ns)


@contextlib.contextmanager
def stable_sort_grouping():
    """Group block behaviours by ``np.argsort(kind="stable")``: the oracle the
    unique-key argsort (``stable_block_order``) must reproduce."""
    def oracle(block_ids):
        return np.argsort(block_ids, kind="stable")
    with mock.patch.object(trace_module, "stable_block_order", oracle), \
            mock.patch.object(ati_module, "stable_block_order", oracle):
        yield


def grouped_views(trace):
    """Everything derived from a trace through a by-block grouping sort."""
    views = {"lifetimes": [column.tobytes()
                           for column in lifetimes_from_columns(trace.columns())]}
    try:
        views["invariants"] = trace.validate() and "hold"
    except TraceInvariantError as error:
        views["invariants"] = str(error)
    for lifecycle in (False, True):
        arrays = compute_interval_arrays(trace, include_lifecycle=lifecycle)
        for field in dataclasses.fields(arrays):
            column = getattr(arrays, field.name)
            views[f"{field.name}/{lifecycle}"] = (column.dtype.str, column.tobytes())
        # The closing-event sort has no ties to break: one order qualifies.
        assert (np.diff(arrays.end_event_id) > 0).all()
    return views


def assert_grouping_equals_stable_sort(trace):
    """ATI pairs, lifetimes and ``validate()``'s verdict, field for field
    under both sorts."""
    if trace.is_empty:
        return
    got = grouped_views(trace)
    with stable_sort_grouping():
        expected = grouped_views(trace)
    assert got == expected


def validating(run_session):
    """``run_training_session`` whose every trace passes ``MemoryTrace.validate()``
    and groups its blocks exactly as the stable sort would."""
    @functools.wraps(run_session)
    def run_and_validate(*args, **kwargs):
        result = run_session(*args, **kwargs)
        assert_grouping_equals_stable_sort(result.trace.validate())
        return result
    return run_and_validate


def price_one(engine, scenario, bandwidths=None):
    """One scenario through the engine's batch door (``None``: it declined)."""
    if bandwidths is None:
        bandwidths = scenario.resolve_bandwidths()
    return engine.price_batch([scenario], [bandwidths])[0]


def replay_one(template, scenario):
    """One scenario priced from ``template`` (a batch of one)."""
    return template.replay_batch([scenario], [scenario.resolve_bandwidths()], 0.0)[0]


def swap_events(trace):
    """The engine's swap traffic (``swap_out`` / ``swap_in``) in a trace."""
    return [event for event in trace_events(trace) if event.kind.is_swap]


def recompute_events(trace):
    """The engine's rematerialization traffic (``recompute_drop`` / ``recompute``)."""
    return [event for event in trace_events(trace) if event.kind.is_recompute]


def build_trace(event_specs, iteration_marks=(), end_ns=None):
    """Build a MemoryTrace from compact tuples.

    ``event_specs`` is an iterable of tuples
    ``(kind, timestamp_ns, block_id, size)`` or
    ``(kind, timestamp_ns, block_id, size, category, iteration)``.
    """
    events = []
    for index, spec in enumerate(event_specs):
        kind, timestamp, block_id, size = spec[:4]
        category = spec[4] if len(spec) > 4 else MemoryCategory.ACTIVATION
        iteration = spec[5] if len(spec) > 5 else -1
        kind = MemoryEventKind(kind) if isinstance(kind, str) else kind
        events.append(Event(
            event_id=index, kind=kind, timestamp_ns=timestamp, block_id=block_id,
            address=0x1000 * block_id, size=size, category=category,
            tag=f"block{block_id}", iteration=iteration,
        ))
    marks = [IterationMark(index=i, start_ns=start, end_ns=end)
             for i, (start, end) in enumerate(iteration_marks)]
    final_ns = end_ns if end_ns is not None else (events[-1].timestamp_ns if events else 0)
    return trace_from_events(events, iteration_marks=marks, end_ns=final_ns)


def reference_peak_parameter_bytes(trace):
    """Parameter + optimizer-state bytes live at the footprint peak, one
    :data:`Event` at a time.

    The object walk the pruning estimate ran before it read the columns,
    kept as its oracle: the first malloc/free that *strictly* raises the
    running maximum (started at -1) fixes the peak.
    """
    parameter_categories = (MemoryCategory.PARAMETER, MemoryCategory.OPTIMIZER_STATE)
    live_parameters = live_total = parameters_at_peak = 0
    peak_total = -1
    for event in trace_events(trace):
        if event.kind is MemoryEventKind.MALLOC:
            sign = 1
        elif event.kind is MemoryEventKind.FREE:
            sign = -1
        else:
            continue
        live_total += sign * event.size
        if event.category in parameter_categories:
            live_parameters += sign * event.size
        if live_total > peak_total:
            peak_total = live_total
            parameters_at_peak = live_parameters
    return max(0, parameters_at_peak)


# -- the offline policies' object walks: the oracles their column reads match --------


def _reference_swapped_summary(policy, label, num_blocks, swapped_bytes, peak_before,
                               overhead_ns, **extras):
    """The Σ-of-sizes summary the swapping policies' estimates returned."""
    savings = peak_before - max(0, peak_before - swapped_bytes)
    return {
        "name": label,
        "num_blocks": num_blocks,
        "swapped_bytes": swapped_bytes,
        "savings_bytes": int(savings),
        "savings_fraction": float(savings / peak_before if peak_before else 0.0),
        "overhead_ns": float(overhead_ns),
        **extras,
        "policy": policy,
    }


def reference_swap_advisor_summary(trace, bandwidths, top_k=5, min_block_bytes=32 * MIB):
    """``swap_advisor``'s offline summary, its blocks picked off its lifetimes.

    The lifetime walk the policy ran before it read the malloc rows, kept as
    its oracle (as :func:`reference_peak_parameter_bytes` is pruning's).
    """
    sizes: Dict[int, int] = {}
    for lifetime in trace_lifetimes(trace):
        sizes[lifetime.block_id] = max(sizes.get(lifetime.block_id, 0), lifetime.size)
    candidates = sorted(
        ((block_id, size) for block_id, size in sizes.items()
         if size >= min_block_bytes),
        key=lambda item: item[1], reverse=True,
    )[:top_k]
    arrays = compute_interval_arrays(trace)
    overhead = 0.0
    for block_id, size in candidates:
        gaps = arrays.interval_ns[arrays.block_id == block_id]
        hidden = int(gaps.max()) if gaps.size else 0
        overhead += max(0.0, swap_round_trip_ns(size, bandwidths) - hidden)
    return _reference_swapped_summary(
        "swap_advisor", "swap_advisor_style", len(candidates),
        sum(size for _, size in candidates), trace.peak_live_bytes(), overhead)


def reference_zero_offload_summary(trace, bandwidths):
    """``zero_offload``'s offline summary, its blocks picked off its lifetimes."""
    world_size = max(1, int(trace.metadata.get("n_devices", 1) or 1))
    if world_size > 1 and "device_rank" not in trace.metadata:
        trace = trace.for_rank(0)
    offloaded: Dict[int, int] = {}
    for lifetime in trace_lifetimes(trace):
        if lifetime.category in (MemoryCategory.OPTIMIZER_STATE,
                                 MemoryCategory.PARAMETER_GRADIENT):
            offloaded[lifetime.block_id] = max(offloaded.get(lifetime.block_id, 0),
                                               lifetime.size)
    swapped = sum(offloaded.values())
    partition = -(-swapped // world_size)
    iterations = max(1, len(trace.iteration_marks))
    extras = ({"world_size": world_size, "partition_bytes": partition}
              if world_size > 1 else {})
    return _reference_swapped_summary(
        "zero_offload", "zero_offload_style", len(offloaded), swapped,
        trace.peak_live_bytes(), iterations * swap_round_trip_ns(partition, bandwidths),
        **extras)


def reference_recompute_summary(trace, keep_every=2):
    """``recompute``'s offline summary, its activations picked off its lifetimes.

    Steady-state (iteration >= 1) activation lifetimes, or all of them when
    there are none, sorted by malloc time; the producer times are the
    policy's own column loop, which this oracle does not replace.
    """
    activation_lifetimes = [lifetime for lifetime in trace_lifetimes(trace)
                            if lifetime.category is MemoryCategory.ACTIVATION]
    steady = [lifetime for lifetime in activation_lifetimes if lifetime.iteration >= 1]
    reference = steady if steady else activation_lifetimes
    iterations = {lifetime.iteration for lifetime in reference}
    per_iteration = max(1, len(iterations))
    ordered = sorted(reference, key=lambda item: item.malloc_ns)
    total = sum(lifetime.size for lifetime in reference) // per_iteration
    kept = sum(lifetime.size for index, lifetime in enumerate(ordered)
               if index % keep_every == 0) // per_iteration
    discarded = max(0, total - kept)
    compute_ns = RecomputePolicy.per_block_compute_times(trace)
    recompute_overhead = sum(
        compute_ns.get(lifetime.block_id, 0)
        for index, lifetime in enumerate(ordered)
        if index % keep_every != 0) // per_iteration
    peak_before = trace.peak_live_bytes()
    savings = peak_before - max(0, peak_before - discarded)
    return {
        "keep_every": keep_every,
        "activation_bytes_total": total,
        "activation_bytes_discarded": discarded,
        "savings_bytes": int(savings),
        "savings_fraction": float(savings / peak_before if peak_before else 0.0),
        "recompute_time_overhead_ns": recompute_overhead,
        "policy": "recompute",
        "overhead_ns": float(recompute_overhead),
    }


def reference_compression_summary(trace, policy):
    """``pruning`` (90 % sparsity) or ``quantization`` (8 bits) summarized as
    the compression estimator did, on :func:`reference_peak_parameter_bytes`."""
    parameter_bytes = reference_peak_parameter_bytes(trace)
    peak_before = trace.peak_live_bytes()
    if policy == "pruning":
        technique = "pruning(sparsity=90%)"
        after = parameter_bytes - int(parameter_bytes * 0.9)
    else:
        technique = "quantization(8-bit)"
        after = int(parameter_bytes * 8 / 32.0)
    peak_after = max(0, peak_before - (parameter_bytes - after))
    total_fraction = 0.0 if peak_before == 0 else 1.0 - peak_after / peak_before
    return {
        "technique": technique,
        "parameter_reduction_fraction": (0.0 if parameter_bytes == 0
                                         else 1.0 - after / parameter_bytes),
        "total_reduction_fraction": total_fraction,
        "peak_bytes_before": peak_before,
        "peak_bytes_after": peak_after,
        "policy": policy,
        "savings_bytes": int(peak_before - peak_after),
        "savings_fraction": float(total_fraction),
        "overhead_ns": 0.0,
    }


@st.composite
def policy_traces(draw):
    """A :func:`build_trace` stream for the offline policies' differential.

    Random malloc/free/read/write behaviours over nine block ids, so ids are
    malloc'ed again (with or without a free between); three sizes at or
    above the 32 MiB candidate floor and one below, so equal sizes tie;
    every category; a clock that may stand still, so malloc times tie;
    activations attributed to iteration 0 or none at all in about half the
    ranks; and two such ranks merged in about half the draws.
    """
    def rank_trace():
        steady_activations = draw(st.booleans())
        length = draw(st.integers(1, 40))
        clock, events = 0, []
        for kind, block, size, category, iteration, step in draw(st.lists(st.tuples(
                st.sampled_from(("malloc", "malloc", "free", "read", "write")),
                st.integers(1, 9),
                st.sampled_from((1 * MIB, 32 * MIB, 48 * MIB, 64 * MIB)),
                st.sampled_from([MemoryCategory.ACTIVATION] * 3 + list(MemoryCategory)),
                st.integers(-1, 2),
                st.integers(0, 3)), min_size=length, max_size=length)):
            if category is MemoryCategory.ACTIVATION and not steady_activations:
                iteration = min(iteration, 0)
            clock += step * 100_000
            events.append((kind, clock, block, size, category, iteration))
        marks = [(index * 1_000_000, (index + 1) * 1_000_000)
                 for index in range(draw(st.integers(0, 3)))]
        return build_trace(events, iteration_marks=marks, end_ns=clock)

    if draw(st.booleans()):
        return merge_rank_traces([rank_trace(), rank_trace()])
    return rank_trace()


class ReferenceRecorder:
    """The obvious recorder: one :data:`Event` tuple per hook call.

    Deliberately naive — keyword construction, a dict of open lifetimes, the
    public clock property — so the optimized :class:`TraceRecorder` has an
    independent implementation to be compared against event for event.
    ``iteration_of`` supplies the current iteration (the real recorder's
    ``current_iteration`` when the two run side by side).
    """

    def __init__(self, clock, iteration_of=lambda: -1):
        self.clock = clock
        self.iteration_of = iteration_of
        self.enabled = True
        self.events = []
        self.lifetimes = []
        self._open = {}

    def _emit(self, kind, block_id, address, size, category, tag, op=""):
        if self.enabled:
            self.events.append(Event(
                event_id=len(self.events), kind=kind, timestamp_ns=self.clock.now_ns,
                block_id=block_id, address=address, size=size, category=category,
                tag=tag, iteration=self.iteration_of(), op=op))
        return self.enabled

    def _emit_block(self, kind, block, op=""):
        return self._emit(kind, block.block_id, block.address, block.size,
                          block.category, block.tag, op)

    def on_malloc(self, block, requested_size):
        if self._emit_block(MemoryEventKind.MALLOC, block):
            self._open[block.block_id] = len(self.lifetimes)
            self.lifetimes.append(Lifetime(
                block_id=block.block_id, address=block.address, size=block.size,
                category=block.category, tag=block.tag, malloc_ns=self.clock.now_ns,
                iteration=self.iteration_of()))

    def on_free(self, block):
        if self._emit_block(MemoryEventKind.FREE, block):
            index = self._open.pop(block.block_id, None)
            if index is not None:
                self.lifetimes[index] = self.lifetimes[index]._replace(
                    free_ns=self.clock.now_ns)

    def _on_access(self, kind, block, op):
        if self._emit_block(kind, block, op) and block.block_id in self._open:
            index = self._open[block.block_id]
            lifetime = self.lifetimes[index]
            self.lifetimes[index] = lifetime._replace(access_count=lifetime.access_count + 1)

    def on_read(self, block, nbytes, op):
        self._on_access(MemoryEventKind.READ, block, op)

    def on_write(self, block, nbytes, op):
        self._on_access(MemoryEventKind.WRITE, block, op)

    def _on_segment(self, kind, segment):
        self._emit(kind, -segment.segment_id, segment.address, segment.size,
                   MemoryCategory.UNKNOWN, f"segment:{segment.pool}")

    def on_segment_alloc(self, segment):
        self._on_segment(MemoryEventKind.SEGMENT_ALLOC, segment)

    def on_segment_free(self, segment):
        self._on_segment(MemoryEventKind.SEGMENT_FREE, segment)


class RequestReference(ReferenceRecorder):
    """:class:`ReferenceRecorder` in a device's recorder slot from the
    device's first request on: each request is its own block — the request
    id (its malloc ordinal), the bytes asked for, the requests laid end to
    end from address 0 — with its category and tag."""

    def __init__(self, device, iteration_of=lambda: -1):
        super().__init__(device.clock, iteration_of)
        self.requests = []      # (nbytes, category, tag) by request id

    def _request(self, request):
        nbytes, category, tag = self.requests[request]
        return SimpleNamespace(block_id=request,
                               address=sum(made[0] for made in self.requests[:request]),
                               size=nbytes, category=category, tag=tag)

    def on_malloc(self, nbytes, category_code, tag):
        request = len(self.requests)
        self.requests.append((nbytes, CATEGORY_FROM_CODE[category_code], tag))
        super().on_malloc(self._request(request), None)
        return request

    def on_free(self, request):
        super().on_free(self._request(request))

    def on_read(self, request, op):
        super().on_read(self._request(request), None, op)

    def on_write(self, request, op):
        super().on_write(self._request(request), None, op)

    on_kernel = kernel_rows


def reference_price_times(template, configs):
    """The per-row repricer: every row's durations built and summed on its own.

    The body is the row pricer replay used before rows were read off their
    pricing points (``times[point] + dispatch * kernels_before``) — the
    dispatch cost added into each row's kernel durations before one
    ``cumsum`` per row — kept as the oracle the point pricer must reproduce
    element for element, as :class:`ReferenceRecorder` is the recorder's.
    Returns ``(times, sync_costs, clusters)`` like ``_price_times``.
    """
    batch = template._batch_arrays()
    n_scenarios = len(configs)
    sync_nbytes = template.sync_nbytes.tolist()

    # Pricing points repeat across a grid, so everything derived from the
    # cluster (the only Python-object work per point) is computed once
    # per distinct point and gathered per scenario.
    points: Dict[Tuple, int] = {}
    clusters: List[ClusterSpec] = []
    rates: List[tuple] = []        # per point: the four float divisors
    overheads: List[tuple] = []    # per point: the four fixed ns costs
    default_dispatch: List[int] = []   # per point: the model's host dispatch cost
    costs: List[List[int]] = []    # per point: every sync's collective cost
    point_of = np.empty(n_scenarios, dtype=np.intp)
    dispatch = np.empty(n_scenarios, dtype=np.int64)
    for j, config in enumerate(configs):
        point_key = _POINT_KEY(config)
        point = points.get(point_key)
        if point is None:
            point = points[point_key] = len(clusters)
            cluster = build_cluster(config)
            spec = cluster.device
            timing = KernelTimingModel(spec)
            clusters.append(cluster)
            rates.append((timing.effective_flops, timing.effective_bandwidth,
                          spec.h2d_bandwidth, spec.d2h_bandwidth))
            overheads.append((spec.kernel_launch_overhead_ns,
                              spec.memcpy_launch_overhead_ns,
                              spec.allocator_overhead_ns,
                              spec.cuda_malloc_overhead_ns))
            default_dispatch.append(timing.host_dispatch_overhead_ns)
            costs.append([cluster.allreduce_time_ns(nbytes) for nbytes in sync_nbytes])
        point_of[j] = point
        dispatch[j] = (default_dispatch[point]
                       if config.host_dispatch_overhead_ns is None
                       else config.host_dispatch_overhead_ns)
    eff_flops, eff_bw, h2d_bw, d2h_bw = np.ascontiguousarray(
        np.array(rates, dtype=np.float64)[point_of].T)
    launch, memcpy_launch, alloc_overhead, segment_overhead = \
        np.ascontiguousarray(np.array(overheads, dtype=np.int64)[point_of].T)
    sync_costs = np.array(costs, dtype=np.int64).reshape(
        len(costs), len(sync_nbytes))[point_of]

    times = np.empty((n_scenarios, batch.width), dtype=np.int64)
    clocks: List[np.ndarray] = []      # per-rank views into ``times``
    offsets: List[np.ndarray] = []     # per-rank clock offset of the open segment
    for atoms in batch.atoms:
        durations = np.zeros((n_scenarios, atoms.n_atoms), dtype=np.int64)
        if atoms.const_idx.size:
            durations[:, atoms.const_idx] = atoms.const_dur[None, :]
        if atoms.kernel_idx.size:
            compute_ns = np.where(
                atoms.kernel_flops_nz[None, :],
                atoms.kernel_flops9[None, :] / eff_flops[:, None], 0.0)
            memory_ns = np.where(
                atoms.kernel_moved_nz[None, :],
                atoms.kernel_moved9[None, :] / eff_bw[:, None], 0.0)
            busy = np.maximum(compute_ns, memory_ns)
            durations[:, atoms.kernel_idx] = (
                np.rint(launch[:, None] + busy).astype(np.int64)
                + dispatch[:, None])
        for idx, nonzero, bytes9, bandwidth in (
                (atoms.h2d_idx, atoms.h2d_nz, atoms.h2d_bytes9, h2d_bw),
                (atoms.d2h_idx, atoms.d2h_nz, atoms.d2h_bytes9, d2h_bw)):
            if idx.size:
                transfer = np.where(nonzero[None, :],
                                    bytes9[None, :] / bandwidth[:, None], 0.0)
                durations[:, idx] = np.rint(
                    memcpy_launch[:, None] + transfer).astype(np.int64)
        if atoms.alloc_idx.size:
            durations[:, atoms.alloc_idx] = alloc_overhead[:, None]
        if atoms.segment_idx.size:
            durations[:, atoms.segment_idx] = segment_overhead[:, None]
        # sync atoms stay 0; their cost enters through the offsets below

        clock = times[:, atoms.base:atoms.base + atoms.n_atoms + 1]
        clock[:, 0] = 0
        np.cumsum(durations, axis=1, out=clock[:, 1:])
        clocks.append(clock)
        offsets.append(atoms.preamble_segments * segment_overhead)

    # Each sync splits a rank's timeline; between two syncs the clock is
    # the prefix sum plus the segment's offset, added in place once the
    # segment's closing sync has read the raw prefix.
    segment_begin = [0] * len(clocks)
    for j in range(len(sync_nbytes)):
        prefixes = [clock[:, atoms.sync_pos[j]]
                    for clock, atoms in zip(clocks, batch.atoms)]
        arrivals = [offset + prefix
                    for offset, prefix in zip(offsets, prefixes)]
        end = np.maximum.reduce(arrivals) + sync_costs[:, j]
        reopened = [end - prefix for prefix in prefixes]
        for r, (clock, atoms) in enumerate(zip(clocks, batch.atoms)):
            stop = int(atoms.sync_pos[j]) + 1
            clock[:, segment_begin[r]:stop] += offsets[r][:, None]
            segment_begin[r] = stop
        offsets = reopened
    for clock, begin, offset in zip(clocks, segment_begin, offsets):
        clock[:, begin:] += offset[:, None]
    return times, sync_costs, [clusters[i] for i in point_of.tolist()]


#: Capacities of the ``swap_ladder`` rungs, in MiB (a drawn capacity is one of them).
CAPACITY_RUNGS_MIB = (64, 96, 128, 192, 256)


@st.composite
def swap_scenarios(draw):
    """A swap-on scenario: a small MLP or a 32-pixel resnet18 at batch 4-8,
    any executable policy, no capacity or a ladder rung, 2-6 iterations,
    either dtype, 1-2 devices."""
    from repro.experiments.grid import Scenario
    from repro.swap import SWAP_EXECUTION_MODES
    from repro.train.session import TrainingRunConfig

    if draw(st.booleans()):
        model = dict(model="mlp", dataset="two_cluster",
                     batch_size=draw(st.sampled_from((256, 512))),
                     model_kwargs={"hidden_dim": draw(st.sampled_from((512, 2048, 4096))),
                                   "num_hidden_layers": draw(st.integers(2, 4))})
    else:
        model = dict(model="resnet18", dataset="cifar10",
                     batch_size=draw(st.integers(4, 8)),
                     model_kwargs={"input_size": 32, "num_classes": 10})
    capacity = draw(st.sampled_from((None,) + CAPACITY_RUNGS_MIB))
    config = TrainingRunConfig(
        **model,
        swap=draw(st.sampled_from(SWAP_EXECUTION_MODES[1:])),
        device_memory_capacity=None if capacity is None else capacity * 1024 * 1024,
        iterations=draw(st.integers(2, 6)),
        dtype=draw(st.sampled_from(("float32", "float16"))),
        n_devices=draw(st.integers(1, 2)))
    return Scenario(config=config)


def plan_inputs(warmup):
    """The observations a plan saw, as plain values: every field the two
    executors' block states share, but the live ``block``."""
    from repro.swap.executor import BlockState
    shared = {field.name for field in dataclasses.fields(ReferenceBlockState)}
    names = [field.name for field in dataclasses.fields(BlockState)
             if field.name in shared and field.name != "block"]
    return ([tuple(getattr(state, name) for name in names) for state in warmup.blocks],
            list(warmup.by_id), warmup.peak_resident_bytes, warmup.peak_phase_ns,
            warmup.iteration_duration_ns, list(warmup.live_series or ()))


class SwapRecorder(TraceRecorder):
    """A recorder that places its device's requests live and hands every
    behavior to the device's :class:`ReferenceSwapExecutor` first — the
    allocator-in-the-loop session the oracle was written against.

    Each malloc or free pays its call's segment overheads from ``placement``
    on the device clock, a segment row after each; the executor then sees
    the behavior on the request's placed block, and the row is logged
    placed, with the executor's swap rows among the rows.  It drives the
    executor's iteration hooks the way a trainer would: the executor begins
    an iteration after the recorder (replan-time evictions carry the new
    iteration) and ends it before (boundary evictions land inside it), and
    it is finalized before the trace is taken."""

    executor = None

    def place_live(self, device, placement):
        """Place ``device``'s requests by ``placement`` as they come: the
        segments reserved before the first request are paid now."""
        self.device, self.placement = device, placement
        self.log = []
        self._categories = []
        self._calls = 0
        self._blocks = {}
        self._segments = {}
        for index, call in enumerate(placement.segment_op.tolist()):
            self._segments.setdefault(call, []).append(index)
        self._overhead_ns = device.spec.cuda_malloc_overhead_ns
        device.clock.advance(placement.preamble_segments * self._overhead_ns)

    def _row(self, kind_code, block_id, address, size, category_code, tag, op):
        self.log.append((kind_code, self.clock.now_ns, block_id, address, size,
                         category_code, self.current_iteration, tag, op))

    def _record(self, kind, block, op):
        self._row(trace_module.KIND_CODES[kind], block.block_id, block.address,
                  block.size, block.category.code, block.tag, op)

    def _call(self, request):
        """One malloc or free: its segment overheads, then its placed block."""
        placement = self.placement
        for index in self._segments.get(self._calls, ()):
            self.device.clock.advance(self._overhead_ns)
            self._row(int(placement.segment_kind[index]), -int(placement.segment_id[index]),
                      int(placement.segment_address[index]),
                      int(placement.segment_size[index]), MemoryCategory.UNKNOWN.code,
                      placement.segment_tags[index], "")
        self._calls += 1
        return self._block(request)

    def _block(self, request):
        block = self._blocks.get(request)
        if block is None:
            placement = self.placement
            block = self._blocks[request] = SimpleNamespace(
                block_id=int(placement.block_id[request]),
                address=int(placement.address[request]),
                size=int(placement.size[request]),
                category=self._categories[request], tag=self.tags[request])
        return block

    def on_malloc(self, nbytes, category_code, tag):
        call_advance(self)
        request = len(self.tags)
        self.tags.append(tag)
        self._categories.append(CATEGORY_FROM_CODE[category_code])
        block = self._call(request)
        self.executor.on_malloc(block, None)
        self._record(MemoryEventKind.MALLOC, block, "")
        return request

    def on_free(self, request):
        call_advance(self)
        block = self._call(request)
        self.executor.on_free(block)
        self._record(MemoryEventKind.FREE, block, "")

    def on_read(self, request, op):
        block = self._block(request)
        self.executor.on_read(block, None, op)
        self._record(MemoryEventKind.READ, block, op)

    def on_write(self, request, op):
        block = self._block(request)
        self.executor.on_write(block, None, op)
        self._record(MemoryEventKind.WRITE, block, op)

    on_kernel = kernel_rows

    def on_swap_out(self, block, nbytes, op):
        self._record(MemoryEventKind.SWAP_OUT, block, op)

    def on_swap_in(self, block, nbytes, op):
        self._record(MemoryEventKind.SWAP_IN, block, op)

    def on_recompute_drop(self, block, nbytes, op):
        self._record(MemoryEventKind.RECOMPUTE_DROP, block, op)

    def on_recompute(self, block, nbytes, op):
        self._record(MemoryEventKind.RECOMPUTE, block, op)

    def begin_iteration(self, index):
        super().begin_iteration(index)
        self.executor.begin_iteration(index)

    def end_iteration(self, index):
        self.executor.end_iteration(index)
        super().end_iteration(index)

    def to_trace(self):
        """The placed rows as logged (the session places nothing more)."""
        if not self.executor.finalized:
            self.executor.finalize()
        rows = array("q")
        for row in self.log:
            rows.frombytes(trace_module.pack_row(*row[:7]))
        return MemoryTrace(columns=trace_module.columns_from_rows(rows),
                           event_tags=[row[7] for row in self.log],
                           event_ops=[row[8] for row in self.log],
                           iteration_marks=[replace(mark) for mark in self.iteration_marks],
                           metadata=dict(self.metadata), end_ns=self.clock.now_ns)


def _recording_plans(policy, plans):
    """Wrap ``policy.plan`` so every call first appends its inputs to ``plans``."""
    plan = policy.plan

    def recorded(warmup, bandwidths):
        plans.append(plan_inputs(warmup))
        return plan(warmup, bandwidths)
    policy.plan = recorded


def live_swap_session(config):
    """Run ``config`` with :class:`ReferenceSwapExecutor` live on every replica.

    The front end is recorded once to learn where the config's allocator
    places each request; the live run then places them as they come
    (:class:`SwapRecorder`, put in each device's recorder slot before any
    work, with every iteration simulated and the session's own placement
    passes and overlay step replaced by what it and the executors did).
    Returns the session and every executor with the inputs of each plan it
    made.
    """
    from repro.swap import POLICIES
    from repro.train.session import (build_device_group, record_session,
                                     run_training_session)

    executors = []
    if config.swap == "off":
        return run_training_session(config), executors
    recording = record_session(config)
    placements = recording.placed(config).placements
    by_rank = {}

    def live_group(twin):
        """The device group of the session's swap-off twin, each recorder
        slot a SwapRecorder.  The collective engine keeps the recorders the
        devices were built with: they move the same clocks."""
        group = build_device_group(twin)
        for device, placement in zip(group, placements):
            policy = POLICIES[config.swap].for_run(
                world_size=group.n_devices,
                capacity_bytes=config.device_memory_capacity)
            executor = ReferenceSwapExecutor(
                device, policy, capacity_bytes=config.device_memory_capacity)
            plans = []
            _recording_plans(executor.policy, plans)
            executors.append((executor, plans))
            device.recorder = SwapRecorder(device)
            device.recorder.executor = executor
            executor.recorder = device.recorder
            device.recorder.place_live(device, placement)
        by_rank.update(zip((ranks[0] for ranks in group.class_ranks), placements))
        return group

    def placed(recording, allocator, capacity):
        return by_rank[recording.metadata["device_rank"]]

    def placed_live(traces, placements, overhead_ns):
        return [SimpleNamespace(trace=trace) for trace in traces]

    def lived(traces, policies, spec, capacity_bytes=None, indexes=None):
        return traces, [executor.summary() for executor, _ in executors]

    with mock.patch("repro.train.trainer.left_as_found", lambda *args: False), \
            mock.patch("repro.train.session.build_device_group", live_group), \
            mock.patch("repro.train.session.place", placed), \
            mock.patch("repro.train.session.place_traces", placed_live), \
            mock.patch("repro.swap.executor.overlay", lived):
        session = run_training_session(config)
    return session, executors


def overlaid_swap_session(config, recording=None):
    """Run ``config`` through the session's overlay step (on ``recording``,
    when given); returns the session and every replica's summary with the
    inputs of each plan it made."""
    from repro.swap import executor as swap_executor
    from repro.train.session import run_training_session

    walks = []
    overlay = swap_executor.overlay

    def observed(traces, policies, *args, **kwargs):
        plans = [[] for _ in policies]
        for policy, made in zip(policies, plans):
            _recording_plans(policy, made)
        traces, summaries = overlay(traces, policies, *args, **kwargs)
        walks.extend(zip(summaries, plans))
        return traces, summaries

    with mock.patch("repro.swap.executor.overlay", observed):
        session = run_training_session(config, recording=recording)
    return session, walks


def swap_run(scenario, side, recording=None):
    """Run ``scenario`` through the overlay (``side="overlay"``, on
    ``recording`` when given) or with the live
    :class:`ReferenceSwapExecutor` (``side="reference"``).

    Returns what the differential compares: the ``ScenarioResult`` (wall time
    zeroed), the merged trace's columns, tags and ops, every replica's
    ``summary().to_dict()`` and the inputs of every plan it made — or the
    error the session raised.  Every trace is validated first.
    """
    from repro.experiments.results import reduce_session

    try:
        if side == "overlay":
            session, walks = overlaid_swap_session(scenario.config, recording)
            replicas = [(summary.to_dict(), plans) for summary, plans in walks]
        else:
            session, executors = live_swap_session(scenario.config)
            replicas = [(executor.summary().to_dict(), plans)
                        for executor, plans in executors]
    except Exception as error:   # noqa: BLE001 - compared, not swallowed
        return ("raised", type(error).__name__, str(error))
    session.trace.validate()
    result = reduce_session(scenario, scenario.resolve_bandwidths(), session, 0.0)
    columns = session.trace.columns()
    return (replace(result, wall_time_s=0.0),
            {field.name: getattr(columns, field.name).tolist()
             for field in dataclasses.fields(columns)},
            session.trace.event_strings(),
            replicas)


def assert_swap_matches_reference(scenario):
    """The overlay and the live :class:`ReferenceSwapExecutor` agree on
    ``scenario``: result, merged trace, summaries and plan inputs, or the
    error raised."""
    got = swap_run(scenario, "overlay")
    expected = swap_run(scenario, "reference")
    for name, mine, theirs in zip(("result", "columns", "strings", "replicas"),
                                  got, expected):
        assert mine == theirs, f"{name} differs for {scenario.config.describe()}"


@dataclass(slots=True)
class ReferenceBlockState:
    """What :class:`ReferenceSwapExecutor` knows about one block (residency
    flags included: the reference keeps its own books)."""

    block_id: int
    size: int = 0
    category: MemoryCategory = MemoryCategory.UNKNOWN
    tag: str = ""
    block: object = None            # the placed block's view (for event emission)
    resident: bool = True
    freed: bool = False
    pending_ready_ns: Optional[int] = None   # in-flight prefetch completion
    swapped_copy_bytes: int = 0              # bytes moved by the last eviction
    last_access_ns: int = 0
    iter_access_count: int = 0               # accesses seen this iteration
    prev_access_ns: Optional[int] = None
    prev_access_ordinal: int = 0
    prev_access_iteration: Optional[int] = None
    prev_access_phase_ns: int = 0
    first_access_phase_ns: int = 0           # first in-iteration access offset
    best_gap_ns: int = 0                     # largest observed idle interval
    best_gap_ordinal: int = 0                # ordinal of its opening access
    best_gap_phase_ns: int = 0               # opening access offset in its iteration
    best_gap_crosses: bool = False           # gap spans an iteration boundary
    gap_tainted: bool = False                # next gap includes swap distortion
    compute_ns: Optional[int] = None         # producer kernel duration (learned)
    pending_first_write: bool = False        # next access may close the producer
    dropped_for_recompute: bool = False      # off-device awaiting rematerialization



class ReferenceSwapExecutor:
    """The live, per-behavior swap executor: its device's
    :class:`SwapRecorder` hands it every malloc, free, read and write on the
    placed block before logging it, and each runs its learning rules and
    bookkeeping in Python, stalls the device clock and logs its rows through
    ``recorder``.
    Its copies reserve on a copy stream of its own against the device clock.

    The one live-hook executor: kept as the oracle
    :func:`repro.swap.executor.overlay` is held to (as
    :class:`ReferenceRecorder` is the recorder's) — the same decisions,
    rows, summary and plan inputs from its own books
    (:func:`live_swap_session` runs it).
    """

    def __init__(self, device, policy, recorder=None, bandwidths=None,
                 capacity_bytes=None):
        self.device = device
        self._copies = Stream(device.clock)
        self._memcpy_ns = device.timing.memcpy_duration_ns
        self.recorder = recorder
        self.finalized = False
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        if not self.policy.executable:
            raise ValueError(f"policy '{self.policy.name}' is analysis-only: "
                             f"it cannot drive the swap executor")
        self.bandwidths = (bandwidths if bandwidths is not None
                           else BandwidthConfig.from_device_spec(device.spec))
        self.capacity_bytes = (None if capacity_bytes is None
                               else int(capacity_bytes))
        self._states: Dict[int, ReferenceBlockState] = {}
        self._deferred: List[EvictDirective] = []
        self._active = False
        # iteration bookkeeping
        self._iteration_index: Optional[int] = None
        self._iteration_start_ns = 0
        self._warmup_iter_duration_ns = 0
        # accounting
        self._resident_bytes = 0
        self._live_bytes = 0
        self._peak_resident_active = 0
        self._peak_live_active = 0
        self._peak_resident_overall = 0
        self._learning_frozen = False
        self._plan_frozen = False
        self._steady_started = False
        # committed warm-up profile: the last clean iteration's live-bytes
        # series / peak / duration (refreshed every pre-steady iteration, so
        # lazily allocated state — e.g. momentum buffers — is included)
        self._warmup_peak_bytes = 0
        self._warmup_peak_phase_ns: Optional[int] = None
        self._warmup_live_series: List = []   # (phase_ns, live_bytes) samples
        # in-progress trackers for the iteration being observed
        self._iter_live_series: List = []
        self._iter_peak_live = 0
        self._iter_peak_phase_ns: Optional[int] = None
        self.counters = SwapExecutionSummary(policy=self.policy.name,
                                             capacity_bytes=self.capacity_bytes)
        # timestamp of the previous listener event: the gap between a block's
        # malloc-adjacent first write and the event before it is exactly its
        # producing kernel's duration (the clock only advances inside the
        # kernel between those two points).
        self._last_event_ns = device.clock.now_ns

    # -- introspection -----------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes currently resident on the device (allocated minus swapped out)."""
        return self._resident_bytes

    @property
    def swapped_out_bytes(self) -> int:
        """Bytes of allocated blocks currently evicted to the host."""
        return sum(state.size for state in self._states.values()
                   if not state.freed and not state.resident)

    def observations(self) -> WarmupObservations:
        """Current (swap-undistorted) per-block observations for planning."""
        blocks = [state for state in self._states.values() if state.size > 0]
        return WarmupObservations(blocks=blocks, by_id=self._states,
                                  peak_resident_bytes=self._warmup_peak_bytes,
                                  peak_phase_ns=self._warmup_peak_phase_ns,
                                  iteration_duration_ns=self._warmup_iter_duration_ns,
                                  live_series=self._warmup_live_series)

    def summary(self) -> SwapExecutionSummary:
        """The measured outcome so far (plus the policy's prediction)."""
        if self.capacity_bytes is not None:
            # Under capacity governance the invariant spans the whole run
            # (warm-up included), so the honest measured peak is the overall
            # resident maximum — which the governor kept at or below capacity.
            peak_resident = self._peak_resident_overall
        elif self._active:
            peak_resident = self._peak_resident_active
        else:
            peak_resident = self._warmup_peak_bytes
        return replace(
            self.counters,
            peak_resident_bytes=peak_resident,
            peak_live_bytes=(self._peak_live_active if self._active
                             else self._warmup_peak_bytes),
            warmup_peak_bytes=self._warmup_peak_bytes,
            predicted=self.policy.predicted)

    # -- iteration hooks (duck-typed like a recorder) ---------------------------------

    def begin_iteration(self, index: int) -> None:
        """Iteration start: reset per-iteration ordinals, (re)plan, activate."""
        self._flush_deferred()
        self._iteration_index = index
        self._iteration_start_ns = self.device.clock.now_ns
        for state in self._states.values():
            state.iter_access_count = 0
        if index > WARMUP_ITERATIONS:
            # Observation stops one iteration into execution: the first
            # active iteration still closes the cross-boundary windows and
            # refreshes the live profile (with e.g. the lazily allocated
            # optimizer state included), but later samples would fold the
            # engine's own stalls back into the plan and destabilize it.
            self._learning_frozen = True
        if not self._learning_frozen:
            self._iter_live_series = []
            self._iter_peak_live = self._live_bytes
            self._iter_peak_phase_ns = None
        if index > WARMUP_ITERATIONS + 1 and not self._steady_started:
            # Measured peaks restart at the first fully steady iteration:
            # iteration warmup ran unswapped, and iteration warmup+1 still
            # starts with everything resident (the first boundary-window
            # eviction pass only happens at its end), so earlier iterations
            # are not a fair comparison against the plan.
            self._steady_started = True
            self._peak_resident_active = self._resident_bytes
            self._peak_live_active = self._live_bytes
        if index >= WARMUP_ITERATIONS:
            if not self._plan_frozen:
                # Replans are only useful while the observations can still
                # change; the first plan after learning froze is final.
                self.policy.plan(self.observations(), self.bandwidths)
                self._plan_frozen = self._learning_frozen
            if not self._active:
                self._active = True
                self._peak_resident_active = self._resident_bytes
                self._peak_live_active = self._live_bytes
            self.counters.active_iterations += 1

    def end_iteration(self, index: int) -> None:
        """Iteration end: flush deferred evictions, apply boundary directives."""
        self._flush_deferred()
        if not self._learning_frozen:
            # Commit this iteration as the reference profile for planning.
            self._warmup_iter_duration_ns = (self.device.clock.now_ns
                                             - self._iteration_start_ns)
            self._warmup_live_series = self._iter_live_series
            self._warmup_peak_bytes = self._iter_peak_live
            self._warmup_peak_phase_ns = self._iter_peak_phase_ns
        if self._active:
            resident = [state for state in self._states.values()
                        if state.resident and not state.freed]
            for directive in self.policy.directives_at_iteration_end(resident):
                self._evict(directive)
        self._iteration_index = None

    def finalize(self) -> None:
        """Balance the books at the end of the run.

        Every block still swapped out gets a zero-copy ``"shutdown"``
        ``swap_in``, so the trace's residency series always sums back to the
        allocation series and peak accounting can never be skewed by
        unmatched evictions at the tail of the run.
        """
        self.finalized = True
        self._flush_deferred()
        for state in self._states.values():
            if state.freed or state.resident:
                continue
            state.resident = True
            state.pending_ready_ns = None
            # Bookkeeping only — nothing actually arrives on the device, so
            # the measured resident peak must not see this restoration.
            self._resident_bytes += state.size
            self.counters.shutdown_restores += 1
            if state.dropped_for_recompute:
                state.dropped_for_recompute = False
                self.counters.recompute_count += 1
                self.recorder.on_recompute(state.block, 0, "shutdown")
            else:
                self.counters.swap_in_count += 1
                self.recorder.on_swap_in(state.block, 0, "shutdown")

    # -- listener hooks ----------------------------------------------------------------

    def on_malloc(self, block, requested_size: int) -> None:
        self._flush_deferred()
        state = self._states.get(block.block_id)
        if state is None:
            state = ReferenceBlockState(block_id=block.block_id)
            self._states[block.block_id] = state
        state.size = block.size
        state.category = block.category
        state.tag = block.tag
        state.block = block
        state.freed = False
        state.pending_ready_ns = None
        state.dropped_for_recompute = False
        state.pending_first_write = not self._learning_frozen
        # Relieve pressure *before* the allocation lands — an allocator
        # under pressure frees space first — so the overshoot never shows
        # up in the resident peak (the swap_out events also precede the
        # malloc event in the trace).
        state.resident = False
        if self._active:
            resident = (s for s in self._states.values()
                        if s.resident and not s.freed)
            for directive in self.policy.directives_on_pressure(
                    resident, self._resident_bytes + block.size, state):
                self._evict(directive)
        self._enforce_capacity(block.size)
        state.resident = True
        self._bump_live(block.size)
        self._bump_resident(block.size)
        self._sample_live()
        self._last_event_ns = self.device.clock.now_ns

    def on_free(self, block) -> None:
        self._flush_deferred()
        state = self._states.get(block.block_id)
        if state is None or state.freed:
            return
        if not state.resident:
            # Freed while off-device: nothing comes back over the link (or
            # gets recomputed), but the residency books must balance before
            # the free event lands.  The restoration is bookkeeping only, so
            # it bypasses the peak trackers — a transient that never holds
            # real bytes must not count against the capacity invariant.
            state.resident = True
            state.pending_ready_ns = None
            self._resident_bytes += state.size
            self.counters.discards += 1
            if state.dropped_for_recompute:
                state.dropped_for_recompute = False
                self.counters.recompute_count += 1
                self.recorder.on_recompute(state.block, 0, "discard")
            else:
                self.counters.swap_in_count += 1
                self.recorder.on_swap_in(state.block, 0, "discard")
        self._resident_bytes -= state.size
        self._live_bytes -= state.size
        self._sample_live()
        state.freed = True
        state.resident = False
        state.gap_tainted = False
        state.pending_first_write = False
        # A gap must never span a free/malloc round trip: once the block is
        # freed its bytes are gone, so there is nothing left to swap during
        # the idle time — unlike the paper's analysis-level ATIs, execution
        # windows are constrained to a single lifetime.
        state.prev_access_ns = None
        state.prev_access_iteration = None
        self._last_event_ns = self.device.clock.now_ns

    def on_read(self, block, nbytes: int, op: str) -> None:
        self._on_access(block, is_write=False)

    def on_write(self, block, nbytes: int, op: str) -> None:
        self._on_access(block, is_write=True)

    # -- core mechanics ----------------------------------------------------------------

    def _on_access(self, block, is_write: bool = False) -> None:
        self._flush_deferred()
        state = self._states.get(block.block_id)
        if state is None:
            # Attached mid-run: adopt the block as a resident unknown.
            state = ReferenceBlockState(block_id=block.block_id, size=block.size,
                               category=block.category, tag=block.tag,
                               block=block)
            self._states[block.block_id] = state
            self._bump_live(block.size)
            self._bump_resident(block.size)
        was_nonresident = not state.resident and not state.freed
        if was_nonresident:
            self._ensure_resident(state)
        now = self.device.clock.now_ns
        if state.pending_first_write:
            # A lifetime's first access, when it is a write, closes the
            # kernel that produced the block: the clock only advanced inside
            # that kernel since the previous listener event, so the elapsed
            # time is the producer's duration — the recompute cost.  A
            # first *read* means the block was filled some other way (e.g.
            # a host staging copy); it is not rematerializable by replay.
            if is_write and not self._learning_frozen and not was_nonresident:
                state.compute_ns = max(0, now - self._last_event_ns)
            state.pending_first_write = False
        in_iteration = self._iteration_index is not None
        state.iter_access_count += 1
        if (state.iter_access_count == 1 and in_iteration
                and not self._learning_frozen):
            state.first_access_phase_ns = now - self._iteration_start_ns
        if state.prev_access_ns is not None:
            if state.gap_tainted:
                # The gap includes this block's own eviction/stall timeline;
                # learning from it would feed distortion back into the plan.
                state.gap_tainted = False
            elif (not self._learning_frozen
                  and state.prev_access_iteration is not None):
                gap = now - state.prev_access_ns
                if gap > state.best_gap_ns:
                    state.best_gap_ns = gap
                    state.best_gap_ordinal = state.prev_access_ordinal
                    state.best_gap_phase_ns = state.prev_access_phase_ns
                    state.best_gap_crosses = (
                        not in_iteration
                        or state.prev_access_iteration != self._iteration_index)
        state.prev_access_ns = now
        state.prev_access_ordinal = state.iter_access_count
        state.prev_access_iteration = self._iteration_index
        state.prev_access_phase_ns = (now - self._iteration_start_ns
                                      if in_iteration else 0)
        state.last_access_ns = now
        self._last_event_ns = now
        if self._active:
            directive = self.policy.directive_after_access(state)
            if directive is not None:
                self._deferred.append(directive)

    def _ensure_resident(self, state: ReferenceBlockState) -> None:
        """Restore an off-device block before the access that needs it."""
        if state.dropped_for_recompute:
            self._rematerialize(state)
            return
        now = self.device.clock.now_ns
        nbytes = state.swapped_copy_bytes or state.size
        if state.pending_ready_ns is not None:
            ready = state.pending_ready_ns
            op = "prefetch"
        else:
            duration = self._memcpy_ns(nbytes, self.device.spec.h2d_bandwidth)
            _, ready = self._copies.reserve(now, duration)
            self.counters.copy_busy_ns += duration
            op = "demand"
            self.counters.demand_fetches += 1
        stall = max(0, ready - now)
        if stall > 0:
            self.device.clock.advance(stall)
            self.counters.stall_ns_total += stall
            if op == "prefetch":
                self.counters.late_prefetches += 1
        elif op == "prefetch":
            self.counters.prefetch_hits += 1
        if self._active:
            # A restoration raises residency just like an allocation does, so
            # budget policies (LRU) get the same pressure hook — and like the
            # on_malloc path it runs *before* the bump, so a demand-fetch
            # burst (the optimizer step pulling every buffer back) neither
            # blows through the budget nor leaks overshoot into the measured
            # resident peak (the relieving swap_outs also precede the
            # swap_in event in the trace).
            resident = (s for s in self._states.values()
                        if s.resident and not s.freed)
            for directive in self.policy.directives_on_pressure(
                    resident, self._resident_bytes + state.size, state):
                self._evict(directive)
        self._enforce_capacity(state.size)
        state.pending_ready_ns = None
        state.resident = True
        self._bump_resident(state.size)
        self.counters.swap_in_count += 1
        self.counters.bytes_swapped_in += nbytes
        self.recorder.on_swap_in(state.block, nbytes, op)

    def _rematerialize(self, state: ReferenceBlockState) -> None:
        """Replay a dropped block's producer before the access that needs it.

        No bytes cross the link: the device spends the recorded producer
        duration (a synchronous replay — the access cannot proceed without
        the data), the clock advances by exactly that cost, and the block is
        resident again.  First-order model: the
        producer's own inputs are assumed reachable (checkpointing always
        keeps enough upstream state for a single replay).
        """
        cost = int(state.compute_ns or 0)
        if cost > 0:
            self.device.clock.advance(cost)
            self.counters.recompute_ns_total += cost
        if self._active:
            resident = (s for s in self._states.values()
                        if s.resident and not s.freed)
            for directive in self.policy.directives_on_pressure(
                    resident, self._resident_bytes + state.size, state):
                self._evict(directive)
        self._enforce_capacity(state.size)
        state.dropped_for_recompute = False
        state.resident = True
        self._bump_resident(state.size)
        self.counters.recompute_count += 1
        self.counters.bytes_recomputed += state.size
        self.recorder.on_recompute(state.block, state.size, "demand")

    def _evict(self, directive: EvictDirective):
        """Execute one eviction directive (no-op if the block moved on).

        Returns when the device→host copy of a swap eviction ends (so
        capacity governance can stall until the bytes actually left),
        ``None`` for recompute drops and no-ops.
        """
        state = self._states.get(directive.block_id)
        if state is None or state.freed or not state.resident:
            return None
        if directive.recompute:
            # Rematerialization drop: the bytes simply vanish — no transfer,
            # no prefetch; the block's next access replays its producer.
            state.resident = False
            state.dropped_for_recompute = True
            state.gap_tainted = True
            state.pending_ready_ns = None
            self._resident_bytes -= state.size
            self.counters.recompute_drop_count += 1
            self.counters.bytes_recompute_dropped += state.size
            self.recorder.on_recompute_drop(state.block, state.size,
                                                    self.policy.name)
            return None
        now = self.device.clock.now_ns
        copy_bytes = (directive.copy_bytes if directive.copy_bytes is not None
                      else state.size)
        duration = self._memcpy_ns(copy_bytes, self.device.spec.d2h_bandwidth)
        _, out_end = self._copies.reserve(now, duration)
        self.counters.copy_busy_ns += duration
        state.resident = False
        state.swapped_copy_bytes = copy_bytes
        state.gap_tainted = True
        self._resident_bytes -= state.size
        self.counters.swap_out_count += 1
        self.counters.bytes_swapped_out += copy_bytes
        if directive.prefetch_gap_ns is not None:
            deadline = (state.last_access_ns + int(directive.prefetch_gap_ns)
                        - PREFETCH_MARGIN_NS)
            # The copy-back can start no earlier than its own eviction copy
            # finished (the host does not have the bytes before that).
            duration = self._memcpy_ns(copy_bytes, self.device.spec.h2d_bandwidth)
            _, state.pending_ready_ns = self._copies.reserve_before(
                deadline, duration, earliest_start_ns=max(now, out_end))
            self.counters.copy_busy_ns += duration
            self.counters.prefetches_scheduled += 1
        self.recorder.on_swap_out(state.block, copy_bytes,
                                          self.policy.name)
        return out_end
    def _enforce_capacity(self, incoming: int) -> None:
        """Make room for ``incoming`` bytes under the capacity invariant.

        Force-evicts resident blocks in least-recently-accessed order (the
        caller has already marked the incoming block non-resident, so it can
        never evict itself) until ``resident + incoming <= capacity``, then
        stalls the device until the relieving copy-outs complete — memory is
        not reusable before the bytes have left.  Raises
        :class:`~repro.errors.InfeasibleScenarioError` up-front when even
        evicting every resident block cannot make room.
        """
        capacity = self.capacity_bytes
        if capacity is None:
            return
        excess = self._resident_bytes + incoming - capacity
        if excess <= 0:
            return
        candidates = [state for state in self._states.values()
                      if state.resident and not state.freed]
        evictable = sum(state.size for state in candidates)
        if excess > evictable:
            raise InfeasibleScenarioError(
                requested=incoming, resident=self._resident_bytes,
                evictable=evictable, capacity=capacity)
        candidates.sort(key=lambda state: state.last_access_ns)
        now = self.device.clock.now_ns
        wait_until = now
        for state in candidates:
            if excess <= 0:
                break
            out_end = self._evict(EvictDirective(block_id=state.block_id))
            if state.resident:
                continue
            self.counters.pressure_evictions += 1
            excess -= state.size
            if out_end is not None and out_end > wait_until:
                wait_until = out_end
        stall = wait_until - now
        if stall > 0:
            self.device.clock.advance(stall)
            self.counters.stall_ns_total += stall
            self.counters.pressure_stall_ns += stall

    def _flush_deferred(self) -> None:
        """Run post-access evictions queued by the previous event."""
        if not self._deferred:
            return
        pending, self._deferred = self._deferred, []
        for directive in pending:
            self._evict(directive)

    def _bump_resident(self, size: int) -> None:
        self._resident_bytes += size
        if self._active and self._resident_bytes > self._peak_resident_active:
            self._peak_resident_active = self._resident_bytes
        if self._resident_bytes > self._peak_resident_overall:
            self._peak_resident_overall = self._resident_bytes

    def _bump_live(self, size: int) -> None:
        self._live_bytes += size
        if self._active and self._live_bytes > self._peak_live_active:
            self._peak_live_active = self._live_bytes

    def _sample_live(self) -> None:
        """Record a (phase, live bytes) sample for the warm-up footprint profile."""
        if self._learning_frozen or self._iteration_index is None:
            return
        phase = self.device.clock.now_ns - self._iteration_start_ns
        self._iter_live_series.append((phase, self._live_bytes))
        if self._live_bytes > self._iter_peak_live:
            self._iter_peak_live = self._live_bytes
            self._iter_peak_phase_ns = phase


# -- placements -----------------------------------------------------------------------

SEGMENT_ALLOC_CODE = KIND_CODES[MemoryEventKind.SEGMENT_ALLOC]
SEGMENT_FREE_CODE = KIND_CODES[MemoryEventKind.SEGMENT_FREE]
#: The tags of each policy's segment rows (best-fit's arena is its preamble).
SEGMENT_TAGS = {"caching": {"segment:small", "segment:large"}, "best_fit": set(),
                "bump": {"segment:bump"}}


MALLOC_CODE = KIND_CODES[MemoryEventKind.MALLOC]
FREE_CODE = KIND_CODES[MemoryEventKind.FREE]


class RequestProgram:
    """A front end's requests and its calls in order — a request id per
    malloc (its ordinal), ``~id`` per free — built as the recording
    :func:`~repro.device.allocator.place` reads: one malloc or free row per
    call, a malloc row carrying its request's bytes, category and tag."""

    def __init__(self, calls=(), nbytes=(), categories=(), tags=()):
        self.calls = list(calls)
        self.nbytes = list(nbytes)
        self.categories = list(categories)
        self.tags = list(tags)

    @classmethod
    def recorded(cls, recording):
        """The program of a recording's malloc and free rows."""
        columns = recording.columns()
        rows = call_rows(columns)
        request = columns.block_id[rows]
        malloc = columns.kind_code[rows] == MALLOC_CODE
        mallocs = rows[malloc]
        tags = recording.event_strings()[0]
        return cls(np.where(malloc, request, ~request).tolist(),
                   columns.size[mallocs].tolist(),
                   [CATEGORY_FROM_CODE[code] for code in columns.category_code[mallocs].tolist()],
                   [tags[row] for row in mallocs.tolist()])

    @classmethod
    def of(cls, device):
        """The calls ``device``'s recorder has recorded so far."""
        return cls.recorded(device.recorder.to_trace())

    def __len__(self):
        return len(self.tags)

    def malloc(self, nbytes, category=MemoryCategory.UNKNOWN, tag=""):
        """Log a malloc of ``nbytes``; returns its request id."""
        request = len(self.tags)
        self.nbytes.append(nbytes)
        self.categories.append(category)
        self.tags.append(tag)
        self.calls.append(request)
        return request

    def free(self, *requests):
        """Log the free of each of ``requests``, in order."""
        self.calls += [~request for request in requests]

    def prefix(self, calls):
        """The program of the first ``calls`` calls."""
        return RequestProgram(self.calls[:calls], self.nbytes, self.categories, self.tags)

    def recording(self):
        """The calls as a recording's rows: each against its request, with
        the request's bytes, category and tag."""
        calls = np.array(self.calls, dtype=np.int64)
        request = np.where(calls >= 0, calls, ~calls)
        n = calls.size
        nbytes = np.array(self.nbytes, dtype=np.int64)
        categories = np.array([category.code for category in self.categories], dtype=np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        return MemoryTrace(
            columns=EventColumns(
                event_id=np.arange(n, dtype=np.int64),
                kind_code=np.where(calls >= 0, MALLOC_CODE, FREE_CODE),
                timestamp_ns=zeros, block_id=request, size=nbytes[request],
                category_code=categories[request], iteration=zeros - 1,
                device_rank=zeros, address=zeros),
            event_tags=[self.tags[index] for index in request.tolist()])

    def place(self, policy, capacity):
        """``policy``'s placement of the calls under ``capacity`` bytes."""
        return place(self.recording(), policy, capacity)


def segment_rows(placement):
    """A placement's segment rows after the preamble as ``(call, kind, id,
    address, size)``."""
    return list(zip(*(column.tolist() for column in (
        placement.segment_op, placement.segment_kind, placement.segment_id,
        placement.segment_address, placement.segment_size))))


def check_placement(program, placement, policy: str, capacity: int) -> None:
    """Walk a :class:`RequestProgram`'s calls against ``policy``'s
    ``placement`` and check the invariants.

    Live blocks never overlap and each lies inside a reserved segment; each
    block holds at least its rounded request; reserved bytes never exceed
    ``capacity``; the counters are the walk's sums and running maxima.
    """
    stats, rows = placement.stats, segment_rows(placement)
    made = sum(size for _, kind, _, _, size in rows if kind == SEGMENT_ALLOC_CODE)
    released = sum(size for _, kind, _, _, size in rows if kind == SEGMENT_FREE_CODE)
    reserved = stats.reserved_bytes - made + released        # the preamble's bytes
    assert placement.preamble_segments in (0, 1)
    segments = {}
    if placement.preamble_segments:
        segments[0] = (BASE_ADDRESS, BASE_ADDRESS + reserved)
    else:
        assert reserved == 0
    peak_reserved = reserved
    assert reserved <= capacity
    starts, ends, live = [], [], {}
    allocated = peak_allocated = active = peak_active = 0
    mallocs = frees = alloc_bytes = 0
    next_row = 0
    for call, op in enumerate(program.calls):
        while next_row < len(rows) and rows[next_row][0] == call:
            _, kind, segment, address, size = rows[next_row]
            if kind == SEGMENT_ALLOC_CODE:
                segments[segment] = (address, address + size)
                reserved += size
            else:
                assert segments.pop(segment) == (address, address + size)
                reserved -= size
            assert reserved <= capacity
            peak_reserved = max(peak_reserved, reserved)
            next_row += 1
        request = op if op >= 0 else ~op
        address = int(placement.address[request])
        size = int(placement.size[request])
        if op >= 0:
            assert size >= round_block_size(program.nbytes[request])
            assert any(low <= address and address + size <= high
                       for low, high in segments.values())
            at = bisect_left(starts, address)
            assert at == 0 or ends[at - 1] <= address, "live blocks overlap"
            assert at == len(starts) or address + size <= starts[at], "live blocks overlap"
            starts.insert(at, address)
            ends.insert(at, address + size)
            live[request] = size
            allocated += size
            active += 1
            mallocs += 1
            alloc_bytes += size
            peak_allocated = max(peak_allocated, allocated)
            peak_active = max(peak_active, active)
        else:
            at = bisect_right(starts, address) - 1
            assert starts[at] == address
            del starts[at], ends[at]
            allocated -= live.pop(request)
            active -= 1
            frees += 1
    assert next_row == len(rows)
    assert stats.allocated_bytes == allocated == sum(live.values())
    assert stats.active_blocks == active == len(live)
    assert stats.reserved_bytes == reserved
    assert (stats.peak_allocated_bytes, stats.peak_active_blocks, stats.peak_reserved_bytes) \
        == (peak_allocated, peak_active, peak_reserved)
    assert (stats.total_alloc_count, stats.total_free_count, stats.total_alloc_bytes) \
        == (mallocs, frees, alloc_bytes)
    assert stats.segment_allocs == placement.preamble_segments + sum(
        kind == SEGMENT_ALLOC_CODE for _, kind, _, _, _ in rows)
    assert stats.segment_frees == sum(kind == SEGMENT_FREE_CODE for _, kind, _, _, _ in rows)
    assert set(placement.segment_tags) <= SEGMENT_TAGS[policy]

