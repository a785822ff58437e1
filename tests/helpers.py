"""Shared trace-building helpers for the tier-1 suite.

This module (not ``conftest.py``) is the import target for plain helper
functions, so that test modules never depend on conftest import order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np

from repro.core import ati as ati_module
from repro.core import trace as trace_module
from repro.core.ati import compute_interval_arrays
from repro.core.events import (
    BlockLifetime,
    IterationMark,
    MemoryCategory,
    MemoryEvent,
    MemoryEventKind,
)
from repro.core.trace import MemoryTrace, lifetimes_from_columns
from repro.device.cluster import ClusterSpec
from repro.device.hooks import MemoryEventListener
from repro.device.tape import TAPE_ALLREDUCE
from repro.device.timing import KernelTimingModel
from repro.errors import TraceInvariantError
from repro.experiments.replay import _POINT_KEY
from repro.train.session import build_cluster


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
    tags, _ops = trace.event_strings()
    views = {"lifetimes": lifetimes_from_columns(trace.columns(), tags)}
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
    return [event for event in trace.events if event.kind.is_swap]


def recompute_events(trace):
    """The engine's rematerialization traffic (``recompute_drop`` / ``recompute``)."""
    return [event for event in trace.events if event.kind.is_recompute]


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
        events.append(MemoryEvent(
            event_id=index, kind=kind, timestamp_ns=timestamp, block_id=block_id,
            address=0x1000 * block_id, size=size, category=category,
            tag=f"block{block_id}", iteration=iteration,
        ))
    marks = [IterationMark(index=i, start_ns=start, end_ns=end)
             for i, (start, end) in enumerate(iteration_marks)]
    final_ns = end_ns if end_ns is not None else (events[-1].timestamp_ns if events else 0)
    return MemoryTrace(events=events, iteration_marks=marks, end_ns=final_ns)


class ReferenceRecorder(MemoryEventListener):
    """The obvious recorder: one :class:`MemoryEvent` object per hook call.

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
            self.events.append(MemoryEvent(
                event_id=len(self.events), kind=kind, timestamp_ns=self.clock.now_ns,
                block_id=block_id, address=address, size=size, category=category,
                tag=tag, iteration=self.iteration_of(), op=op))
        return self.enabled

    def _emit_block(self, kind, block, op=""):
        return self._emit(kind, block.block_id, block.address, block.size,
                          block.category, block.tag, op)

    def on_malloc(self, block, requested_size):
        if self._emit_block(MemoryEventKind.MALLOC, block):
            lifetime = BlockLifetime(
                block_id=block.block_id, address=block.address, size=block.size,
                category=block.category, tag=block.tag, malloc_ns=self.clock.now_ns,
                iteration=self.iteration_of())
            self._open[block.block_id] = lifetime
            self.lifetimes.append(lifetime)

    def on_free(self, block):
        if self._emit_block(MemoryEventKind.FREE, block):
            lifetime = self._open.pop(block.block_id, None)
            if lifetime is not None:
                lifetime.free_ns = self.clock.now_ns

    def _on_access(self, kind, block, op):
        if self._emit_block(kind, block, op) and block.block_id in self._open:
            self._open[block.block_id].access_count += 1

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

    def on_swap_out(self, block, nbytes, op):
        self._emit_block(MemoryEventKind.SWAP_OUT, block, op)

    def on_swap_in(self, block, nbytes, op):
        self._emit_block(MemoryEventKind.SWAP_IN, block, op)

    def on_recompute_drop(self, block, nbytes, op):
        self._emit_block(MemoryEventKind.RECOMPUTE_DROP, block, op)

    def on_recompute(self, block, nbytes, op):
        self._emit_block(MemoryEventKind.RECOMPUTE, block, op)


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
    allreduce = (template.sync_kinds == TAPE_ALLREDUCE).tolist()
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
            costs.append([
                cluster.allreduce_time_ns(nbytes) if is_allreduce else 0
                for nbytes, is_allreduce in zip(sync_nbytes, allreduce)])
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
