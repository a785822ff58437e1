"""Trace recorder: the instrumentation the paper adds to the runtime.

Every :class:`~repro.device.device.Device` makes its :class:`TraceRecorder`
when it is built, and the recorder turns every malloc / free / read / write
from then on into one timestamped row written against a *request id*.  The
malloc row is the request: :meth:`TraceRecorder.on_malloc` numbers it (its
malloc ordinal, which the device hands the storage), packs its bytes and
category code into the row and keeps its tag in :attr:`TraceRecorder.tags`.
The malloc and free rows are the device's one log of the calls: the
placement passes (:func:`~repro.device.allocator.place`) and
:func:`place_traces` read the call sequence off them, and the trainer
copies them for a steady iteration.  The recorder is the hottest
non-numeric path of a profiled run — every behavior lands here — so a
malloc, a free or an access outside a kernel is one hook call, one C-level
append of a packed ``int64`` row and one op-string append (a malloc adds its
tag): the clock field is read and written directly and nothing else is
looked up.

The recorder is also the only code that moves its device's clock, and
every run it records keeps the timing atoms a template needs
(:mod:`repro.device.tape`), so a simulated row and a template are made from
one recording.  A malloc or a free moves the clock by the allocator's
bookkeeping overhead before its row and logs no atom: its row implies it.
A kernel launch is one call,
:meth:`TraceRecorder.on_kernel`: it checks every operand live, packs a read
row per input, the kernel's atom and a write row per output, and moves the
clock by the kernel's duration.  Every other advance — a copy, a host
pause, an allreduce's wait — is one :meth:`TraceRecorder.on_atom`.  A logged
atom carries the number of rows recorded before it, and every iteration
mark the number of atoms logged and rows recorded at its begin and end
(:attr:`TraceRecorder.mark_spans`), so the tape a template prices, and each
row's position in it, follow from the recording alone
(:func:`~repro.experiments.replay._capture_rank`).

:meth:`TraceRecorder.to_trace` is the run as the front end made it: each
request its own block, sized as requested, and no segment rows.
:func:`place_traces` turns it into the trace an allocator's placement
(:func:`~repro.device.allocator.place`) gives: each request's block,
the segment rows, and every later row moved by the ``cudaMalloc``
overheads — through each gradient barrier by the latest arrival
(:func:`~repro.core.trace.barrier_delay`).  The rows are laid by a
:class:`~repro.core.trace.Splice`, as the swap overlay
(:func:`repro.swap.executor.overlay`) lays its own.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import List, Sequence

import numpy as np

from ..device.allocator import Placement, call_rows
from ..device.tape import ATOM_DTYPE, ATOM_SIZE, TAPE_KERNEL, pack_atom
from ..errors import ClockError
from .events import IterationMark, MemoryCategory, MemoryEventKind
from .trace import (KIND_CODES, MemoryTrace, Splice, barrier_delay, barrier_rows,
                    columns_from_rows, iteration_rows, pack_row)

_MALLOC = KIND_CODES[MemoryEventKind.MALLOC]
_FREE = KIND_CODES[MemoryEventKind.FREE]
_READ = KIND_CODES[MemoryEventKind.READ]
_WRITE = KIND_CODES[MemoryEventKind.WRITE]
_UNKNOWN_CATEGORY = MemoryCategory.UNKNOWN.code


class TraceRecorder:
    """Records malloc/free/read/write behaviors of ``device`` with simulated
    timestamps, against the request ids its mallocs number, and the timing
    atoms it moves the device's clock by."""

    def __init__(self, device):
        self.clock = device.clock
        #: The allocator's bookkeeping overhead every malloc and free pays
        #: (the spec is frozen, so it is read once).
        self.call_ns = device.spec.allocator_overhead_ns
        #: What the trace says about the run (a profiler stamps it).
        self.metadata: dict = {}
        self.rows = array("q")
        self.ops: List[str] = []
        #: Each request's tag, by request id (its malloc ordinal).
        self.tags: List[str] = []
        #: Every atom logged, packed (:data:`~repro.device.tape.ATOM_DTYPE`).
        self.atoms = bytearray()
        # The stores live as long as the recorder, so their C-level appends
        # are bound once here and called directly by the hooks.
        self._append_row = self.rows.frombytes
        self._append_op = self.ops.append
        self._extend_ops = self.ops.extend
        self._append_tag = self.tags.append
        self._append_atom = self.atoms.extend
        self.iteration_marks: List[IterationMark] = []
        #: Per iteration mark: ``[atoms, rows]`` logged and recorded at its
        #: begin, then at its end (``-1, -1`` until the iteration closes).
        self.mark_spans: List[List[int]] = []
        self._current_iteration = -1

    # -- iteration bookkeeping ------------------------------------------------------

    @property
    def current_iteration(self) -> int:
        """Index of the iteration currently being recorded (-1 outside any)."""
        return self._current_iteration

    def begin_iteration(self, index: int) -> None:
        """Mark the start of training iteration ``index``."""
        self._current_iteration = index
        self.iteration_marks.append(IterationMark(index=index, start_ns=self.clock.now_ns))
        self.mark_spans.append([len(self.atoms) // ATOM_SIZE, len(self.ops), -1, -1])

    def end_iteration(self, index: int) -> None:
        """Mark the end of training iteration ``index``."""
        for position in range(len(self.iteration_marks) - 1, -1, -1):
            mark = self.iteration_marks[position]
            if mark.index == index and mark.end_ns is None:
                mark.end_ns = self.clock.now_ns
                self.mark_spans[position][2:] = len(self.atoms) // ATOM_SIZE, len(self.ops)
                break
        self._current_iteration = -1

    # -- event capture ----------------------------------------------------------------

    def on_malloc(self, nbytes: int, category_code: int, tag: str) -> int:
        """Record a malloc of ``nbytes`` once the allocator's bookkeeping
        overhead is on the clock; returns its request id."""
        clock = self.clock
        now = clock._now_ns = clock._now_ns + self.call_ns
        request = len(self.tags)
        self._append_row(pack_row(_MALLOC, now, request, 0, nbytes, category_code,
                                  self._current_iteration))
        self._append_op("")
        self._append_tag(tag)
        return request

    def on_free(self, request: int) -> None:
        """Record the free of ``request`` once the allocator's bookkeeping
        overhead is on the clock."""
        clock = self.clock
        now = clock._now_ns = clock._now_ns + self.call_ns
        self._append_row(pack_row(_FREE, now, request, 0, 0, 0, self._current_iteration))
        self._append_op("")

    def on_read(self, request: int, op: str) -> None:
        """Record a read of ``request`` by operator ``op``."""
        self._append_row(pack_row(_READ, self.clock._now_ns, request, 0, 0, 0,
                                  self._current_iteration))
        self._append_op(op)

    def on_write(self, request: int, op: str) -> None:
        """Record a write of ``request`` by operator ``op``."""
        self._append_row(pack_row(_WRITE, self.clock._now_ns, request, 0, 0, 0,
                                  self._current_iteration))
        self._append_op(op)

    def on_kernel(self, op: str, reads: Sequence, writes: Sequence, duration_ns: int,
                  flops: float, bytes_moved: float) -> None:
        """Record one launch of kernel ``op``: a read row per operand in
        ``reads`` at the current time, the kernel's atom (``duration_ns``
        long, priced by ``flops`` and ``bytes_moved``) and a write row per
        operand in ``writes`` at the kernel's end.  Operands are tensors
        (their ``storage.request``); every one is checked live, and the
        duration non-negative, before a row is recorded or the clock moves."""
        if duration_ns < 0:
            raise ClockError(f"cannot advance clock by negative delta {duration_ns}")
        clock = self.clock
        iteration = self._current_iteration
        start = clock._now_ns
        end = start + duration_ns
        rows = b""
        for operand in reads:
            request = operand.storage.request
            if request is None:
                operand.storage.ensure_live()
            rows += pack_row(_READ, start, request, 0, 0, 0, iteration)
        for operand in writes:
            request = operand.storage.request
            if request is None:
                operand.storage.ensure_live()
            rows += pack_row(_WRITE, end, request, 0, 0, 0, iteration)
        self._append_atom(pack_atom(len(self.ops) + len(reads), TAPE_KERNEL, duration_ns, 0,
                                    flops, bytes_moved))
        clock._now_ns = end
        self._append_row(rows)
        self._extend_ops([op] * (len(reads) + len(writes)))

    def on_atom(self, kind: int, duration_ns: int, nbytes: int = 0) -> None:
        """Move the clock by one atom of ``kind`` (``nbytes`` its payload)
        that no row implies: a copy, a host pause, an allreduce's wait.
        Zero-length atoms are logged too; a fractional duration is rounded
        to the nanosecond, and a negative one raises
        :class:`~repro.errors.ClockError` before the clock moves or an
        atom is logged."""
        if type(duration_ns) is not int:
            duration_ns = int(round(duration_ns))
        if duration_ns < 0:
            raise ClockError(f"cannot advance clock by negative delta {duration_ns}")
        self._append_atom(pack_atom(len(self.ops), kind, duration_ns, nbytes, 0.0, 0.0))
        self.clock._now_ns += duration_ns

    # -- trace construction --------------------------------------------------------------

    def to_trace(self) -> MemoryTrace:
        """The behaviors as the front end made them: each request its own
        block, sized as requested and laid after the one before."""
        columns = columns_from_rows(self.rows)
        request = columns.block_id
        mallocs = np.flatnonzero(columns.kind_code == _MALLOC)
        offsets = np.zeros(mallocs.size + 1, dtype=np.int64)
        np.cumsum(columns.size[mallocs], out=offsets[1:])
        at = mallocs[request]         # each row's request's malloc row
        tags = self.tags
        return MemoryTrace(
            columns=replace(columns, address=offsets[request], size=columns.size[at],
                            category_code=columns.category_code[at]),
            event_tags=[tags[index] for index in request.tolist()],
            event_ops=list(self.ops),
            iteration_marks=[replace(mark) for mark in self.iteration_marks],
            metadata=dict(self.metadata),
            end_ns=self.clock.now_ns,
        )

    def atom_log(self) -> np.ndarray:
        """The atoms logged so far, as :data:`~repro.device.tape.ATOM_DTYPE`
        records (a copy)."""
        return np.frombuffer(bytes(self.atoms), dtype=ATOM_DTYPE)

    def __len__(self) -> int:
        return len(self.ops)


class PlacedTrace:
    """One replica's recording with its requests placed (:func:`place_traces`).

    ``trace`` is the placed trace; ``rows`` is the index in it of every
    recorded row, and ``segment_rows`` that of every segment row placed in
    front of recorded row ``anchors``; ``waits`` is, per gradient barrier,
    how much longer than recorded the replica waited there (the latest
    arrival's delay less its own).
    """

    def __init__(self, trace: MemoryTrace, placement: Placement, overhead_ns: int,
                 barriers: List[int]):
        self.trace, self.placement, self.overhead_ns = trace, placement, overhead_ns
        columns = self.columns = trace.columns()
        n = len(columns)
        #: The recorded malloc and free rows, in order: the calls.
        self.calls = call_rows(columns)
        # Each segment row's call: the recorded malloc (or free) that made it.
        at = self.anchors = self.calls[placement.segment_op]
        #: before[p]: the segment overheads paid before point p (p rows recorded).
        self.before = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(at, minlength=n + 1), out=self.before[1:])
        self.before *= overhead_ns
        #: The rows each barrier-delimited stretch starts at, and its delay.
        self.starts = [0] + barriers
        self.delays = [placement.preamble_segments * overhead_ns]
        self.waits: List[int] = []

    def _arrival(self, k: int):
        """The recorded time and the delay of the replica's arrival at barrier ``k``."""
        row = self.starts[k + 1]
        return (int(self.columns.timestamp_ns[row - 1]),
                self.delays[k] + int(self.before[row] - self.before[self.starts[k]]))

    def _delay_at(self, points: np.ndarray, counted: np.ndarray) -> np.ndarray:
        """The delay at ``points`` of the overheads of the calls before ``counted``."""
        starts = np.asarray(self.starts, dtype=np.int64)
        stretch = np.searchsorted(starts, points, side="right") - 1
        return (np.asarray(self.delays, dtype=np.int64)[stretch]
                + self.before[counted] - self.before[starts[stretch]])

    def _place(self) -> "PlacedTrace":
        """Move the rows; put each call's segment rows in front of it
        (a :class:`~repro.core.trace.Splice` of the recording)."""
        trace, columns, placement, before = self.trace, self.columns, self.placement, \
            self.before
        n = len(columns)
        points = np.arange(n, dtype=np.int64)
        row_delay = self._delay_at(points, points + 1)
        spans = np.array(iteration_rows(columns.iteration, trace.iteration_marks),
                         dtype=np.int64).reshape(-1, 2)
        mark_delay = self._delay_at(spans, spans).tolist()
        end_delay = int(self._delay_at(np.array([n]), np.array([n + 1]))[0])
        anchors, calls = self.anchors, placement.segment_op
        ordinal = np.arange(calls.size) - np.searchsorted(calls, calls)
        request = columns.block_id
        blocks = MemoryTrace(
            columns=replace(columns, block_id=placement.block_id[request],
                            size=placement.size[request],
                            address=placement.address[request]),
            event_tags=trace.event_tags, event_ops=trace.event_ops, metadata=trace.metadata)
        splice = Splice(blocks, n, anchors, {
            "kind_code": placement.segment_kind,
            "timestamp_ns": (columns.timestamp_ns[anchors] + row_delay[anchors]
                             - (before[anchors + 1] - before[anchors])
                             + (ordinal + 1) * self.overhead_ns),
            "block_id": -placement.segment_id,
            "address": placement.segment_address,
            "size": placement.segment_size,
            "category_code": _UNKNOWN_CATEGORY,
            "iteration": columns.iteration[anchors]},
            placement.segment_tags, [""] * calls.size, row_delay)
        self.rows, self.segment_rows = splice.rows, splice.own
        marks = [IterationMark(index=mark.index, start_ns=mark.start_ns + begin,
                               end_ns=mark.end_ns + end)
                 for mark, (begin, end) in zip(trace.iteration_marks, mark_delay)]
        self.trace = splice.trace(marks, trace.end_ns + end_delay)
        return self


def place_traces(traces: Sequence[MemoryTrace], placements: Sequence[Placement],
                 overhead_ns: int) -> List[PlacedTrace]:
    """Place each replica's recording (:meth:`TraceRecorder.to_trace`) with
    its placement: the trace a run with that allocator live would record.

    Every segment reserved or released costs ``overhead_ns`` right after the
    call's own bookkeeping (the preamble's before the first row), so a row
    runs as much later as the segment overheads before it add up; its
    segment rows go in front of the call's malloc (or free), each stamped
    after its own overhead.  Replicas synchronize at every gradient barrier
    (:func:`~repro.core.trace.barrier_rows`): all leave it as much later as
    the latest delayed arrival is later than the latest recorded one.
    """
    plans = [PlacedTrace(trace, placement, overhead_ns,
                         barrier_rows(trace) if len(traces) > 1 else [])
             for trace, placement in zip(traces, placements)]
    for k in range(len(plans[0].starts) - 1):
        arrivals = [plan._arrival(k) for plan in plans]
        delay = barrier_delay(arrivals)
        for plan, (_, delayed) in zip(plans, arrivals):
            plan.delays.append(delay)
            plan.waits.append(delay - delayed)
    return [plan._place() for plan in plans]
