"""Trace recorder: the instrumentation the paper adds to the runtime.

:class:`TraceRecorder` implements the device's
:class:`~repro.device.hooks.MemoryEventListener` interface and turns every
allocator/storage notification into one timestamped row of a
:class:`~repro.core.trace.ColumnarEventLog`.  The recorder is the hottest
non-numeric path of a profiled run — every malloc/free/read/write lands
here — so one recorded behavior costs one hook call and one C-level row
append: the device's composite listener hands a lone recorder's bound hooks
straight to the allocator and the storages (see
:class:`~repro.device.hooks.CompositeListener`), and ``on_malloc`` /
``on_free`` / ``on_read`` / ``on_write`` each write the packed row, the two
strings and the tape position themselves, reading the clock field and the
category's ``code`` attribute directly — and nothing else.  The recorder
never writes the tape: a taped clock logs its own atoms
(:class:`~repro.device.tape.TimingTape`), and the recorder only notes, per
event, how many atoms precede it.  The log's rows are the trace:
:meth:`TraceRecorder.to_trace` transposes them into the
:class:`~repro.core.trace.EventColumns` of a
:class:`~repro.core.trace.MemoryTrace`, and the block lifetimes of Figure 2
are derived from those columns
(:func:`~repro.core.trace.lifetimes_from_columns`) only when something asks.

It also tracks iteration boundaries (for the iterative-pattern analysis).
A swap-on run's engine rows are inserted afterwards, by
:func:`repro.swap.executor.overlay`.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from ..device.clock import DeviceClock
from ..device.hooks import MemoryEventListener
from .events import IterationMark, MemoryCategory, MemoryEventKind
from .trace import KIND_CODES, ColumnarEventLog, MemoryTrace, pack_row

_MALLOC = KIND_CODES[MemoryEventKind.MALLOC]
_FREE = KIND_CODES[MemoryEventKind.FREE]
_READ = KIND_CODES[MemoryEventKind.READ]
_WRITE = KIND_CODES[MemoryEventKind.WRITE]
_SEGMENT_ALLOC = KIND_CODES[MemoryEventKind.SEGMENT_ALLOC]
_SEGMENT_FREE = KIND_CODES[MemoryEventKind.SEGMENT_FREE]
_UNKNOWN_CATEGORY = MemoryCategory.UNKNOWN.code


class TraceRecorder(MemoryEventListener):
    """Records malloc/free/read/write behaviors with simulated timestamps."""

    def __init__(self, clock: DeviceClock, metadata: Optional[dict] = None):
        self.clock = clock
        self.metadata = dict(metadata or {})
        self.log = ColumnarEventLog()
        # The log lives as long as the recorder, so its three C-level appends
        # are bound once here and called directly by the per-event hooks.
        self._append_row = self.log.rows.frombytes
        self._append_tag = self.log.tag.append
        self._append_op = self.log.op.append
        self.iteration_marks: List[IterationMark] = []
        self._current_iteration = -1
        self.enabled = True
        # Template capture: when a timing tape is attached to the clock, the
        # recorder notes each event's position in the tape (the number of
        # timing atoms that precede it) so the replay engine can re-derive
        # event timestamps from re-priced atom durations.
        self._tape = getattr(clock, "tape", None)
        self.event_tape_positions = array("q") if self._tape is not None else None
        #: Per-iteration ``[begin, end]`` tape positions (parallel to
        #: ``iteration_marks``; end is -1 until the iteration closes).
        self.mark_tape_spans: List[List[int]] = []

    # -- iteration bookkeeping ------------------------------------------------------

    @property
    def current_iteration(self) -> int:
        """Index of the iteration currently being recorded (-1 outside any)."""
        return self._current_iteration

    def begin_iteration(self, index: int) -> None:
        """Mark the start of training iteration ``index``."""
        self._current_iteration = index
        self.iteration_marks.append(IterationMark(index=index, start_ns=self.clock.now_ns))
        if self.event_tape_positions is not None:
            self.mark_tape_spans.append([len(self._tape), -1])

    def end_iteration(self, index: int) -> None:
        """Mark the end of training iteration ``index``."""
        for position in range(len(self.iteration_marks) - 1, -1, -1):
            mark = self.iteration_marks[position]
            if mark.index == index and mark.end_ns is None:
                mark.end_ns = self.clock.now_ns
                if (self.event_tape_positions is not None
                        and position < len(self.mark_tape_spans)):
                    self.mark_tape_spans[position][1] = len(self._tape)
                break
        self._current_iteration = -1

    # -- event capture ----------------------------------------------------------------

    def on_malloc(self, block, requested_size: int) -> None:
        if not self.enabled:
            return
        if self._tape is not None:
            self.event_tape_positions.append(len(self._tape))
        self._append_row(pack_row(_MALLOC, self.clock._now_ns, block.block_id,
                                  block.address, block.size, block.category.code,
                                  self._current_iteration))
        self._append_tag(block.tag)
        self._append_op("")

    def on_free(self, block) -> None:
        if not self.enabled:
            return
        if self._tape is not None:
            self.event_tape_positions.append(len(self._tape))
        self._append_row(pack_row(_FREE, self.clock._now_ns, block.block_id,
                                  block.address, block.size, block.category.code,
                                  self._current_iteration))
        self._append_tag(block.tag)
        self._append_op("")

    def on_read(self, block, nbytes: int, op: str) -> None:
        if not self.enabled:
            return
        if self._tape is not None:
            self.event_tape_positions.append(len(self._tape))
        self._append_row(pack_row(_READ, self.clock._now_ns, block.block_id,
                                  block.address, block.size, block.category.code,
                                  self._current_iteration))
        self._append_tag(block.tag)
        self._append_op(op)

    def on_write(self, block, nbytes: int, op: str) -> None:
        if not self.enabled:
            return
        if self._tape is not None:
            self.event_tape_positions.append(len(self._tape))
        self._append_row(pack_row(_WRITE, self.clock._now_ns, block.block_id,
                                  block.address, block.size, block.category.code,
                                  self._current_iteration))
        self._append_tag(block.tag)
        self._append_op(op)

    def _record_segment(self, kind_code: int, segment) -> None:
        if not self.enabled:
            return
        if self._tape is not None:
            self.event_tape_positions.append(len(self._tape))
        self.log.append(kind_code, self.clock._now_ns, -segment.segment_id,
                        segment.address, segment.size, _UNKNOWN_CATEGORY,
                        self._current_iteration, f"segment:{segment.pool}", "")

    def on_segment_alloc(self, segment) -> None:
        self._record_segment(_SEGMENT_ALLOC, segment)

    def on_segment_free(self, segment) -> None:
        self._record_segment(_SEGMENT_FREE, segment)

    # -- pausing ----------------------------------------------------------------------

    def pause(self) -> None:
        """Temporarily stop recording (e.g. during warm-up iterations)."""
        self.enabled = False

    def resume(self) -> None:
        """Resume recording after :meth:`pause`."""
        self.enabled = True

    # -- trace construction --------------------------------------------------------------

    def to_trace(self) -> MemoryTrace:
        """Freeze the recorded behaviors into an immutable :class:`MemoryTrace`."""
        tags, ops = self.log.snapshot_strings()
        return MemoryTrace(
            columns=self.log.snapshot_columns(),
            event_tags=tags,
            event_ops=ops,
            iteration_marks=list(self.iteration_marks),
            metadata=dict(self.metadata),
            end_ns=self.clock.now_ns,
        )

    def __len__(self) -> int:
        return len(self.log)
