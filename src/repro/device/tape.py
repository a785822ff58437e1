"""Timing tape: the *reason* behind every clock advance, one atom at a time.

Symbolic execution makes a run's event structure a pure function of the
workload (model, batch size, replica count, ...) while simulated *time* is a
pure function of that structure plus the pricing axes (device spec, host
dispatch overhead, interconnect).  The tape is what separates the two: each
component that advances a :class:`~repro.device.clock.DeviceClock` first
records a typed atom saying *why* — a kernel with its roofline parameters, a
memcpy with its byte count, an allocator bookkeeping overhead, a collective
barrier — so the trace-template replay engine
(:mod:`repro.experiments.replay`) can later re-derive every timestamp for a
different device specification with a handful of vectorized array
transforms, without re-running the simulation.

The tape doubles as its own correctness monitor.  Annotated atoms set a
*pending* duration that the clock observer must claim on the very next
advance; any advance that arrives unannotated is recorded verbatim as a
:data:`TAPE_CONST` atom (constant nanoseconds under re-pricing, which is
exactly right for host-side pauses), and any mismatch between an annotation
and the advance it claimed bumps :attr:`TimingTape.unexpected` — a non-zero
count marks the captured template as unusable rather than silently wrong.
"""

from __future__ import annotations

from array import array
from typing import Dict

import numpy as np

from .clock import DeviceClock
from .timing import KernelCost

#: Atom kinds.  ``CONST`` re-prices to its recorded nanoseconds; the others
#: re-price from the target device specification (and, for the sync kinds,
#: from the target cluster's collective cost model).
TAPE_CONST = 0
TAPE_KERNEL = 1
TAPE_MEMCPY_H2D = 2
TAPE_MEMCPY_D2H = 3
TAPE_ALLOC_OVERHEAD = 4
TAPE_SEGMENT_OVERHEAD = 5
TAPE_ALLREDUCE = 6
TAPE_BARRIER = 7

#: Kinds resolved with cross-rank barrier semantics at replay time.
SYNC_KINDS = (TAPE_ALLREDUCE, TAPE_BARRIER)


def atom_index_table(kinds: np.ndarray) -> Dict[int, np.ndarray]:
    """Positions of every atom kind present in a tape's kind column.

    Returns ``{kind_code: int64 positions}``, ascending within each kind.
    The batched repricing path (:meth:`TraceTemplate.replay_batch`) gathers
    through these index arrays once per template instead of re-masking the
    kind column for every scenario it prices.
    """
    kinds = np.asarray(kinds, dtype=np.int64)
    # The kinds present, ascending (``np.unique`` would import ``numpy.ma``).
    return {kind: np.flatnonzero(kinds == kind)
            for kind in np.flatnonzero(np.bincount(kinds)).tolist()}


class TimingTape:
    """Per-clock columnar log of timing atoms (one per clock advance).

    Attaching a tape registers it as ``clock.tape`` and as a clock observer;
    the instrumented choke points (kernel launch, DMA, allocator, collective
    engine, host pauses) check ``clock.tape`` and record their atom right
    before advancing the clock.
    """

    def __init__(self, clock: DeviceClock):
        self.clock = clock
        #: Simulated time already on the clock when the tape attached.  For
        #: allocators that reserve memory at construction (best-fit's arena)
        #: this is a whole number of segment overheads — the replay engine
        #: re-prices it via :meth:`preamble_segments`.
        self.attach_ns = clock.now_ns
        self.kind = array("q")
        self.duration_ns = array("q")
        self.nbytes = array("q")
        self.flops = array("d")
        self.bytes_moved = array("d")
        #: Number of annotation/advance mismatches observed; any non-zero
        #: value invalidates the capture for replay.
        self.unexpected = 0
        self._pending = None
        clock.tape = self
        clock.add_observer(self._observe)

    def __len__(self) -> int:
        return len(self.kind)

    def detach(self) -> None:
        """Stop observing the clock and unpublish ``clock.tape``."""
        self.clock.remove_observer(self._observe)
        if getattr(self.clock, "tape", None) is self:
            self.clock.tape = None

    # -- atom recording (called by the instrumented choke points) ----------------

    def _append(self, kind: int, duration_ns: int, nbytes: int = 0,
                flops: float = 0.0, bytes_moved: float = 0.0) -> None:
        self.kind.append(kind)
        self.duration_ns.append(int(duration_ns))
        self.nbytes.append(int(nbytes))
        self.flops.append(float(flops))
        self.bytes_moved.append(float(bytes_moved))
        if duration_ns > 0:
            if self._pending is not None:
                # Two annotations with no advance in between: the first one
                # was never claimed.
                self.unexpected += 1
            self._pending = int(duration_ns)

    def record_kernel(self, cost: KernelCost, duration_ns: int) -> None:
        """One kernel launch with its roofline inputs (flops, DRAM bytes)."""
        self._append(TAPE_KERNEL, duration_ns,
                     flops=cost.flops, bytes_moved=cost.bytes_moved)

    def record_memcpy(self, direction: str, nbytes: int, duration_ns: int) -> None:
        """One synchronous host↔device copy (direction is ``h2d``/``d2h``)."""
        kind = TAPE_MEMCPY_H2D if direction == "h2d" else TAPE_MEMCPY_D2H
        self._append(kind, duration_ns, nbytes=nbytes)

    def record_alloc_overhead(self, duration_ns: int) -> None:
        """One allocator bookkeeping advance (``allocator_overhead_ns``)."""
        self._append(TAPE_ALLOC_OVERHEAD, duration_ns)

    def record_segment_overhead(self, duration_ns: int) -> None:
        """One segment reserve/release advance (``cuda_malloc_overhead_ns``)."""
        self._append(TAPE_SEGMENT_OVERHEAD, duration_ns)

    def record_const(self, duration_ns: int) -> None:
        """One host-side pause: a constant under device re-pricing."""
        self._append(TAPE_CONST, int(round(duration_ns)))

    def record_sync(self, kind: int, nbytes: int, duration_ns: int) -> None:
        """One cross-rank synchronization point (allreduce or barrier).

        ``duration_ns`` is this rank's catch-up delta during capture; replay
        ignores it and re-resolves the sync with barrier semantics across all
        participating ranks.
        """
        self._append(kind, duration_ns, nbytes=nbytes)

    # -- clock observer ----------------------------------------------------------

    def _observe(self, old_ns: int, new_ns: int) -> None:
        delta = new_ns - old_ns
        pending = self._pending
        if pending is not None:
            self._pending = None
            if pending == delta:
                return
            self.unexpected += 1
        # Unannotated advance: keep the tape exact by logging it verbatim.
        self.kind.append(TAPE_CONST)
        self.duration_ns.append(int(delta))
        self.nbytes.append(0)
        self.flops.append(0.0)
        self.bytes_moved.append(0.0)

    # -- capture health ----------------------------------------------------------

    @property
    def consistent(self) -> bool:
        """Whether every advance matched its annotation (replay-safe)."""
        return self.unexpected == 0 and self._pending is None

    def preamble_segments(self, segment_overhead_ns: int) -> int:
        """Pre-attach time expressed as a count of segment reservations.

        Time on the clock before the tape attached comes from allocator
        construction (best-fit reserves its arena up front); it must be a
        whole number of ``cuda_malloc_overhead_ns`` advances to be
        re-priceable.  Returns -1 when it is not (template invalid).
        """
        if self.attach_ns == 0:
            return 0
        if segment_overhead_ns <= 0 or self.attach_ns % segment_overhead_ns:
            return -1
        return self.attach_ns // segment_overhead_ns
