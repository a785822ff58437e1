"""Timing tape: the *reason* behind every clock advance, one atom at a time.

A run's event structure is a pure function of the
workload (model, batch size, replica count, ...) while simulated *time* is a
pure function of that structure plus the pricing axes (device spec, host
dispatch overhead, interconnect).  The tape is what separates the two: it is
a :class:`~repro.device.clock.DeviceClock`'s own log.  Every advance names
its atom kind — a kernel with its roofline parameters, a memcpy with its byte
count, an allocator bookkeeping overhead, the gradient allreduce, or a
host-side constant — and a clock with a tape attached appends that atom,
with the nanoseconds it moved, as one row of the tape's columns.  The
trace-template replay engine (:mod:`repro.experiments.replay`) later
re-derives every timestamp for a different device specification with a
handful of vectorized array transforms, without re-running the simulation.

Because the atom and the advance are one call, the tape cannot disagree
with the clock: it holds exactly one atom per advance, zero-length ones
included.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict

import numpy as np

if TYPE_CHECKING:  # the clock imports this module for its atom kinds
    from .clock import DeviceClock

#: Atom kinds.  ``CONST`` re-prices to its recorded nanoseconds; the others
#: re-price from the target device specification (and the allreduce, the one
#: sync kind, from the target cluster's collective cost model, resolved with
#: cross-rank barrier semantics at replay time; an allreduce atom's recorded
#: duration is its rank's catch-up to the barrier's end, which replay ignores).
TAPE_CONST = 0
TAPE_KERNEL = 1
TAPE_MEMCPY_H2D = 2
TAPE_MEMCPY_D2H = 3
TAPE_ALLOC_OVERHEAD = 4
TAPE_SEGMENT_OVERHEAD = 5
TAPE_ALLREDUCE = 6


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

    Attaching a tape registers it as ``clock.tape``; from then on every
    :meth:`DeviceClock.advance <repro.device.clock.DeviceClock.advance>`
    appends its atom to the five columns below until :meth:`detach`.
    """

    def __init__(self, clock: DeviceClock):
        self.clock = clock
        self.kind = array("q")
        self.duration_ns = array("q")
        self.nbytes = array("q")
        self.flops = array("d")
        self.bytes_moved = array("d")
        clock.tape = self

    def __len__(self) -> int:
        return len(self.kind)

    def detach(self) -> None:
        """Stop logging: unpublish ``clock.tape``."""
        if self.clock.tape is self:
            self.clock.tape = None
