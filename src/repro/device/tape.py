"""Timing atoms: the *reason* behind every advance of a device's clock.

A run's event structure is a pure function of the
workload (model, batch size, replica count, ...) while simulated *time* is a
pure function of that structure plus the pricing axes (device spec, host
dispatch overhead, interconnect).  The atoms are what separates the two:
every advance of a device's clock is one atom, of one kind — a kernel with
its roofline parameters, a memcpy with its byte count, an allocator
bookkeeping overhead, the gradient allreduce, or a host-side constant —
with the nanoseconds it moved the clock.  The device's
:class:`~repro.core.recorder.TraceRecorder` is the only code that moves
its clock, and it logs each atom it moves it by (:data:`ATOM_DTYPE`), with
the number of rows recorded before it, in the same call — all but the
allocator's, which every malloc and free row implies.  A template
(:mod:`repro.experiments.replay`) lays the atoms out as one tape per
replica and later re-derives every timestamp for a different device
specification with a handful of vectorized array transforms, without
re-running the simulation.
"""

from __future__ import annotations

import struct
from typing import Dict

import numpy as np

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

#: One logged atom: the rows recorded before it, its kind, the nanoseconds
#: it moved the clock and its pricing inputs (bytes, flops, DRAM traffic).
ATOM_DTYPE = np.dtype([("rows", "<i8"), ("kind", "<i8"), ("duration_ns", "<i8"),
                       ("nbytes", "<i8"), ("flops", "<f8"), ("bytes_moved", "<f8")])
#: ``pack_atom(rows, kind, duration_ns, nbytes, flops, bytes_moved) -> bytes``:
#: one atom in the :data:`ATOM_DTYPE` layout.
pack_atom = struct.Struct("<4q2d").pack
ATOM_SIZE = ATOM_DTYPE.itemsize


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
