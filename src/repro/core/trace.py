"""The memory trace container and its persistence formats.

A :class:`MemoryTrace` is the immutable result of a profiled training run:
the behavior stream and the iteration boundaries.  Every analysis in
:mod:`repro.core` consumes this object, and it can be saved to / loaded from
JSON (complete) or exported to CSV (events only, convenient for external
plotting).

One representation: the event columns
-------------------------------------
A trace stores its stream once, as an :class:`EventColumns` record — nine
parallel ``int64`` arrays (``event_id``, ``kind_code``, ``timestamp_ns``,
``block_id``, ``address``, ``size``, ``category_code``, ``iteration``,
``device_rank``), one entry per event, in recording order — plus the
``tag``/``op`` string side-lists.  Enum-valued fields are stable integer
codes (:data:`KIND_CODES` / :data:`CATEGORY_CODES`, with
:data:`KIND_FROM_CODE` / :data:`CATEGORY_FROM_CODE` for the reverse mapping),
so every analysis is vectorized masks and reductions over the arrays: the ATI
pairing (:mod:`repro.core.ati`), the occupation breakdown
(:mod:`repro.core.breakdown`) and the sweep engine's Eq.-1 screening never
touch a Python event object.

The recorder appends every behavior into a :class:`ColumnarEventLog` — a row
store: one flat ``array('q')`` of seven-wide ``int64`` rows (one C-level
append per behavior) plus the two string lists — and finalizes it with one
transposing copy straight into :class:`EventColumns`.

Everything else is a *view* read off the columns on first access and cached:
``MemoryTrace.events`` (the :class:`~repro.core.events.MemoryEvent` objects
JSON/CSV persistence and the object-level helpers walk) and
``MemoryTrace.lifetimes`` (the Fig.-2 block lifetimes, derived by
:func:`lifetimes_from_columns` — the only place a
:class:`~repro.core.events.BlockLifetime` is built).  A trace constructed
from event objects (tests, JSON loads) is converted to columns at
construction.
"""

from __future__ import annotations

import csv
import json
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import EmptyTraceError, TraceFormatError, TraceInvariantError
from .events import BlockLifetime, IterationMark, MemoryCategory, MemoryEvent, MemoryEventKind

PathLike = Union[str, Path]

#: Current on-disk format version.
TRACE_FORMAT_VERSION = 1

#: Stable integer codes for event kinds / categories, used by the column store.
KIND_CODES: Dict[MemoryEventKind, int] = {kind: i for i, kind in enumerate(MemoryEventKind)}
KIND_FROM_CODE: List[MemoryEventKind] = list(MemoryEventKind)
CATEGORY_CODES: Dict[MemoryCategory, int] = {cat: cat.code for cat in MemoryCategory}
CATEGORY_FROM_CODE: List[MemoryCategory] = list(MemoryCategory)

_MALLOC_CODE = KIND_CODES[MemoryEventKind.MALLOC]
_FREE_CODE = KIND_CODES[MemoryEventKind.FREE]
_READ_CODE = KIND_CODES[MemoryEventKind.READ]
_WRITE_CODE = KIND_CODES[MemoryEventKind.WRITE]
_SWAP_OUT_CODE = KIND_CODES[MemoryEventKind.SWAP_OUT]
_SWAP_IN_CODE = KIND_CODES[MemoryEventKind.SWAP_IN]
_RECOMPUTE_DROP_CODE = KIND_CODES[MemoryEventKind.RECOMPUTE_DROP]
_RECOMPUTE_CODE = KIND_CODES[MemoryEventKind.RECOMPUTE]

#: Codes of the paper's four block-level behaviors.
BLOCK_BEHAVIOR_CODES = np.array(
    [_MALLOC_CODE, _FREE_CODE, _READ_CODE, _WRITE_CODE], dtype=np.int64)
#: Codes of the data-access behaviors (read/write).
ACCESS_CODES = np.array([_READ_CODE, _WRITE_CODE], dtype=np.int64)
#: Codes of the swap-engine actions (eviction / restoration).
SWAP_CODES = np.array([_SWAP_OUT_CODE, _SWAP_IN_CODE], dtype=np.int64)
#: Codes of the rematerialization actions (drop / compute replay).
RECOMPUTE_CODES = np.array([_RECOMPUTE_DROP_CODE, _RECOMPUTE_CODE],
                           dtype=np.int64)

#: Numeric fields of one :class:`ColumnarEventLog` row, in storage order.
ROW_FIELDS = ("kind_code", "timestamp_ns", "block_id", "address", "size",
              "category_code", "iteration")
ROW_WIDTH = len(ROW_FIELDS)
#: ``pack_row(*fields) -> bytes``: one row in the ``array('q')`` item layout.
pack_row = struct.Struct(f"{ROW_WIDTH}q").pack


@dataclass(frozen=True)
class EventColumns:
    """Column-oriented view of a trace's event stream.

    Every analysis that aggregates over the whole event stream (ATI
    extraction, occupation breakdown, live-bytes timelines) operates on these
    NumPy arrays instead of iterating :class:`MemoryEvent` objects — a
    50-scenario sweep spends its time in these bulk operations, so they must
    be vectorized.
    """

    event_id: np.ndarray      # int64
    kind_code: np.ndarray     # int64, see KIND_CODES
    timestamp_ns: np.ndarray  # int64
    block_id: np.ndarray      # int64
    size: np.ndarray          # int64
    category_code: np.ndarray  # int64, see CATEGORY_CODES
    iteration: np.ndarray     # int64
    device_rank: np.ndarray   # int64 (data-parallel rank; all zeros single-device)
    address: np.ndarray       # int64 device virtual addresses

    def __len__(self) -> int:
        return int(self.event_id.size)

    @property
    def is_malloc(self) -> np.ndarray:
        """Boolean mask of malloc events."""
        return self.kind_code == _MALLOC_CODE

    @property
    def is_free(self) -> np.ndarray:
        """Boolean mask of free events."""
        return self.kind_code == _FREE_CODE

    @property
    def is_access(self) -> np.ndarray:
        """Boolean mask of read/write events."""
        return (self.kind_code == _READ_CODE) | (self.kind_code == _WRITE_CODE)

    @property
    def is_block_behavior(self) -> np.ndarray:
        """Boolean mask of the paper's four block-level behaviors."""
        return np.isin(self.kind_code, BLOCK_BEHAVIOR_CODES)

    @property
    def is_swap_out(self) -> np.ndarray:
        """Boolean mask of swap-engine eviction events."""
        return self.kind_code == _SWAP_OUT_CODE

    @property
    def is_swap_in(self) -> np.ndarray:
        """Boolean mask of swap-engine restoration events."""
        return self.kind_code == _SWAP_IN_CODE

    @property
    def is_swap(self) -> np.ndarray:
        """Boolean mask of swap traffic (evictions and restorations)."""
        return (self.kind_code == _SWAP_OUT_CODE) | (self.kind_code == _SWAP_IN_CODE)

    @property
    def is_recompute_drop(self) -> np.ndarray:
        """Boolean mask of rematerialization discards."""
        return self.kind_code == _RECOMPUTE_DROP_CODE

    @property
    def is_recompute(self) -> np.ndarray:
        """Boolean mask of rematerialization compute replays."""
        return self.kind_code == _RECOMPUTE_CODE

    @property
    def is_rematerialization(self) -> np.ndarray:
        """Boolean mask of rematerialization traffic (drops and replays)."""
        return ((self.kind_code == _RECOMPUTE_DROP_CODE)
                | (self.kind_code == _RECOMPUTE_CODE))

    def live_deltas(self) -> np.ndarray:
        """Per-event change in live bytes (+size on malloc, -size on free).

        Live bytes follow *allocation* semantics: swap traffic does not move
        a block's allocation, so it contributes nothing here — the live-bytes
        series of a swapped run equals that of the unswapped run (modulo the
        stall-shifted timestamps), which is exactly what lets one run report
        both its would-be peak and its swap-reduced resident peak.
        """
        return np.where(self.is_malloc, self.size,
                        np.where(self.is_free, -self.size, 0))

    def resident_deltas(self) -> np.ndarray:
        """Per-event change in *device-resident* bytes.

        Like :meth:`live_deltas` but swap and rematerialization traffic move
        bytes off/onto the device: ``swap_out``/``recompute_drop`` subtract
        the block size, ``swap_in``/``recompute`` add it back.  The engine
        guarantees every eviction is balanced by a restoration (a block freed
        while off-device gets a zero-copy ``"discard"`` restoration
        immediately before its free event), so the cumulative sum of these
        deltas is the device-resident footprint over time.
        """
        return np.where(self.is_malloc | self.is_swap_in | self.is_recompute,
                        self.size,
                        np.where(self.is_free | self.is_swap_out
                                 | self.is_recompute_drop, -self.size, 0))


class ColumnarEventLog:
    """Growable row store the trace recorder appends into.

    The numeric fields of every behavior live in *one* flat ``array('q')`` of
    :data:`ROW_WIDTH`-wide rows, in :data:`ROW_FIELDS` order; the two string
    fields (``tag``, ``op``) are plain Python lists.  One behavior is one
    ``rows.frombytes(pack_row(...))`` — a single C-level append of a packed
    ``int64`` row (``array.extend`` of a tuple walks the generic iterator
    protocol and is no faster than seven appends) — plus the two list
    appends; the recorder's hooks do exactly that inline and use
    :meth:`append` only off the hot path.  :meth:`snapshot_columns`
    transposes the rows once into an immutable :class:`EventColumns` (a bulk
    copy, so the log can keep growing afterwards without invalidating
    earlier snapshots).
    """

    __slots__ = ("rows", "tag", "op")

    def __init__(self) -> None:
        self.rows = array("q")
        self.tag: List[str] = []
        self.op: List[str] = []

    def __len__(self) -> int:
        return len(self.tag)

    def append(self, kind_code: int, timestamp_ns: int, block_id: int,
               address: int, size: int, category_code: int, iteration: int,
               tag: str, op: str) -> int:
        """Append one behavior; returns the event id it was assigned."""
        event_id = len(self.tag)
        self.rows.frombytes(pack_row(kind_code, timestamp_ns, block_id, address,
                                     size, category_code, iteration))
        self.tag.append(tag)
        self.op.append(op)
        return event_id

    def snapshot_columns(self) -> EventColumns:
        """Copy the current log contents into an immutable column record."""
        n = len(self.tag)
        # One transposing copy: every column comes out contiguous.  ``np.array``
        # always copies (``ascontiguousarray`` would return the view itself for
        # zero or one rows), so the temporary view on ``rows`` is released and
        # the log can grow again.
        table = np.array(
            np.frombuffer(self.rows, dtype=np.int64).reshape(n, ROW_WIDTH).T,
            order="C")
        return EventColumns(event_id=np.arange(n, dtype=np.int64),
                            device_rank=np.zeros(n, dtype=np.int64),
                            **dict(zip(ROW_FIELDS, table)))

    def snapshot_strings(self) -> Tuple[List[str], List[str]]:
        """Copies of the per-event ``tag`` and ``op`` side-lists."""
        return list(self.tag), list(self.op)


def _columns_from_events(events: Sequence[MemoryEvent]) -> EventColumns:
    """Build the column record from a list of event objects."""
    n = len(events)
    event_id = np.empty(n, dtype=np.int64)
    kind_code = np.empty(n, dtype=np.int64)
    timestamp_ns = np.empty(n, dtype=np.int64)
    block_id = np.empty(n, dtype=np.int64)
    address = np.empty(n, dtype=np.int64)
    size = np.empty(n, dtype=np.int64)
    category_code = np.empty(n, dtype=np.int64)
    iteration = np.empty(n, dtype=np.int64)
    device_rank = np.empty(n, dtype=np.int64)
    for i, event in enumerate(events):
        event_id[i] = event.event_id
        kind_code[i] = KIND_CODES[event.kind]
        timestamp_ns[i] = event.timestamp_ns
        block_id[i] = event.block_id
        address[i] = event.address
        size[i] = event.size
        category_code[i] = CATEGORY_CODES[event.category]
        iteration[i] = event.iteration
        device_rank[i] = event.device_rank
    return EventColumns(event_id=event_id, kind_code=kind_code,
                        timestamp_ns=timestamp_ns, block_id=block_id,
                        size=size, category_code=category_code,
                        iteration=iteration, device_rank=device_rank,
                        address=address)


_NEVER_FREED = int(np.iinfo(np.int64).min)  # no timestamp takes this value

_KEY_LIMIT = 1 << 31  # |block id| and position below it: id * n + position fits int64


def stable_block_order(block_ids: np.ndarray) -> np.ndarray:
    """``np.argsort(block_ids, kind="stable")`` through a unique composite key.

    ``block_id * n + position`` orders by block and, within a block, by
    position — the stable order — and has no ties, so the default vectorised
    argsort serves: 4-5x faster than the int64 timsort on a session's block
    column (848 -> 179 us at n = 13,000; ``make kernel-probe`` reprints it).
    The 2-D argsorts of nearly sorted times in ``replay_batch`` and the
    ``lexsort`` of :func:`merge_rank_traces` measured the other way and stay.
    """
    n = block_ids.size
    assert n < _KEY_LIMIT and (n == 0 or -_KEY_LIMIT < block_ids.min()
                               and block_ids.max() < _KEY_LIMIT)
    return np.argsort(block_ids * n + np.arange(n))


def _pair_block_behaviors(cols: EventColumns, malloc_events: np.ndarray):
    """Pair every block behavior with the malloc that owns it.

    A stable sort of the four block behaviors by block id
    (:func:`stable_block_order`) keeps each block's events in stream order.
    Within a block, a ``free`` closes the malloc that is the block's previous
    malloc/free event, and a read/write counts toward a malloc exactly when
    that malloc is the block's latest malloc/free event.
    Returns ``(events, kind, lifetime_of)`` over the sorted non-malloc
    behaviors: the event index, its kind code and the index into
    ``malloc_events`` of the malloc that owns it (-1 when none does).
    """
    behaviors = np.flatnonzero(cols.is_block_behavior)
    by_block = behaviors[stable_block_order(cols.block_id[behaviors])]
    kind = cols.kind_code[by_block]
    is_malloc = kind == _MALLOC_CODE
    is_lifecycle = is_malloc | (kind == _FREE_CODE)
    # owner[i]: the latest malloc/free event at or before sorted position i;
    # it speaks for event i only when it is a malloc of the same block.
    owner = np.maximum.accumulate(
        np.where(is_lifecycle, np.arange(by_block.size), -1))
    previous = np.concatenate(([-1], owner[:-1]))  # ... strictly before i
    owner = np.where(is_lifecycle, previous, owner)
    block = cols.block_id[by_block]
    owned = (owner >= 0) & is_malloc[owner] & (block[owner] == block)
    lifetime_of = np.where(owned, np.searchsorted(malloc_events, by_block[owner]), -1)
    return by_block[~is_malloc], kind[~is_malloc], lifetime_of[~is_malloc]


def lifetimes_from_columns(cols: EventColumns,
                           tags: Sequence[str]) -> List[BlockLifetime]:
    """The block lifetimes of an event stream, one per malloc, in malloc order.

    Paired by :func:`_pair_block_behaviors`: a reused id opens a new
    lifetime, a double free or an access after a free touches nothing, and a
    free the recorder never saw (paused, or the block outlived the run)
    leaves ``free_ns`` ``None``.
    """
    malloc_events = np.flatnonzero(cols.is_malloc)
    if malloc_events.size == 0:
        return []
    events, kind, lifetime_of = _pair_block_behaviors(cols, malloc_events)
    owned = lifetime_of >= 0
    closes = owned & (kind == _FREE_CODE)
    free_ns = np.full(malloc_events.size, _NEVER_FREED, dtype=np.int64)
    free_ns[lifetime_of[closes]] = cols.timestamp_ns[events[closes]]
    access_count = np.bincount(lifetime_of[owned & ~closes],
                               minlength=malloc_events.size)

    return [
        BlockLifetime(block_id, address, size, CATEGORY_FROM_CODE[category],
                      tags[event], malloc_ns, None if freed == _NEVER_FREED else freed,
                      iteration, accesses, rank)
        for event, block_id, address, size, category, malloc_ns, freed,
        iteration, accesses, rank in zip(
            malloc_events.tolist(), cols.block_id[malloc_events].tolist(),
            cols.address[malloc_events].tolist(), cols.size[malloc_events].tolist(),
            cols.category_code[malloc_events].tolist(),
            cols.timestamp_ns[malloc_events].tolist(), free_ns.tolist(),
            cols.iteration[malloc_events].tolist(), access_count.tolist(),
            cols.device_rank[malloc_events].tolist())
    ]


class MemoryTrace:
    """All memory behaviors recorded during one profiled run.

    The stream is held once, as an :class:`EventColumns` record plus the
    ``tag``/``op`` string side-lists; ``events`` and ``lifetimes`` are views
    derived from it on first access.  None of the three may be mutated in
    place: rank views and merged traces share them.
    """

    def __init__(self, events: Optional[Sequence[MemoryEvent]] = None,
                 iteration_marks: Optional[List[IterationMark]] = None,
                 metadata: Optional[Dict[str, object]] = None,
                 end_ns: int = 0,
                 columns: Optional[EventColumns] = None,
                 event_tags: Optional[List[str]] = None,
                 event_ops: Optional[List[str]] = None):
        if columns is None:
            events = events or ()
            columns = _columns_from_events(events)
            event_tags = [event.tag for event in events]
            event_ops = [event.op for event in events]
        self._columns = columns
        self._event_tags = event_tags if event_tags is not None else [""] * len(columns)
        self._event_ops = event_ops if event_ops is not None else [""] * len(columns)
        self._events: Optional[List[MemoryEvent]] = None
        self._lifetimes: Optional[List[BlockLifetime]] = None
        self.iteration_marks: List[IterationMark] = (
            iteration_marks if iteration_marks is not None else [])
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self.end_ns = end_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MemoryTrace(num_events={len(self)}, end_ns={self.end_ns})"

    # -- the stored representation ------------------------------------------------------

    def columns(self) -> EventColumns:
        """The event stream as parallel NumPy columns."""
        return self._columns

    def event_strings(self) -> Tuple[List[str], List[str]]:
        """Copies of the per-event ``(tags, ops)`` lists."""
        return list(self._event_tags), list(self._event_ops)

    # -- derived views ------------------------------------------------------------------

    @property
    def events(self) -> List[MemoryEvent]:
        """The event stream as objects (built from the columns on first access)."""
        if self._events is None:
            cols = self._columns
            self._events = [
                MemoryEvent(event_id=eid, kind=KIND_FROM_CODE[kind], timestamp_ns=ts,
                            block_id=bid, address=addr, size=sz,
                            category=CATEGORY_FROM_CODE[cat], tag=tag,
                            iteration=it, op=op, device_rank=rank)
                for eid, kind, ts, bid, addr, sz, cat, tag, it, op, rank in zip(
                    cols.event_id.tolist(), cols.kind_code.tolist(),
                    cols.timestamp_ns.tolist(), cols.block_id.tolist(),
                    cols.address.tolist(), cols.size.tolist(),
                    cols.category_code.tolist(),
                    self._event_tags, cols.iteration.tolist(), self._event_ops,
                    cols.device_rank.tolist())
            ]
        return self._events

    @property
    def lifetimes(self) -> List[BlockLifetime]:
        """One :class:`BlockLifetime` per malloc, in malloc order (Figure 2)."""
        if self._lifetimes is None:
            self._lifetimes = lifetimes_from_columns(self._columns, self._event_tags)
        return self._lifetimes

    # -- basic accessors ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    @property
    def is_empty(self) -> bool:
        """Whether no event was recorded."""
        return len(self) == 0

    def require_events(self) -> None:
        """Raise :class:`~repro.errors.EmptyTraceError` if the trace is empty."""
        if self.is_empty:
            raise EmptyTraceError("the memory trace contains no events")

    @property
    def start_ns(self) -> int:
        """Timestamp of the first event (0 for an empty trace)."""
        if self.is_empty:
            return 0
        return int(self._columns.timestamp_ns[0])

    @property
    def duration_ns(self) -> int:
        """Span from the first event to the recorded end of the run."""
        if self.is_empty:
            return 0
        return max(self.end_ns, int(self._columns.timestamp_ns[-1])) - self.start_ns

    def block_ids(self) -> List[int]:
        """Identities of all blocks that appear in the trace (sorted)."""
        if self.is_empty:
            return []
        ids = self.columns().block_id
        # Sort and keep each id's first occurrence: what ``np.unique`` returns,
        # without the ``numpy.ma`` import it triggers.
        ids = np.sort(ids[ids > 0])
        first = np.ones(ids.size, dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        return ids[first].tolist()

    def events_in_iteration(self, iteration: int) -> List[MemoryEvent]:
        """All events attributed to one training iteration."""
        return [event for event in self.events if event.iteration == iteration]

    # -- multi-device (data-parallel) views -------------------------------------------

    def ranks(self) -> List[int]:
        """Device ranks that appear in the trace (``[0]`` for single-device)."""
        if self.is_empty:
            return []
        return np.flatnonzero(np.bincount(self.columns().device_rank)).tolist()

    def for_rank(self, rank: int) -> "MemoryTrace":
        """The single-rank slice of a (possibly merged multi-device) trace.

        Events of other ranks are dropped; iteration marks and metadata are
        shared across ranks and kept as-is.
        """
        metadata = dict(self.metadata)
        metadata["device_rank"] = int(rank)
        cols = self._columns
        mask = cols.device_rank == rank
        indices = np.nonzero(mask)[0].tolist()
        sliced = EventColumns(
            event_id=cols.event_id[mask],
            kind_code=cols.kind_code[mask],
            timestamp_ns=cols.timestamp_ns[mask],
            block_id=cols.block_id[mask],
            size=cols.size[mask],
            category_code=cols.category_code[mask],
            iteration=cols.iteration[mask],
            device_rank=cols.device_rank[mask],
            address=cols.address[mask],
        )
        return MemoryTrace(
            columns=sliced,
            event_tags=[self._event_tags[i] for i in indices],
            event_ops=[self._event_ops[i] for i in indices],
            iteration_marks=list(self.iteration_marks),
            metadata=metadata,
            end_ns=self.end_ns,
        )

    def rank_view(self, rank: int) -> "MemoryTrace":
        """This single-replica recording as ``rank`` of its replica class saw it.

        Ranks of one class emit identical streams, so the view *shares* the
        columns, strings and iteration marks; only
        ``metadata["device_rank"]`` is its own.
        """
        return MemoryTrace(
            columns=self._columns, event_tags=self._event_tags,
            event_ops=self._event_ops, iteration_marks=self.iteration_marks,
            metadata={**self.metadata, "device_rank": rank}, end_ns=self.end_ns)

    def iterations(self) -> List[int]:
        """Indices of all iterations that have a recorded mark."""
        return sorted(mark.index for mark in self.iteration_marks)

    def counts_by_kind(self) -> Dict[str, int]:
        """Number of events of each kind."""
        if self.is_empty:
            return {}
        counts = np.bincount(self.columns().kind_code)
        return {KIND_FROM_CODE[code].value: int(counts[code])
                for code in np.flatnonzero(counts).tolist()}

    def live_bytes_series(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(timestamps_ns, live_bytes)`` arrays after every malloc/free event."""
        if self.is_empty:
            return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        cols = self.columns()
        mask = cols.is_malloc | cols.is_free
        return cols.timestamp_ns[mask], np.cumsum(cols.live_deltas()[mask])

    def peak_live_bytes(self) -> int:
        """Highest number of simultaneously allocated bytes."""
        _, live = self.live_bytes_series()
        if live.size == 0:
            return 0
        return int(live.max())

    def resident_bytes_series(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(timestamps_ns, resident_bytes)`` after every residency-changing event.

        Residency-changing events are malloc/free plus the engine's
        ``swap_out``/``swap_in`` and ``recompute_drop``/``recompute``.
        Without engine traffic this is identical to
        :meth:`live_bytes_series`; with it, the series is the footprint that
        actually had to fit on the device — its maximum is the *measured*
        peak a swap plan achieved, compared against the planner's predicted
        peak by the ``repro.swap`` validation suite.
        """
        if self.is_empty:
            return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        cols = self.columns()
        mask = (cols.is_malloc | cols.is_free | cols.is_swap
                | cols.is_rematerialization)
        return cols.timestamp_ns[mask], np.cumsum(cols.resident_deltas()[mask])

    def peak_resident_bytes(self) -> int:
        """Highest number of bytes simultaneously *resident on the device*."""
        _, resident = self.resident_bytes_series()
        if resident.size == 0:
            return 0
        return int(resident.max())

    # -- invariants ------------------------------------------------------------------------

    def validate(self) -> "MemoryTrace":
        """Check the recorded stream against the allocator-level invariants.

        1. every read/write lies inside a malloc…free of its block;
        2. per rank, timestamps never decrease in event order;
        3. per rank, no two simultaneously live blocks overlap in address.

        The pairing and the first two checks are array passes; the third
        walks the malloc/free events once, keeping the live address ranges
        sorted.  Raises :class:`~repro.errors.TraceInvariantError` naming the
        first offending event; returns ``self`` so call sites can chain.
        """
        cols = self._columns
        offenders: List[Tuple[int, str]] = []

        malloc_events = np.flatnonzero(cols.is_malloc)
        events, kind, lifetime_of = _pair_block_behaviors(cols, malloc_events)
        stray = events[(lifetime_of < 0) & np.isin(kind, ACCESS_CODES)]
        if stray.size:
            event = int(stray.min())
            offenders.append((event, f"{KIND_FROM_CODE[int(cols.kind_code[event])].value} "
                                     f"of block {int(cols.block_id[event])} outside any "
                                     "malloc…free of that block"))

        by_rank = np.argsort(cols.device_rank, kind="stable")
        rank, stamp = cols.device_rank[by_rank], cols.timestamp_ns[by_rank]
        backwards = np.flatnonzero((stamp[1:] < stamp[:-1]) & (rank[1:] == rank[:-1]))
        if backwards.size:
            event = int(by_rank[backwards + 1].min())
            offenders.append((event, f"timestamp {int(cols.timestamp_ns[event])} ns is "
                                     f"earlier than the previous event of rank "
                                     f"{int(cols.device_rank[event])}"))

        overlap = self._first_address_overlap(malloc_events, events, kind, lifetime_of)
        if overlap is not None:
            offenders.append(overlap)
        if offenders:
            raise TraceInvariantError(*min(offenders))
        return self

    def _first_address_overlap(self, malloc_events, events, kind,
                               lifetime_of) -> Optional[Tuple[int, str]]:
        """The first malloc whose range intersects a live block of its rank."""
        cols = self._columns
        closing = (lifetime_of >= 0) & (kind == _FREE_CODE)
        # One row per malloc (own index >= 0) and per free that closes one (-1).
        lifecycle = np.concatenate((malloc_events, events[closing]))
        opens = np.concatenate((np.arange(malloc_events.size),
                                np.full(int(closing.sum()), -1)))
        opened_by = np.concatenate((malloc_events, malloc_events[lifetime_of[closing]]))
        order = np.argsort(lifecycle, kind="stable")
        live: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        for event, index, rank, start, size in zip(
                lifecycle[order].tolist(), opens[order].tolist(),
                cols.device_rank[opened_by[order]].tolist(),
                cols.address[opened_by[order]].tolist(),
                cols.size[opened_by[order]].tolist()):
            starts, ends, blocks = live.setdefault(rank, ([], [], []))
            position = bisect_left(starts, start)
            if index < 0:
                if position < len(starts) and starts[position] == start:
                    del starts[position], ends[position], blocks[position]
                continue
            for neighbour in (position - 1, position):
                if (0 <= neighbour < len(starts) and starts[neighbour] < start + size
                        and ends[neighbour] > start):
                    return event, (
                        f"malloc of block {int(cols.block_id[event])} at "
                        f"[0x{start:x}, 0x{start + size:x}) overlaps live block "
                        f"{blocks[neighbour]} at [0x{starts[neighbour]:x}, "
                        f"0x{ends[neighbour]:x}) on rank {rank}")
            starts.insert(position, start)
            ends.insert(position, start + size)
            blocks.insert(position, int(cols.block_id[event]))
        return None

    # -- persistence -----------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Serialize the complete trace to a JSON-friendly dictionary."""
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "metadata": self.metadata,
            "end_ns": self.end_ns,
            "events": [event.to_dict() for event in self.events],
            "lifetimes": [lifetime.to_dict() for lifetime in self.lifetimes],
            "iteration_marks": [mark.to_dict() for mark in self.iteration_marks],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "MemoryTrace":
        """Reconstruct a trace from :meth:`to_dict` output.

        The stored ``lifetimes`` are not read: they are a function of the
        events and are derived from them like any other trace's.
        """
        try:
            version = int(data.get("format_version", -1))
            if version != TRACE_FORMAT_VERSION:
                raise TraceFormatError(f"unsupported trace format version {version}")
            return MemoryTrace(
                events=[MemoryEvent.from_dict(entry) for entry in data.get("events", [])],
                iteration_marks=[IterationMark.from_dict(entry)
                                 for entry in data.get("iteration_marks", [])],
                metadata=dict(data.get("metadata", {})),
                end_ns=int(data.get("end_ns", 0)),
            )
        except (KeyError, ValueError, TypeError) as error:
            raise TraceFormatError(f"malformed trace data: {error}") from error

    def save_json(self, path: PathLike) -> Path:
        """Write the trace to a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)
        return path

    @staticmethod
    def load_json(path: PathLike) -> "MemoryTrace":
        """Load a trace previously written by :meth:`save_json`."""
        with open(Path(path), "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise TraceFormatError(f"invalid trace JSON: {error}") from error
        return MemoryTrace.from_dict(data)

    def export_events_csv(self, path: PathLike) -> Path:
        """Write the event stream to CSV (one row per behavior)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["event_id", "kind", "timestamp_ns", "block_id", "address", "size",
                  "category", "tag", "iteration", "op", "device_rank"]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            for event in self.events:
                writer.writerow(event.to_dict())
        return path

    # -- misc --------------------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """A compact dictionary summarizing the trace (used by reports and tests)."""
        return {
            "num_events": len(self),
            "num_blocks": len(self.block_ids()),
            "num_iterations": len(self.iteration_marks),
            "duration_ns": self.duration_ns,
            "peak_live_bytes": self.peak_live_bytes(),
            "counts_by_kind": self.counts_by_kind(),
        }


def merge_rank_traces(traces: Sequence[MemoryTrace]) -> MemoryTrace:
    """Merge per-rank traces of one data-parallel run into a single trace.

    Each input trace is the recording of one replica device.  The merge

    * stamps every event with its ``device_rank``;
    * offsets block ids so that rank-local identities stay unique in the
      merged stream (ATI pairing and the per-block analyses keep working on
      the merged trace without cross-rank aliasing);
    * orders events by ``(timestamp, rank)`` and renumbers ``event_id``
      contiguously so that event-order semantics (Figure 4's x-axis, the ATI
      closing-event sort) remain meaningful;
    * unions iteration marks per index (earliest start, latest end) since
      ranks enter and leave iterations at slightly different simulated times.

    A single-trace merge returns the input unchanged (rank 0 is the
    degenerate case), so single-device sessions stay byte-identical.

    The merge is fully columnar: the per-rank column stores are concatenated,
    block ids shifted and the global ``(timestamp, rank, event_id)`` order
    computed with one ``np.lexsort`` — no per-event Python objects are built,
    so merging large multi-replica symbolic traces stays array-speed.  The
    merged trace derives its lifetimes from the merged columns, i.e. in merged
    stream order.
    """
    traces = list(traces)
    if not traces:
        raise EmptyTraceError("cannot merge zero rank traces")
    if len(traces) == 1:
        return traces[0]

    per_rank_cols = [trace.columns() for trace in traces]

    # Block ids are positive; segment pseudo-ids are negative.  Offset both
    # per rank by the running maximum magnitude so identities never collide.
    shifted_block_ids: List[np.ndarray] = []
    block_offset = 0
    for cols in per_rank_cols:
        block_id = cols.block_id
        shifted_block_ids.append(
            np.where(block_id > 0, block_id + block_offset, block_id - block_offset))
        block_offset += int(np.abs(block_id).max()) if len(cols) else 0

    timestamp_ns = np.concatenate([cols.timestamp_ns for cols in per_rank_cols])
    rank_col = np.concatenate([np.full(len(cols), rank, dtype=np.int64)
                               for rank, cols in enumerate(per_rank_cols)])
    local_event_id = np.concatenate([cols.event_id for cols in per_rank_cols])
    # Primary key last: order by timestamp, then rank, then rank-local id
    # (~0.13 ms for a 2-device resnet18 merge: not worth a composite key).
    order = np.lexsort((local_event_id, rank_col, timestamp_ns))

    def _gather(name: str) -> np.ndarray:
        return np.concatenate([getattr(cols, name) for cols in per_rank_cols])[order]

    merged_columns = EventColumns(
        event_id=np.arange(order.size, dtype=np.int64),
        kind_code=_gather("kind_code"),
        timestamp_ns=timestamp_ns[order],
        block_id=np.concatenate(shifted_block_ids)[order],
        size=_gather("size"),
        category_code=_gather("category_code"),
        iteration=_gather("iteration"),
        device_rank=rank_col[order],
        address=_gather("address"),
    )
    # Ranks of one replica class share their column record: read the string
    # side-lists once per distinct recording, not once per rank.
    strings: Dict[int, Tuple[List[str], List[str]]] = {}
    all_tags: List[str] = []
    all_ops: List[str] = []
    for trace, cols in zip(traces, per_rank_cols):
        if id(cols) not in strings:
            strings[id(cols)] = trace.event_strings()
        tags, ops = strings[id(cols)]
        all_tags.extend(tags)
        all_ops.extend(ops)
    order_list = order.tolist()
    merged_tags = [all_tags[i] for i in order_list]
    merged_ops = [all_ops[i] for i in order_list]

    marks: Dict[int, IterationMark] = {}
    for trace in traces:
        for mark in trace.iteration_marks:
            merged = marks.get(mark.index)
            if merged is None:
                marks[mark.index] = IterationMark(index=mark.index,
                                                  start_ns=mark.start_ns,
                                                  end_ns=mark.end_ns,
                                                  meta=dict(mark.meta))
            else:
                merged.start_ns = min(merged.start_ns, mark.start_ns)
                if mark.end_ns is not None:
                    merged.end_ns = (mark.end_ns if merged.end_ns is None
                                     else max(merged.end_ns, mark.end_ns))

    metadata = dict(traces[0].metadata)
    metadata["n_devices"] = len(traces)
    metadata.pop("device_rank", None)
    return MemoryTrace(
        columns=merged_columns,
        event_tags=merged_tags,
        event_ops=merged_ops,
        iteration_marks=[marks[index] for index in sorted(marks)],
        metadata=metadata,
        end_ns=max(trace.end_ns for trace in traces),
    )
