"""The swap executor: a policy's decisions overlaid on a swap-off recording.

Swap execution never changes what the workload does with memory — a swap-on
run allocates, frees, reads and writes exactly what its swap-off run does,
only later — so a swap-on run is its swap-off recording plus a decision
overlay (Capuchin's argument: record passively, then decide per block from
the access times that were measured).  :func:`overlay` walks each replica's
recorded rows once, one :class:`SwapExecutor` per replica, on a virtual
clock: a row's recorded time plus the delay accumulated so far.

* During the **warm-up iteration(s)** a walk only observes; at each replan
  one vectorised pass, :func:`learn_from_rows`, turns the rows logged since
  the previous replan (plus the state carried over, :class:`LearningCarry`)
  into the :class:`WarmupObservations` the policy plans from.  The first
  pass of a walk that has inserted no row and shifted no delay reads the
  undelayed warm-up, so it is learned once per recording and kept on its
  :class:`WalkIndex`.
* From the first post-warm-up iteration the policy's directives evict
  blocks: device→host copies reserved on the walk's own copy stream (so
  swap traffic contends), and for deadline-driven policies a host→device
  prefetch due when the measured interval predicts the next access (vDNN's
  prefetch deadline: a second clock for the copy stream).
* An access to an off-device block **stalls**: that row and every later row
  run later until the prefetch (or a demand fetch) completes.  A
  ``recompute`` directive drops the block instead, and its next access
  replays the producer's learned compute time.  With ``capacity_bytes`` the
  walk force-evicts least-recently-accessed blocks before any residency
  increase would exceed it, or raises
  :class:`~repro.errors.InfeasibleScenarioError`.

Between replans a row costs a decision only where one can fire before the
behavior lands: a read or write of a block that is off the device or that
the plan triggers on, the free of an off-device block (it gets a zero-copy
``"discard"`` restoration first), the first malloc of a block id — and, for
capacity-governed runs and pressure-relieving policies (LRU), a malloc or a
restoration that would take the resident bytes past the limit (the
capacity, and the policy's budget while it is active).  Swapping never moves
an allocation, so resident bytes are the recording's allocated bytes less
the swapped-out total: governance can bind only where the recording can
overflow.  A post-access eviction lands at the next malloc, free, read or
write row.  Replicas walk in lock-step: a gradient allreduce barrier
resolves to the latest of their delayed arrivals, because the collective
starts when the last clock arrives and no stream is ever drained.

The result is each recording re-timed, with every eviction and restoration
inserted as a ``swap_out`` / ``swap_in`` (or ``recompute_drop`` /
``recompute``) row in front of the recorded row it was made at, plus the
measured :class:`SwapExecutionSummary`.  The walk keeps that log laid out,
not built: a :class:`~repro.core.trace.Splice` of the recording, laid like
the placement's segment rows, of which it merges only the columns it reads.
It hands back a :class:`WalkClock` — where each recorded row landed and the
log's timestamps, all a row's reduction reads besides its recording — which
builds the overlaid trace only when it is read.  ``docs/swapping.md`` has
the full semantics.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.events import IterationMark, MemoryCategory, MemoryEventKind
from ..core.swap import BandwidthConfig
from ..core.trace import (CATEGORY_FROM_CODE, KIND_CODES, ROW_FIELDS, ROW_WIDTH,
                          MemoryTrace, Splice, barrier_delay, barrier_rows, iteration_rows,
                          stable_block_order)
from ..device.clock import DeviceClock
from ..device.spec import DeviceSpec
from ..device.stream import Stream
from ..device.timing import KernelTimingModel
from ..errors import InfeasibleScenarioError
from .policies import EvictDirective, MemoryPolicy, get_policy

_MALLOC = KIND_CODES[MemoryEventKind.MALLOC]
_FREE = KIND_CODES[MemoryEventKind.FREE]
_READ = KIND_CODES[MemoryEventKind.READ]
_WRITE = KIND_CODES[MemoryEventKind.WRITE]
_SWAP_OUT = KIND_CODES[MemoryEventKind.SWAP_OUT]
_SWAP_IN = KIND_CODES[MemoryEventKind.SWAP_IN]
_RECOMPUTE_DROP = KIND_CODES[MemoryEventKind.RECOMPUTE_DROP]
_RECOMPUTE = KIND_CODES[MemoryEventKind.RECOMPUTE]
#: Restorations that put no bytes on the device (kept out of the peaks).
_BOOKKEEPING_RESTORES = ("discard", "shutdown")
#: The kinds a learning pass groups by block: the four behaviors and the two
#: evictions that taint a gap.
_LEARNED_KINDS = np.zeros(len(KIND_CODES), dtype=bool)
_LEARNED_KINDS[[_MALLOC, _FREE, _READ, _WRITE, _SWAP_OUT, _RECOMPUTE_DROP]] = True
_BEHAVIOR_KINDS = np.zeros(len(KIND_CODES), dtype=bool)
_BEHAVIOR_KINDS[[_MALLOC, _FREE, _READ, _WRITE]] = True
#: Restorations that put the block back before an access.
_RESTORE_KINDS = np.zeros(len(KIND_CODES), dtype=bool)
_RESTORE_KINDS[[_SWAP_IN, _RECOMPUTE]] = True
#: How each kind moves live (allocated) and resident bytes, in block sizes.
_LIVE_SIGN = np.zeros(len(KIND_CODES), dtype=np.int64)
_LIVE_SIGN[[_MALLOC, _FREE]] = 1, -1
_RESIDENT_SIGN = np.zeros(len(KIND_CODES), dtype=np.int64)
_RESIDENT_SIGN[[_MALLOC, _SWAP_IN, _RECOMPUTE, _FREE, _SWAP_OUT, _RECOMPUTE_DROP]] = \
    1, 1, 1, -1, -1, -1
#: The log columns a learning pass reads, in :func:`learn_from_rows` order.
LEARNED_FIELDS = ("kind_code", "timestamp_ns", "block_id", "size", "category_code")


@dataclass(slots=True)
class BlockState:
    """Everything the executor knows about one device memory block."""

    block_id: int
    first_seen: int = 0                      # rank in the order the executor met blocks
    size: int = 0
    category: MemoryCategory = MemoryCategory.UNKNOWN
    tag: str = ""
    #: Latest access: kept live for the blocks the executor follows (all of
    #: them under governance, the triggered ones otherwise), as of the last
    #: learning pass for the rest.
    last_access_ns: int = 0
    iter_access_count: int = 0               # accesses this iteration (triggered blocks)
    first_access_phase_ns: int = 0           # first in-iteration access offset
    best_gap_ns: int = 0                     # largest observed idle interval
    best_gap_ordinal: int = 0                # ordinal of its opening access
    best_gap_phase_ns: int = 0               # opening access offset in its iteration
    best_gap_crosses: bool = False           # gap spans an iteration boundary
    compute_ns: Optional[int] = None         # producer kernel duration (learned)
    # while the block is off the device
    malloc_row: int = -1                     # its lifetime's malloc row (for emitted rows)
    pending_ready_ns: Optional[int] = None   # in-flight prefetch completion
    swapped_copy_bytes: int = 0              # bytes moved by the last eviction
    dropped_for_recompute: bool = False      # off-device awaiting rematerialization


@dataclass
class WarmupObservations:
    """The executor's observations handed to a policy at (re)plan time."""

    blocks: List[BlockState]
    by_id: Dict[int, BlockState]
    peak_resident_bytes: int
    peak_phase_ns: Optional[int]      # warm-up peak offset in its iteration
    iteration_duration_ns: int        # warm-up iteration length
    #: ``(phase_ns, live_bytes)`` after every warm-up malloc/free — the
    #: footprint-vs-phase profile policies evaluate predicted peaks against
    #: (a plan's binding constraint is often a *secondary* peak, e.g. the
    #: optimizer step where everything swapped is back on the device).
    live_series: List = None


#: Iterations observed before the policy activates.  One: the policy replans
#: at every later iteration start from the accumulated (swap-undistorted)
#: observations, so cross-iteration idle intervals — the paper's large
#: outliers — are picked up as soon as they close.
WARMUP_ITERATIONS = 1

#: Prefetches aim to complete this long *before* the predicted next access.
#: Zero: exactly on time (contention can still make them late).
PREFETCH_MARGIN_NS = 0

#: Computed entries of :meth:`SwapExecutionSummary.to_dict`, by the field they follow.
_DERIVED_AFTER = {
    "stall_ns_total": ("stall_ns_per_iteration",),
    "warmup_peak_bytes": ("measured_savings_bytes", "measured_savings_fraction"),
    "recompute_ns_total": ("recompute_ns_per_iteration",),
}


@dataclass
class SwapExecutionSummary:
    """Measured outcome of one executor's run (plus its policy's prediction).

    The executor counts straight into one instance of this record;
    :meth:`SwapExecutor.summary` returns a copy with the three peaks and the
    policy's prediction filled in.
    """

    policy: str
    active_iterations: int = 0
    swap_out_count: int = 0
    swap_in_count: int = 0
    prefetches_scheduled: int = 0
    prefetch_hits: int = 0
    late_prefetches: int = 0
    demand_fetches: int = 0
    discards: int = 0
    shutdown_restores: int = 0
    bytes_swapped_out: int = 0
    bytes_swapped_in: int = 0
    stall_ns_total: int = 0
    copy_busy_ns: int = 0
    peak_resident_bytes: int = 0      # over the active (swapping) iterations
    peak_live_bytes: int = 0          # allocation peak over the same iterations
    warmup_peak_bytes: int = 0        # the unswapped warm-up footprint
    recompute_drop_count: int = 0
    recompute_count: int = 0
    bytes_recompute_dropped: int = 0
    bytes_recomputed: int = 0
    recompute_ns_total: int = 0       # clock time spent replaying producers
    pressure_evictions: int = 0       # forced LRU evictions under capacity
    pressure_stall_ns: int = 0        # waits for forced copy-outs to clear
    capacity_bytes: Optional[int] = None
    predicted: Optional[Dict[str, object]] = None

    @property
    def measured_savings_bytes(self) -> int:
        """Measured peak reduction over the swapping iterations.

        Both peaks cover the *same* iterations: ``peak_live_bytes`` is what
        the footprint would have been (allocation semantics are untouched by
        swapping), ``peak_resident_bytes`` is what actually had to fit.
        """
        return max(0, self.peak_live_bytes - self.peak_resident_bytes)

    @property
    def measured_savings_fraction(self) -> float:
        """Measured peak reduction relative to the unswapped (live) peak."""
        if self.peak_live_bytes == 0:
            return 0.0
        return self.measured_savings_bytes / self.peak_live_bytes

    @property
    def stall_ns_per_iteration(self) -> float:
        """Measured stall overhead normalized per swapping iteration."""
        if self.active_iterations == 0:
            return 0.0
        return self.stall_ns_total / self.active_iterations

    @property
    def recompute_ns_per_iteration(self) -> float:
        """Measured rematerialization time normalized per swapping iteration."""
        if self.active_iterations == 0:
            return 0.0
        return self.recompute_ns_total / self.active_iterations

    def to_dict(self) -> Dict[str, object]:
        """Serialize for scenario results and reports.

        Every field in declaration order, each computed property right after
        the field :data:`_DERIVED_AFTER` names (cache entries are written
        without ``sort_keys``, so the order is part of their bytes).
        """
        out: Dict[str, object] = {}
        for spec in fields(self):
            out[spec.name] = getattr(self, spec.name)
            for derived in _DERIVED_AFTER.get(spec.name, ()):
                out[derived] = getattr(self, derived)
        return out


@dataclass(slots=True)
class IterationWindow:
    """One iteration as the executor saw it: log rows ``[begin_row, end_row)``."""

    index: int
    begin_row: int
    start_ns: int
    end_row: Optional[int] = None      # None while the iteration is open
    end_ns: int = 0


@dataclass
class IterationProfile:
    """The footprint of one learning iteration, as plans read it."""

    live_series: List          # (phase_ns, live_bytes) after every malloc/free
    peak_bytes: int            # live bytes at the start, or the highest sample
    peak_phase_ns: Optional[int]   # phase of the first highest sample (None: the start)
    duration_ns: int


#: Columns of :attr:`LearningCarry.blocks`, one row per block id.
_HAS_PREV, _PREV_NS, _PREV_ORDINAL, _PREV_ITERATION, _PREV_PHASE, _TAINTED, \
    _PENDING_WRITE = range(7)
#: A block never seen: no previous access (its iteration -1: none), untainted.
_FRESH = np.array([0, 0, 0, -1, 0, 0, 0], dtype=np.int64)


@dataclass
class LearningCarry:
    """What one learning pass hands the next, besides the block states.

    ``blocks`` is indexed by block id: the block's previous access in its
    current lifetime (whether there is one, its time, ordinal, iteration and
    phase), whether its next gap is tainted, and whether its next access may
    close its producer.
    """

    live_bytes: int
    last_event_ns: int
    blocks: np.ndarray = field(default_factory=lambda: _FRESH[None, :].copy())

    def rows(self, block_ids: np.ndarray) -> np.ndarray:
        """The carried rows of ``block_ids``, growing the table to hold them."""
        grow = int(block_ids.max()) + 1 - len(self.blocks)
        if grow > 0:
            self.blocks = np.vstack((self.blocks, np.tile(_FRESH, (grow, 1))))
        return self.blocks[block_ids]


def _running_latest(mask: np.ndarray) -> np.ndarray:
    """Position of the latest ``True`` at or before each position (-1: none)."""
    return np.maximum.accumulate(np.where(mask, np.arange(mask.size), -1))


def learn_from_rows(columns: Sequence[np.ndarray], first_row: int,
                    tags: Sequence[str], windows: Sequence[IterationWindow],
                    states: Dict[int, BlockState],
                    carry: LearningCarry) -> Optional[IterationProfile]:
    """Learn from recorded rows what the per-behavior rules would have.

    ``columns`` are the :data:`LEARNED_FIELDS` of log rows ``[first_row,
    first_row + n)`` (``tags`` is the log's tag list, indexed by row
    number); ``windows`` are
    the executor's iterations, which decide for every row whether it lies
    inside an iteration, in which one, at what phase, and in which
    access-count window (counts restart at every iteration start).  The
    states of the blocks in the rows and the ``carry`` are updated with what
    a row-by-row pass would keep per block:

    * size, category and tag are those of the block's latest malloc, and
      ``last_access_ns`` the time of its latest access;
    * a gap pairs two adjacent accesses of one lifetime (a free ends the
      pairing; a malloc does not);
    * it is learned only when its opening access lies inside an iteration
      and no ``swap_out`` / ``recompute_drop`` of the block taints it; a
      taint is consumed by the next access that has a previous access in
      its lifetime, and a free clears it;
    * the best gap is a strict-``>`` running maximum, so the earliest of
      equal gaps wins, and records its opening ordinal and phase and whether
      it crosses an iteration boundary;
    * ``first_access_phase_ns`` is the phase of the block's first access of
      its latest in-iteration count window;
    * ``compute_ns`` is measured when a lifetime's first access is a write
      that needed no restore, from the previous malloc/free/read/write row;
      the latest lifetime wins.

    Every step is a column operation over the rows grouped by block (one
    unique-key argsort); Python loops run only over the blocks whose learned
    fields change.  Returns the :class:`IterationProfile` of the last
    iteration that both began and ended inside the rows (``None``: none did).
    """
    kind, ts, bid, size, category = columns
    n_rows = kind.size
    stop = first_row + n_rows
    rows = np.arange(first_row, stop)
    # Window 0 is "before the first iteration": no row is inside it.
    begins = np.array([-1] + [w.begin_row for w in windows], dtype=np.int64)
    ends = np.array([-1] + [stop if w.end_row is None else w.end_row
                            for w in windows], dtype=np.int64)
    starts = np.array([0] + [w.start_ns for w in windows], dtype=np.int64)
    indices = np.array([-1] + [w.index for w in windows], dtype=np.int64)
    window = np.searchsorted(begins, rows, side="right") - 1
    inside = rows < ends[window]
    iteration = np.where(inside, indices[window], -1)
    phase = np.where(inside, ts - starts[window], 0)

    live = carry.live_bytes + np.cumsum(_LIVE_SIGN[kind] * size)

    profile = None
    closed = [w for w in windows if w.end_row is not None
              and first_row <= w.begin_row and w.end_row <= stop]
    if closed:
        w = closed[-1]
        begin, end = w.begin_row - first_row, w.end_row - first_row
        samples = np.flatnonzero(_LIVE_SIGN[kind[begin:end]]) + begin
        values, phases = live[samples], ts[samples] - w.start_ns
        peak = int(live[begin - 1]) if begin else carry.live_bytes
        peak_phase = None
        if values.size and values.max() > peak:
            top = int(np.argmax(values))
            peak, peak_phase = int(values[top]), int(phases[top])
        profile = IterationProfile(list(zip(phases.tolist(), values.tolist())),
                                   peak, peak_phase, w.end_ns - w.start_ns)

    picked = np.flatnonzero((bid > 0) & _LEARNED_KINDS[kind])
    behavior = picked[_BEHAVIOR_KINDS[kind[picked]]]
    if picked.size:
        _learn_blocks(picked[stable_block_order(bid[picked])], columns, first_row,
                      tags, window, iteration, phase, behavior, states, carry)
    carry.live_bytes = int(live[-1]) if n_rows else carry.live_bytes
    if behavior.size:
        carry.last_event_ns = int(ts[behavior[-1]])
    return profile


def _shifted(values: np.ndarray, fill) -> np.ndarray:
    """``values`` moved one position later, ``fill`` in front."""
    return np.concatenate(([fill], values[:-1]))


def _learn_blocks(p, columns, first_row, tags, window, iteration, phase, behavior,
                  states, carry) -> None:
    """The per-block half of :func:`learn_from_rows` over rows ``p`` (grouped
    by block, in row order within a block); ``behavior`` are the
    malloc/free/read/write rows, in row order.

    Positions index ``p``.  Blocks are contiguous there, so a difference of
    two running counts taken inside one block counts that block's rows only,
    and a running "latest position" is the block's when it is not below the
    block's head.  The gap rules then run over the accesses alone.
    """
    kind, ts, bid, size, category = columns
    b, k = bid[p], kind[p]
    n = p.size
    head = np.ones(n, dtype=bool)
    head[1:] = b[1:] != b[:-1]
    heads = np.flatnonzero(head)
    tails = np.append(heads[1:] - 1, n - 1)
    g = np.cumsum(head) - 1
    free, malloc = k == _FREE, k == _MALLOC
    taints = np.cumsum((k == _SWAP_OUT) | (k == _RECOMPUTE_DROP))
    taints_before_block = np.concatenate(([0], taints))[heads]
    last_free, last_malloc = _running_latest(free), _running_latest(malloc)
    carried = carry.rows(b[heads])
    blocks = [states[block_id] for block_id in b[heads].tolist()]

    # The accesses, each with its block (ga) and what precedes it there.
    a = np.flatnonzero((k == _READ) | (k == _WRITE))
    ga, rows = g[a], p[a]
    ta, ita, pha = ts[rows], iteration[rows], phase[rows]
    start = heads[ga]
    same = _shifted(ga, -1) == ga                 # an earlier access of the block
    frees = np.cumsum(free)[a]
    lf, lm = last_free[a], last_malloc[a]
    has_lf, has_lm = lf >= start, lm >= start
    in_rows = same & (_shifted(frees, -1) == frees)   # ... with no free between
    paired = in_rows | (~same & ~has_lf & (carried[ga, _HAS_PREV] == 1))
    fresh = ~same | (_shifted(window[rows], -1) != window[rows])
    j = np.arange(a.size)
    ordinal = j - np.maximum.accumulate(np.where(fresh, j, 0)) + 1
    prev_ns = np.where(in_rows, _shifted(ta, 0), carried[ga, _PREV_NS])
    prev_ordinal = np.where(in_rows, _shifted(ordinal, 0), carried[ga, _PREV_ORDINAL])
    prev_it = np.where(in_rows, _shifted(ita, -1), carried[ga, _PREV_ITERATION])
    prev_phase = np.where(in_rows, _shifted(pha, 0), carried[ga, _PREV_PHASE])
    # Taints since the last clearing point: the previous access when it was
    # paired, else the last free, else the start of the rows (carried in).
    prev_paired = in_rows & _shifted(paired, False)
    seen = taints[a]
    base = np.where(prev_paired, _shifted(seen, 0),
                    np.where(has_lf, taints[np.maximum(lf, 0)], taints_before_block[ga]))
    tainted = (seen > base) | (~prev_paired & ~has_lf & (carried[ga, _TAINTED] == 1))

    def last_of_block(at):
        """The indices of ``at`` (ascending access indices) last in their block."""
        return at[np.append(ga[at][1:] != ga[at][:-1], True)] if at.size else at

    learned = np.flatnonzero(paired & ~tainted & (prev_it >= 0))
    if learned.size:
        # The earliest of each block's largest gaps.
        gap, block_of = ta[learned] - prev_ns[learned], ga[learned]
        runs = np.flatnonzero(np.append(True, block_of[1:] != block_of[:-1]))
        largest = np.repeat(np.maximum.reduceat(gap, runs), np.diff(np.append(runs, gap.size)))
        best = np.flatnonzero(gap == largest)
        best = best[np.append(True, block_of[best][1:] != block_of[best][:-1])]
        top = learned[best]
        for block, gap_ns, opened, opened_phase, crossing in zip(
                block_of[best].tolist(), gap[best].tolist(), prev_ordinal[top].tolist(),
                prev_phase[top].tolist(), ((ita[top] < 0) | (prev_it[top] != ita[top])).tolist()):
            state = blocks[block]
            if gap_ns > state.best_gap_ns:
                state.best_gap_ns = gap_ns
                state.best_gap_ordinal = opened
                state.best_gap_phase_ns = opened_phase
                state.best_gap_crosses = crossing

    firsts = last_of_block(np.flatnonzero((ordinal == 1) & (ita >= 0)))
    for block, first_phase in zip(ga[firsts].tolist(), pha[firsts].tolist()):
        blocks[block].first_access_phase_ns = first_phase
    # A write opening a lifetime (the block's latest malloc/free/access before
    # it is a malloc, or none is and one is carried in) closes its producer,
    # unless it needed a restore (the row before it restored the block); the
    # producer ran since the previous behavior row.
    previous_access = np.where(same, _shifted(a, -1), -1)
    opens = np.where(has_lm, (lm > previous_access) & (lm > lf),
                     ~same & ~has_lf & (carried[ga, _PENDING_WRITE] == 1))
    written = np.flatnonzero(opens & (k[a] == _WRITE))
    before = np.maximum(rows[written] - 1, 0)
    restored = ((rows[written] > 0) & _RESTORE_KINDS[kind[before]]
                & (bid[before] == bid[rows[written]]))
    closes = last_of_block(written[~restored])
    at = np.searchsorted(behavior, rows[closes])
    since = np.where(at > 0, ts[behavior[np.maximum(at - 1, 0)]], carry.last_event_ns)
    for block, elapsed in zip(ga[closes].tolist(), (ta[closes] - since).tolist()):
        blocks[block].compute_ns = max(0, elapsed)

    # The latest malloc sets size, category and tag; the latest access its time.
    made = last_malloc[tails]
    made = p[made[made >= heads]]
    for block_id, row, nbytes, code in zip(bid[made].tolist(), made.tolist(),
                                           size[made].tolist(), category[made].tolist()):
        state = states[block_id]
        state.size, state.category = nbytes, CATEGORY_FROM_CODE[code]
        state.tag = tags[first_row + row]
    used = last_of_block(j)
    for block, now in zip(ga[used].tolist(), ta[used].tolist()):
        blocks[block].last_access_ns = now

    # What the next pass carries in: each block's state after its last row.
    out = carried.copy()
    touched = ga[used]
    out[touched, _HAS_PREV] = 1
    out[touched, _PREV_NS] = ta[used]
    out[touched, _PREV_ORDINAL] = ordinal[used]
    out[touched, _PREV_ITERATION] = ita[used]
    out[touched, _PREV_PHASE] = pha[used]
    last_access = np.full(heads.size, -1)
    last_access[touched] = a[used]
    ended = last_free[tails] > last_access            # freed after the last access
    out[ended, _HAS_PREV] = 0
    out[ended, _PREV_ITERATION] = -1
    clears = free.copy()
    clears[a[paired]] = True
    cleared = _running_latest(clears)[tails]
    out[:, _TAINTED] = np.where(cleared >= heads,
                                taints[tails] > taints[np.maximum(cleared, 0)],
                                (carried[:, _TAINTED] == 1)
                                | (taints[tails] > taints_before_block))
    latest = np.maximum(np.maximum(last_malloc[tails], last_free[tails]), last_access)
    known = latest >= heads
    out[known, _PENDING_WRITE] = malloc[latest[known]]
    carry.blocks[b[heads]] = out


#: The :class:`BlockState` fields a learning pass writes.
_LEARNED_STATE = ("size", "category", "tag", "last_access_ns", "first_access_phase_ns",
                  "best_gap_ns", "best_gap_ordinal", "best_gap_phase_ns",
                  "best_gap_crosses", "compute_ns")


@dataclass
class _WarmupPass:
    """What the first learning pass over ``stop`` undisturbed rows learned:
    each block's :data:`_LEARNED_STATE`, in first-seen order, the carry and
    the profile."""

    stop: int
    states: List[tuple]
    live_bytes: int
    last_event_ns: int
    carried: np.ndarray
    profile: Optional[IterationProfile]


class WalkIndex:
    """What every walk over one recording reads, derived once.

    Per row, lists for the two columns every row reads and compact arrays for
    those a decision reads; the tags and ops; each iteration's rows, the
    gradient barriers and the allocated bytes after each row.  ``warmup`` is
    the first learning pass of a walk that reached it undisturbed — no row
    inserted, no delay — which every such walk learns alike.  A
    :class:`~repro.train.session.Recording` holds one per replica class, so
    the rows overlaid on it share them.
    """

    def __init__(self, trace: MemoryTrace):
        columns = self.columns = trace.columns()
        self.kind, self.bid = columns.kind_code.tolist(), columns.block_id.tolist()
        self.ts, self.address, self.size, self.category, self.iteration = (
            array("q", getattr(columns, name).tobytes()) for name in
            ("timestamp_ns", "address", "size", "category_code", "iteration"))
        self.tags, self.ops = trace.event_tags, trace.event_ops
        self.mark_rows = iteration_rows(columns.iteration, trace.iteration_marks)
        self.barriers = barrier_rows(trace)
        #: Allocated bytes after each recorded row (after none: 0).
        self.allocated = array("q", np.concatenate(
            ([0], np.cumsum(_LIVE_SIGN[columns.kind_code] * columns.size))).tobytes())
        self.warmup: Optional[_WarmupPass] = None


class WalkClock:
    """A finished walk over one replica's recording, as a swap row is
    measured off it: where each recorded row landed in the overlaid log
    (``rows``), the log's clock (``timestamp_ns``, one per log row;
    ``event_id`` is the row number), the re-timed iteration marks and end.

    Swapping moves no allocation and the inserted rows are neither accesses
    nor live-bytes changes, so everything else a row reports is the
    recording's own.  The overlaid trace is built from the walk's
    :class:`~repro.core.trace.Splice` only when read (:attr:`trace`), once.
    """

    def __init__(self, splice: Splice, iteration_marks: List[IterationMark], end_ns: int):
        self.rows = splice.rows
        self.timestamp_ns = splice.column("timestamp_ns")
        self.iteration_marks = iteration_marks
        self.end_ns = end_ns
        self._splice = splice

    def __len__(self) -> int:
        return self.timestamp_ns.size

    @property
    def event_id(self) -> np.ndarray:
        """The log's event ids: its row numbers."""
        return np.arange(len(self))

    @cached_property
    def trace(self) -> MemoryTrace:
        """The overlaid recording, built on the first read."""
        return self._splice.trace(self.iteration_marks, self.end_ns)


class SwapExecutor:
    """One replica's walk over its swap-off recording (see :func:`overlay`).

    Parameters
    ----------
    trace:
        The replica's swap-off recording (rows, iteration marks, end time).
    policy:
        An executable :class:`~repro.swap.policies.MemoryPolicy` instance or
        its registry name; an analysis-only policy is a ``ValueError``.
    spec:
        The device spec: its link bandwidths price the copies and the
        policy's Eq.-1 predictions.
    capacity_bytes:
        A hard device-memory capacity the walk governs (``None``: none).
    index:
        The recording's :class:`WalkIndex`.

    Driven like a trainer drives a recorder (:meth:`begin_iteration` /
    :meth:`end_iteration`, :meth:`leave` at a barrier, :meth:`finalize`),
    each call first walking the rows recorded before it.
    """

    def __init__(self, trace: MemoryTrace, policy: Union[str, MemoryPolicy],
                 spec: DeviceSpec, capacity_bytes: Optional[int], index: WalkIndex):
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        if not self.policy.executable:
            raise ValueError(f"policy '{self.policy.name}' is analysis-only: "
                             f"it cannot drive the swap executor")
        self.bandwidths = BandwidthConfig.from_device_spec(spec)
        self.capacity_bytes = (None if capacity_bytes is None
                               else int(capacity_bytes))
        self.counters = SwapExecutionSummary(policy=self.policy.name,
                                             capacity_bytes=self.capacity_bytes)
        self._recorded = trace
        self._index = index
        self._kind, self._bid, self._ts = index.kind, index.bid, index.ts
        self._address, self._size, self._category = index.address, index.size, index.category
        self._iteration, self._tags, self._ops = index.iteration, index.tags, index.ops
        self._mark_rows, self._barriers = index.mark_rows, index.barriers
        self._marks: List[IterationMark] = []     # the re-timed marks
        # The log (see :meth:`_laid_out`) is kept as its two differences from the
        # recording: the delay from each row on where it changes, and the
        # inserted rows.
        self._shifts: List[Tuple[int, int]] = [(0, 0)]
        self._inserted: List[tuple] = []
        self._cursor = 0          # recorded rows walked
        self._delay = 0           # how much later than recorded the walk is
        self._stamp = -1          # the iteration the walk's own rows are stamped with
        self._anchor = 0          # the recorded row they go in front of
        self._clock = DeviceClock()
        self._copies = Stream(self._clock)
        self._memcpy_ns = KernelTimingModel(spec).memcpy_duration_ns
        self._h2d_bandwidth, self._d2h_bandwidth = spec.h2d_bandwidth, spec.d2h_bandwidth
        #: Allocated blocks: block id -> the malloc row of its lifetime.
        self._live: Dict[int, int] = {}
        #: Allocated bytes after each recorded row, and the entry the walk's
        #: position reads.
        self._allocated = index.allocated
        self._after = 0
        #: Every block the walk has met, in first-seen order (the order plans
        #: and directives walk them in).
        self._states: Dict[int, BlockState] = {}
        self._off_device: Dict[int, BlockState] = {}
        self._swapped_out_bytes = 0
        self._deferred: List[EvictDirective] = []
        # Runs that rank resident blocks at allocation time follow every
        # malloc and access; the others follow the blocks off the device and
        # those the plan triggers on.
        self._governed = self.capacity_bytes is not None or self.policy.relieves_pressure
        # What the plan triggers on (set at every replan; nothing before the first).
        self._any_trigger = False
        self._triggered: frozenset = frozenset()
        self._active = False
        self._plan_frozen = False
        # Log rows: how far learning has read, where it stops, and where the
        # measured windows begin.
        self._learned_row = 0
        self._freeze_row: Optional[int] = None
        self._active_row: Optional[int] = None
        self._steady_row: Optional[int] = None
        self._windows: List[IterationWindow] = []
        self._carry = LearningCarry(live_bytes=0, last_event_ns=0)
        #: The last learning iteration's footprint (the plan's reference).
        self._profile = IterationProfile([], 0, None, 0)
        #: The peaks :meth:`finalize` read off the log.
        self._books: Optional[Tuple[int, int, int]] = None

    # -- introspection -----------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes resident at the walk's position: allocated minus swapped out."""
        return self._allocated[self._after] - self._swapped_out_bytes

    def summary(self) -> SwapExecutionSummary:
        """The measured outcome and the policy's prediction (after :meth:`finalize`)."""
        peak_resident, peak_live, warmup_peak = self._books
        return replace(self.counters, peak_resident_bytes=peak_resident,
                       peak_live_bytes=peak_live, warmup_peak_bytes=warmup_peak,
                       predicted=self.policy.predicted)

    def _laid_out(self) -> Splice:
        """The log so far, laid out: the recorded rows walked at their
        delays, each inserted row in front of the recorded row it was made at."""
        walked, inserted = self._cursor, self._inserted
        anchors, *values, tags, ops = zip(*inserted) if inserted else [()] * (ROW_WIDTH + 3)
        starts, delays = np.array(self._shifts).T
        return Splice(self._recorded, walked, np.array(anchors, dtype=np.int64),
                      dict(zip(ROW_FIELDS, np.array(values, dtype=np.int64))), tags, ops,
                      np.repeat(delays, np.diff(starts, append=walked)))

    # -- the points the trainer marks ---------------------------------------------------

    def begin_iteration(self, index: int) -> Optional[Tuple[int, int]]:
        """Iteration start: reset per-iteration ordinals, (re)plan, activate.

        Then, when the recording synchronizes, walk up to the iteration's
        gradient barrier and return the recorded arrival there (the clock of
        the row before it) and the walk's delay (``None``: no barrier).
        """
        position = len(self._marks)
        self._at(self._mark_rows[position][0],
                 self._recorded.iteration_marks[position].start_ns, index)
        self._marks.append(IterationMark(index=index, start_ns=self._clock.now_ns))
        self._flush_deferred()
        row = self._logged()
        self._windows.append(IterationWindow(index, row, self._clock.now_ns))
        # Only triggered blocks are counted (all of them when the plan
        # triggers on any block).
        states = self._states
        for state in (states.values() if self._any_trigger
                      else map(states.__getitem__, self._triggered)):
            state.iter_access_count = 0
        if index > WARMUP_ITERATIONS and self._freeze_row is None:
            # Observation stops one iteration into execution: the first
            # active iteration still closes the cross-boundary windows and
            # refreshes the live profile (with e.g. the lazily allocated
            # optimizer state included), but later samples would fold the
            # engine's own stalls back into the plan and destabilize it.
            self._freeze_row = row
        if index > WARMUP_ITERATIONS + 1 and self._steady_row is None:
            # Measured peaks restart at the first fully steady iteration:
            # iteration warmup ran unswapped, and iteration warmup+1 still
            # starts with everything resident (the first boundary-window
            # eviction pass only happens at its end), so earlier iterations
            # are not a fair comparison against the plan.
            self._steady_row = row
        if index >= WARMUP_ITERATIONS:
            if not self._plan_frozen:
                # Replans are only useful while the observations can still
                # change; the first plan after learning froze is final.
                self._learn()
                profile = self._profile
                self.policy.plan(WarmupObservations(
                    blocks=[state for state in self._states.values() if state.size > 0],
                    by_id=self._states, peak_resident_bytes=profile.peak_bytes,
                    peak_phase_ns=profile.peak_phase_ns,
                    iteration_duration_ns=profile.duration_ns,
                    live_series=profile.live_series), self.bandwidths)
                self._plan_frozen = self._freeze_row is not None
                triggered = self.policy.triggered_blocks()
                self._any_trigger = triggered is None
                self._triggered = frozenset(triggered or ())
            if not self._active:
                self._active = True
                self._active_row = row
            self.counters.active_iterations += 1
        if not self._barriers:
            return None
        row = self._barriers[position]
        self._walk(row)
        return self._ts[row - 1], self._delay

    def end_iteration(self, index: int) -> None:
        """Iteration end: flush deferred evictions, apply boundary directives."""
        position = len(self._marks) - 1
        self._at(self._mark_rows[position][1],
                 self._recorded.iteration_marks[position].end_ns, index)
        self._flush_deferred()
        window = self._windows[-1]
        window.end_row, window.end_ns = self._logged(), self._clock.now_ns
        if self._active:
            resident = list(self._resident_states())
            for directive in self.policy.directives_at_iteration_end(resident):
                self._evict(directive)
        self._marks[-1].end_ns = self._clock.now_ns

    def leave(self, delay: int) -> None:
        """Leave the barrier with ``delay``: rows from here on run that much
        later than recorded."""
        self._shift(self._cursor, delay)

    def finalize(self) -> WalkClock:
        """Walk the rest of the recording, balance the books and return the
        finished walk's :class:`WalkClock`.

        Every block still swapped out gets a zero-copy ``"shutdown"``
        ``swap_in``, so the trace's residency series always sums back to the
        allocation series and peak accounting can never be skewed by
        unmatched evictions at the tail of the run.  The peaks are then read
        off the log once: the summary serves them from here on.
        """
        self._at(len(self._kind), self._recorded.end_ns, -1)
        self._flush_deferred()
        for state in sorted(self._off_device.values(), key=attrgetter("first_seen")):
            self._put_back(state)
            self.counters.shutdown_restores += 1
            self._emit_restore(state, "shutdown")
        splice = self._laid_out()
        self._books = self._read_peaks(splice)
        return WalkClock(splice, self._marks, self._recorded.end_ns + self._delay)

    def _read_peaks(self, splice: Splice) -> Tuple[int, int, int]:
        """``(resident, live, warm-up)`` peaks, read off the log's kinds and sizes.

        Resident bytes are the running sum of the rows' residency deltas,
        sampled after every malloc and every restoration that put bytes on the
        device (``discard`` / ``shutdown`` restorations are bookkeeping and
        stay out); live bytes are sampled after every malloc.  Every
        restoration is one of the walk's own rows: a swap-off recording has none.
        """
        self._learn()
        warmup_peak = self._profile.peak_bytes
        kind, size = splice.column("kind_code"), splice.column("size")
        malloc = kind == _MALLOC
        sampled = malloc.copy()
        sampled[[row for row, code, op in zip(splice.own.tolist(),
                                              splice.inserted["kind_code"].tolist(),
                                              splice.inserted_ops)
                 if _RESTORE_KINDS[code] and op not in _BOOKKEEPING_RESTORES]] = True
        resident = np.cumsum(_RESIDENT_SIGN[kind] * size)
        live = np.cumsum(_LIVE_SIGN[kind] * size)

        def peak(series, mask, first=0):
            """The highest sample from row ``first`` on, or the value before it."""
            base = int(series[first - 1]) if first else 0
            values = series[first:][mask[first:]]
            return max(base, int(values.max())) if values.size else base

        if self._active:
            first = (self._steady_row if self._steady_row is not None
                     else self._active_row)
            peak_live = peak(live, malloc, first)
            peak_resident = peak(resident, sampled, first)
        else:
            peak_live = peak_resident = warmup_peak
        if self.capacity_bytes is not None:
            # Under capacity governance the invariant spans the whole run
            # (warm-up included), so the honest measured peak is the overall
            # resident maximum — which the governor kept at or below capacity.
            peak_resident = peak(resident, sampled)
        return peak_resident, peak_live, warmup_peak

    # -- the walk -----------------------------------------------------------------------

    def _at(self, row: int, recorded_ns: int, stamp: int) -> None:
        """Walk to recorded row ``row``, at recorded time ``recorded_ns``,
        stamping the walk's own rows with iteration ``stamp``."""
        self._walk(row)
        self._clock.advance_to(recorded_ns + self._delay)
        self._stamp = stamp
        self._anchor = self._after = row

    def _logged(self) -> int:
        """Rows in the log at a point between two recorded rows."""
        return self._cursor + len(self._inserted)

    def _shift(self, row: int, delay: int) -> None:
        """Recorded rows from ``row`` on run ``delay`` later than recorded."""
        if delay != self._delay:
            self._shifts.append((row, delay))
            self._delay = delay

    def _enter(self, row: int) -> None:
        """Start acting on recorded row ``row``: the clock stands at the
        row's time, and the walk's own rows go in front of it."""
        self._clock.advance_to(self._ts[row] + self._delay)
        self._stamp = self._iteration[row]
        self._anchor = row
        self._after = row + 1   # the allocator has already counted the row

    def _leave(self, row: int) -> None:
        """Done acting on recorded row ``row``: it and the rows after it
        run as late as the clock now is."""
        self._shift(row, self._clock._now_ns - self._ts[row])

    def _walk(self, stop: int) -> None:
        """Walk recorded rows ``[cursor, stop)``: the malloc/free/read/write
        hooks of a live engine, acting only where a decision can fire."""
        kinds, block_ids, stamps = self._kind, self._bid, self._ts
        live, states, off, triggered = self._live, self._states, self._off_device, self._triggered
        deferred, governed, any_trigger = self._deferred, self._governed, self._any_trigger
        allocated, sizes = self._allocated, self._size
        categories, tags, limit = self._category, self._tags, self._limit()
        for row in range(self._cursor, stop):
            kind = kinds[row]
            if kind == _MALLOC:
                block_id = block_ids[row]
                state = states.get(block_id)
                if state is None:
                    state = states[block_id] = BlockState(block_id, len(states))
                if governed:
                    state.size, state.category, state.tag = (
                        sizes[row], CATEGORY_FROM_CODE[categories[row]], tags[row])
                # Residency can pass the limit only where the recording's
                # allocated bytes, plus the block, do.
                if deferred or (governed and allocated[row] - self._swapped_out_bytes
                                + sizes[row] > limit):
                    self._enter(row)
                    self._flush_deferred()
                    if governed:
                        # Room is made before the allocation lands — an
                        # allocator under pressure frees space first — so the
                        # overshoot never shows up in the resident peak (the
                        # swap_out rows also precede the malloc row).
                        self._after = row
                        self._relieve(state)
                    self._leave(row)
                # Allocated once room is made: no decision before it can
                # touch the block (a deferred eviction of its id was moot at
                # the free that preceded this malloc).
                live[block_id] = row
            elif kind == _FREE:
                block_id = block_ids[row]
                del live[block_id]
                if deferred or block_id in off:
                    self._enter(row)
                    self._flush_deferred()
                    if block_id in off:
                        # Freed while off-device: nothing comes back over the
                        # link (or gets recomputed), but the residency books
                        # must balance before the free row lands.
                        state = off[block_id]
                        self._put_back(state)
                        self.counters.discards += 1
                        self._emit_restore(state, "discard")
            elif kind == _READ or kind == _WRITE:
                block_id = block_ids[row]
                if deferred or any_trigger or block_id in triggered or block_id in off:
                    self._enter(row)
                    self._flush_deferred()
                    if any_trigger or block_id in triggered or block_id in off:
                        self._on_access(block_id)
                        self._leave(row)
                        continue
                if governed:
                    # Not acted on: only its last access is noted.
                    states[block_id].last_access_ns = stamps[row] + self._delay
        self._cursor = stop

    def _emit(self, kind_code: int, state: BlockState, op: str) -> None:
        """Log one of the walk's own rows for ``state``'s current lifetime,
        in :data:`ROW_FIELDS` order after its anchor, then tag and op."""
        row = state.malloc_row
        self._inserted.append((self._anchor, kind_code, self._clock._now_ns,
                               state.block_id, self._address[row], self._size[row],
                               self._category[row], self._stamp, self._tags[row], op))

    # -- core mechanics ----------------------------------------------------------------

    def _lifetime(self, row: int) -> Tuple[int, MemoryCategory, str]:
        """Size, category and tag of the lifetime malloc'ed at ``row``."""
        return self._size[row], CATEGORY_FROM_CODE[self._category[row]], self._tags[row]

    def _on_access(self, block_id: int) -> None:
        state = self._off_device.get(block_id)
        if state is not None:
            if state.dropped_for_recompute:
                self._rematerialize(state)
            else:
                self._ensure_resident(state)
        else:
            state = self._states[block_id]
        state.last_access_ns = self._clock._now_ns
        if self._any_trigger or block_id in self._triggered:
            state.iter_access_count += 1
            directive = self.policy.directive_after_access(state)
            if directive is not None:
                self._deferred.append(directive)

    def _resident_states(self):
        """Allocated, on-device blocks in first-seen order (a lazy generator:
        nothing is built until a policy walks it).

        Governed runs keep every state current at its malloc; the others
        take each block's size, category and tag from its malloc row.
        """
        states, off, live = self._states, self._off_device, self._live
        resident = [states[block_id] for block_id in live if block_id not in off]
        resident.sort(key=attrgetter("first_seen"))
        if not self._governed:
            for state in resident:
                state.size, state.category, state.tag = self._lifetime(live[state.block_id])
        yield from resident

    def _limit(self) -> float:
        """The resident bytes a residency increase may reach with no decision:
        the capacity and, while a pressure-relieving policy is active, its
        budget."""
        limit = math.inf if self.capacity_bytes is None else self.capacity_bytes
        if self._active and self.policy.relieves_pressure:
            limit = min(limit, self.policy.pressure_budget_bytes)
        return limit

    def _relieve(self, state: BlockState) -> None:
        """Make room for ``state``'s bytes: the policy's pressure directives
        (when active and over its budget), then the capacity invariant."""
        if self._active and self.policy.relieves_pressure:
            incoming = self.resident_bytes + state.size
            if incoming > self.policy.pressure_budget_bytes:
                for directive in self.policy.directives_on_pressure(
                        self._resident_states(), incoming, state):
                    self._evict(directive)
        self._enforce_capacity(state.size)

    def _ensure_resident(self, state: BlockState) -> None:
        """Restore a swapped-out block before the access that needs it."""
        now = self._clock.now_ns
        nbytes = state.swapped_copy_bytes or state.size
        if state.pending_ready_ns is not None:
            ready = state.pending_ready_ns
            op = "prefetch"
        else:
            duration = self._memcpy_ns(nbytes, self._h2d_bandwidth)
            _, ready = self._copies.reserve(now, duration)
            self.counters.copy_busy_ns += duration
            op = "demand"
            self.counters.demand_fetches += 1
        stall = max(0, ready - now)
        if stall > 0:
            self._clock.advance(stall)
            self.counters.stall_ns_total += stall
            if op == "prefetch":
                self.counters.late_prefetches += 1
        elif op == "prefetch":
            self.counters.prefetch_hits += 1
        # A restoration raises residency just like an allocation does, so
        # budget policies (LRU) get the same pressure hook — and like the
        # malloc path it runs *before* the block is back, so a demand-fetch
        # burst (the optimizer step pulling every buffer back) neither blows
        # through the budget nor leaks overshoot into the measured resident
        # peak (the relieving swap_outs also precede the swap_in row).
        self._relieve(state)
        self._put_back(state)
        self.counters.bytes_swapped_in += nbytes
        self._emit_restore(state, op)

    def _rematerialize(self, state: BlockState) -> None:
        """Replay a dropped block's producer before the access that needs it.

        No bytes cross the link: the walk spends the recorded producer
        duration (a synchronous replay — the access cannot proceed without
        the data), so the delay grows by exactly that cost, and the block is
        resident again.  First-order model: the producer's own inputs are
        assumed reachable (checkpointing always keeps enough upstream state
        for a single replay).
        """
        cost = int(state.compute_ns or 0)
        if cost > 0:
            self._clock.advance(cost)
            self.counters.recompute_ns_total += cost
        self._relieve(state)
        self._put_back(state)
        self.counters.bytes_recomputed += state.size
        self._emit_restore(state, "demand")

    def _put_back(self, state: BlockState) -> None:
        """The residency books of a block coming back on the device."""
        del self._off_device[state.block_id]
        self._swapped_out_bytes -= state.size
        state.pending_ready_ns = None

    def _emit_restore(self, state: BlockState, op: str) -> None:
        """Count and log a restoration: a ``recompute`` for a dropped block,
        a ``swap_in`` otherwise."""
        if state.dropped_for_recompute:
            state.dropped_for_recompute = False
            self.counters.recompute_count += 1
            self._emit(_RECOMPUTE, state, op)
        else:
            self.counters.swap_in_count += 1
            self._emit(_SWAP_IN, state, op)

    def _evict(self, directive: EvictDirective):
        """Execute one eviction directive (no-op if the block moved on).

        Returns when the device→host copy of a swap eviction ends (so
        capacity governance can stall until the bytes actually left),
        ``None`` for recompute drops and no-ops.
        """
        block_id = directive.block_id
        row = self._live.get(block_id)
        if row is None or block_id in self._off_device:
            return None
        state = self._states[block_id]
        # The block is allocated, so its size, category and tag are current.
        state.malloc_row = row
        state.size, state.category, state.tag = self._lifetime(row)
        self._off_device[block_id] = state
        self._swapped_out_bytes += state.size
        if directive.recompute:
            # Rematerialization drop: the bytes simply vanish — no transfer,
            # no prefetch; the block's next access replays its producer.
            state.dropped_for_recompute = True
            state.pending_ready_ns = None
            self.counters.recompute_drop_count += 1
            self.counters.bytes_recompute_dropped += state.size
            self._emit(_RECOMPUTE_DROP, state, self.policy.name)
            return None
        now = self._clock.now_ns
        copy_bytes = (directive.copy_bytes if directive.copy_bytes is not None
                      else state.size)
        duration = self._memcpy_ns(copy_bytes, self._d2h_bandwidth)
        _, out_end = self._copies.reserve(now, duration)
        self.counters.copy_busy_ns += duration
        state.swapped_copy_bytes = copy_bytes
        self.counters.swap_out_count += 1
        self.counters.bytes_swapped_out += copy_bytes
        if directive.prefetch_gap_ns is not None:
            deadline = (state.last_access_ns + int(directive.prefetch_gap_ns)
                        - PREFETCH_MARGIN_NS)
            # The copy-back can start no earlier than its own eviction copy
            # finished (the host does not have the bytes before that).
            duration = self._memcpy_ns(copy_bytes, self._h2d_bandwidth)
            _, state.pending_ready_ns = self._copies.reserve_before(
                deadline, duration, earliest_start_ns=max(now, out_end))
            self.counters.copy_busy_ns += duration
            self.counters.prefetches_scheduled += 1
        self._emit(_SWAP_OUT, state, self.policy.name)
        return out_end

    def _enforce_capacity(self, incoming: int) -> None:
        """Make room for ``incoming`` bytes under the capacity invariant.

        Force-evicts resident blocks in least-recently-accessed order (the
        incoming block is never a candidate) until
        ``resident + incoming <= capacity``, then stalls until the relieving
        copy-outs complete — memory is not reusable before the bytes have
        left.  Raises :class:`~repro.errors.InfeasibleScenarioError` up-front
        when even evicting every resident block cannot make room.
        """
        capacity = self.capacity_bytes
        if capacity is None:
            return
        resident = self.resident_bytes
        excess = resident + incoming - capacity
        if excess <= 0:
            return
        candidates = list(self._resident_states())
        evictable = sum(state.size for state in candidates)
        if excess > evictable:
            raise InfeasibleScenarioError(
                requested=incoming, resident=resident,
                evictable=evictable, capacity=capacity)
        candidates.sort(key=lambda state: state.last_access_ns)
        now = self._clock.now_ns
        wait_until = now
        for state in candidates:
            if excess <= 0:
                break
            out_end = self._evict(EvictDirective(block_id=state.block_id))
            if state.block_id not in self._off_device:
                continue
            self.counters.pressure_evictions += 1
            excess -= state.size
            if out_end is not None and out_end > wait_until:
                wait_until = out_end
        stall = wait_until - now
        if stall > 0:
            self._clock.advance(stall)
            self.counters.stall_ns_total += stall
            self.counters.pressure_stall_ns += stall

    def _flush_deferred(self) -> None:
        """Run the post-access evictions queued by an earlier row."""
        if not self._deferred:
            return
        pending = self._deferred[:]
        self._deferred.clear()
        for directive in pending:
            self._evict(directive)

    # -- reading the log ---------------------------------------------------------------

    def _learn(self) -> None:
        """Run :func:`learn_from_rows` over the learning rows not read yet
        (those before the freeze)."""
        stop = self._freeze_row if self._freeze_row is not None else self._logged()
        if stop <= self._learned_row:
            return
        if self._learned_row == 0 and not self._inserted and len(self._shifts) == 1:
            profile = self._learn_warmup(stop)
        else:
            splice = self._laid_out()
            profile = learn_from_rows(
                [splice.column(name)[self._learned_row:stop] for name in LEARNED_FIELDS],
                self._learned_row, splice.tags(), self._windows, self._states, self._carry)
        self._learned_row = stop
        if profile is not None:
            self._profile = profile

    def _learn_warmup(self, stop: int) -> Optional[IterationProfile]:
        """The first learning pass of an undisturbed walk, whose log is the
        recording's first ``stop`` rows: taken from the recording's
        :class:`WalkIndex` when a walk there learned it, else learned off
        the recorded columns and kept there."""
        index, states, carry = self._index, self._states, self._carry
        memo = index.warmup
        if memo is not None and memo.stop == stop:
            for state, values in zip(states.values(), memo.states):
                for name, value in zip(_LEARNED_STATE, values):
                    setattr(state, name, value)
            carry.live_bytes, carry.last_event_ns = memo.live_bytes, memo.last_event_ns
            carry.blocks = memo.carried.copy()
            return memo.profile
        profile = learn_from_rows(
            [getattr(index.columns, name)[:stop] for name in LEARNED_FIELDS], 0,
            index.tags, self._windows, states, carry)
        if memo is None:
            index.warmup = _WarmupPass(
                stop, [tuple(getattr(state, name) for name in _LEARNED_STATE)
                       for state in states.values()],
                carry.live_bytes, carry.last_event_ns, carry.blocks.copy(), profile)
        return profile


def overlay(traces: Sequence[MemoryTrace], policies: Sequence[Union[str, MemoryPolicy]],
            spec: DeviceSpec, capacity_bytes: Optional[int] = None,
            indexes: Optional[List[WalkIndex]] = None
            ) -> Tuple[List[WalkClock], List[SwapExecutionSummary]]:
    """Execute a swap policy on the swap-off recordings of a run's replicas.

    ``traces`` are the replicas' recordings (one per materialised replica,
    sharing their iteration indices) and ``policies`` one policy per
    replica.  Several replicas advance in lock-step: each iteration's
    gradient barrier (:func:`~repro.core.trace.barrier_rows`) resolves to
    the latest of their delayed arrivals, measured from the latest recorded
    one (:func:`~repro.core.trace.barrier_delay`, as the placement's).
    ``indexes`` is where the recordings keep their :class:`WalkIndex` (one
    per trace, made here when it is empty; ``None``: made for this call
    only).  Returns every replica's :class:`WalkClock` — its overlaid
    trace is built only when read — and its :class:`SwapExecutionSummary`;
    an infeasible capacity raises :class:`~repro.errors.InfeasibleScenarioError`.
    """
    if indexes is None:
        indexes = []
    if not indexes:
        indexes.extend(WalkIndex(trace) for trace in traces)
    executors = [SwapExecutor(trace, policy, spec, capacity_bytes, index)
                 for trace, policy, index in zip(traces, policies, indexes)]
    for mark in traces[0].iteration_marks:
        arrivals = [executor.begin_iteration(mark.index) for executor in executors]
        if len(executors) > 1:
            delay = barrier_delay(arrivals)
            for executor in executors:
                executor.leave(delay)
        for executor in executors:
            executor.end_iteration(mark.index)
    return ([executor.finalize() for executor in executors],
            [executor.summary() for executor in executors])
