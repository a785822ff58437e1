"""The swap executor: runs eviction/prefetch decisions inside the simulation.

:class:`SwapExecutor` is a :class:`~repro.device.hooks.MemoryEventListener`
attached to a device *ahead of* the trace recorder, which gives it a
closed loop around the training run:

* during the **warm-up iteration(s)** it only observes: per-block sizes,
  categories, access ordinals and the largest idle gap between adjacent
  accesses (the block's access-time interval), plus the unswapped peak
  footprint and the moment it occurs;
* from the first post-warm-up iteration its
  :class:`~repro.swap.policies.MemoryPolicy` turns those observations
  into eviction directives.  Evictions are scheduled as device→host copies on
  the device's dedicated copy stream (so concurrent swap traffic serializes —
  DMA contention is modelled, not assumed away) and, for deadline-driven
  policies, a host→device prefetch is reserved to complete right when the
  measured interval predicts the next access;
* on an access to a non-resident block the executor *stalls the device
  clock* until the in-flight prefetch (or a freshly issued demand fetch)
  completes.  Stalls therefore lengthen the recorded iterations exactly the
  way a synchronous ``cudaMemcpy`` wait would.

Every eviction/restoration is emitted through the device's listener fan-out
as a first-class ``swap_out``/``swap_in`` event, so the recorded trace
carries the *measured* story: :meth:`~repro.core.trace.MemoryTrace.\
peak_resident_bytes` vs :meth:`~repro.core.trace.MemoryTrace.peak_live_bytes`
is the achieved peak reduction, and the summed stalls are the achieved
overhead — both directly comparable with the policy's *predicted* summary.

What it reads and what it hooks
-------------------------------
The executor does not shadow the recorder.  It is handed its device's
:class:`~repro.core.recorder.TraceRecorder` and *reads* that recorder's
event log:

* **at each replan** (``begin_iteration`` while learning is on) one
  vectorised pass, :func:`learn_from_rows`, turns the rows recorded since
  the previous replan — plus the per-block state carried over from the
  previous pass (:class:`LearningCarry`) — into the
  :class:`WarmupObservations` the policy plans from;
* **at** :meth:`SwapExecutor.finalize` it reads the live and resident
  peaks, over the whole run and over the active and steady windows.

Nothing else reads the log: the boundary directives at an iteration end walk
the allocated, on-device blocks (the allocator's live map) in the order the
executor first met them.

Its four behavior hooks act only where a decision can fire *before* the
behavior lands: ``on_read`` / ``on_write`` for a block that is off the
device or that the plan triggers on
(:meth:`~repro.swap.policies.MemoryPolicy.triggered_blocks`), ``on_free``
for a block freed while off the device, and ``on_malloc`` to note a block
it has not met.  Under capacity governance, or for a policy that relieves
pressure itself (LRU), ``on_malloc`` also makes room before the allocation
lands and every access records its block's last access time, because those
runs rank resident blocks by it when pressure strikes.  A deferred eviction
lands at the very next behavior of any block.  Resident bytes at a decision
are the allocator's allocated bytes minus a running swapped-out total.

Gap learning is iteration-phase aware: only gaps whose opening access
happened inside a training iteration are learned (model-construction
accesses never produce triggers), gaps stay within one lifetime, gaps
distorted by the block's own swap traffic are discarded, and each gap
remembers its within-iteration phase and whether it crosses an iteration
boundary — boundary gaps are executed at ``end_iteration`` (where no further
same-iteration access can misfire) while within-iteration gaps trigger on
the opening access's ordinal.

Ordering guarantees (they keep the trace's residency accounting exact):

* the stall and the ``swap_in`` event precede the access event that needed
  the block;
* a block freed while swapped out receives a zero-copy ``"discard"``
  ``swap_in`` immediately before its ``free`` event, so every eviction is
  balanced;
* post-access evictions are deferred to the next listener callback, so the
  ``swap_out`` lands *after* the triggering access in the event stream.

Two further mechanisms ride on the same machinery:

* **rematerialization** — a directive flagged ``recompute`` drops the block
  with no transfer at all (``recompute_drop`` event) and the next access
  replays the block's recorded producer compute time on the device's compute
  stream (``recompute`` event) instead of fetching bytes over the link.  The
  producer cost is learned during warm-up: a block's first write after its
  malloc closes its producing kernel, so the elapsed time since the previous
  malloc/free/read/write row *is* that kernel's duration;
* **capacity governance** — when the executor is constructed with
  ``capacity_bytes``, every residency increase first force-evicts
  least-recently-accessed blocks until the incoming bytes fit, stalling the
  device until the relieving copy-out completes.  The invariant is enforced
  from the first event (warm-up included), so the measured resident peak can
  never exceed the configured device memory; when even evicting everything
  cannot make room, a structured
  :class:`~repro.errors.InfeasibleScenarioError` is raised instead of a raw
  allocator OOM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
import weakref
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.events import MemoryCategory, MemoryEventKind
from ..core.recorder import TraceRecorder
from ..core.swap import BandwidthConfig
from ..core.trace import CATEGORY_FROM_CODE, KIND_CODES, stable_block_order
from ..device.hooks import MemoryEventListener
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
    block: object = None                     # the live Block (for event emission)
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
    # A block allocated before the executor was attached has no state: its
    # rows are learned into one that is dropped.
    blocks = [states.get(block_id) or BlockState(block_id)
              for block_id in b[heads].tolist()]

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
        state = states.get(block_id)
        if state is not None:
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


class SwapExecutor(MemoryEventListener):
    """Execute a swap policy against a live simulated device.

    Parameters
    ----------
    device:
        The simulated device; the executor uses its clock, allocator, DMA
        engine (and therefore its dedicated copy stream), timing model and
        listener fan-out.
    policy:
        An executable :class:`~repro.swap.policies.MemoryPolicy` instance or
        its registry name (``planner``, ``swap_advisor``, ``zero_offload``,
        ``lru``, ``unified``); an analysis-only policy is a ``ValueError``.
    recorder:
        The device's :class:`~repro.core.recorder.TraceRecorder`, whose log
        the executor learns from.  It must record every behavior from the
        executor's construction on, attached to the device *after* the
        executor (so it logs each behavior once the executor has acted on it).
    bandwidths:
        Eq.-1 bandwidths for the policy's predictions; defaults to the
        device spec's (the transfers themselves always use the spec).
    capacity_bytes:
        When set, the executor governs a hard device-memory capacity: any
        residency increase that would exceed it first force-evicts
        least-recently-accessed blocks (with the stall of waiting for the
        copy-out), and :class:`~repro.errors.InfeasibleScenarioError` is
        raised when even full eviction cannot make room.
    """

    def __init__(self, device, policy: Union[str, MemoryPolicy],
                 recorder: TraceRecorder,
                 bandwidths: Optional[BandwidthConfig] = None,
                 capacity_bytes: Optional[int] = None):
        self.device = device
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        if not self.policy.executable:
            raise ValueError(f"policy '{self.policy.name}' is analysis-only: "
                             f"it cannot drive the swap executor")
        self.bandwidths = (bandwidths if bandwidths is not None
                           else BandwidthConfig.from_device_spec(device.spec))
        self.capacity_bytes = (None if capacity_bytes is None
                               else int(capacity_bytes))
        self.counters = SwapExecutionSummary(policy=self.policy.name,
                                             capacity_bytes=self.capacity_bytes)
        # Read, not owned: the executor sits in the device's reference cycle,
        # and a session's log must go when its recorder does, not at the next
        # cyclic collection.
        self._recorder = weakref.ref(recorder)
        self._clock = device.clock
        self._live = device.allocator._live_blocks
        #: Every block allocated since the executor was attached, in
        #: first-seen order (the order plans and directives walk them in).
        self._states: Dict[int, BlockState] = {}
        self._off_device: Dict[int, BlockState] = {}
        self._swapped_out_bytes = 0
        self._deferred: List[EvictDirective] = []
        # Runs that rank resident blocks at allocation time follow every
        # malloc and access; the others follow the blocks in ``_acting``:
        # those off the device and those the plan triggers on.
        self._relieves_pressure = (type(self.policy).directives_on_pressure
                                   is not MemoryPolicy.directives_on_pressure)
        self._governed = self.capacity_bytes is not None or self._relieves_pressure
        # What the plan triggers on (set at every replan; nothing before the first).
        self._any_trigger = False
        self._triggered: frozenset = frozenset()
        self._acting: set = set()
        self._incoming: Optional[int] = None   # a block being allocated ...
        self._incoming_bytes = 0               # ... which the allocator already counts
        self._active = False
        self._plan_frozen = False
        # Log rows: where this executor's rows start, how far learning has
        # read, where learning stops, and where the measured windows begin.
        self._start_row = len(recorder.log)
        self._learned_row = self._start_row
        self._freeze_row: Optional[int] = None
        self._active_row: Optional[int] = None
        self._steady_row: Optional[int] = None
        self._windows: List[IterationWindow] = []
        self._carry = LearningCarry(live_bytes=0, last_event_ns=self._clock.now_ns)
        #: The last learning iteration's footprint (the plan's reference).
        self._profile = IterationProfile([], 0, None, 0)
        #: The peaks :meth:`finalize` read off the log (``None`` before).
        self._books: Optional[Tuple[int, int, int]] = None

    # -- introspection -----------------------------------------------------------------

    @property
    def recorder(self) -> TraceRecorder:
        """The recorder whose log the executor reads."""
        return self._recorder()

    @property
    def swapped_out_bytes(self) -> int:
        """Bytes of allocated blocks currently evicted to the host."""
        return self._swapped_out_bytes

    @property
    def resident_bytes(self) -> int:
        """Bytes currently resident on the device (allocated minus swapped out)."""
        return self.device.allocator.allocated_bytes - self._swapped_out_bytes

    def observations(self) -> WarmupObservations:
        """Current (swap-undistorted) per-block observations for planning."""
        self._learn()
        profile = self._profile
        blocks = [state for state in self._states.values() if state.size > 0]
        return WarmupObservations(blocks=blocks, by_id=self._states,
                                  peak_resident_bytes=profile.peak_bytes,
                                  peak_phase_ns=profile.peak_phase_ns,
                                  iteration_duration_ns=profile.duration_ns,
                                  live_series=profile.live_series)

    def summary(self) -> SwapExecutionSummary:
        """The measured outcome so far (plus the policy's prediction)."""
        peak_resident, peak_live, warmup_peak = self._books or self._read_peaks()
        return replace(self.counters, peak_resident_bytes=peak_resident,
                       peak_live_bytes=peak_live, warmup_peak_bytes=warmup_peak,
                       predicted=self.policy.predicted)

    def _read_peaks(self) -> Tuple[int, int, int]:
        """``(resident, live, warm-up)`` peaks, read off the log.

        Resident bytes are the running sum of the rows' residency deltas,
        sampled after every malloc and every restoration that put bytes on the
        device (``discard`` / ``shutdown`` restorations are bookkeeping and
        stay out); live bytes are sampled after every malloc.
        """
        self._learn()
        warmup_peak = self._profile.peak_bytes
        log = self.recorder.log
        kind, size = log.columns_between(self._start_row, len(log), ("kind_code", "size"))
        malloc = kind == _MALLOC
        sampled = malloc.copy()
        sampled[[row for row in np.flatnonzero(_RESTORE_KINDS[kind]).tolist()
                 if log.op[self._start_row + row] not in _BOOKKEEPING_RESTORES]] = True
        resident = np.cumsum(_RESIDENT_SIGN[kind] * size)
        live = np.cumsum(_LIVE_SIGN[kind] * size)

        def peak(series, mask, first=0):
            """The highest sample from row ``first`` on, or the value before it."""
            base = int(series[first - 1]) if first else 0
            values = series[first:][mask[first:]]
            return max(base, int(values.max())) if values.size else base

        if self._active:
            first = (self._steady_row if self._steady_row is not None
                     else self._active_row) - self._start_row
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

    # -- iteration hooks (duck-typed like a recorder) ---------------------------------

    def begin_iteration(self, index: int) -> None:
        """Iteration start: reset per-iteration ordinals, (re)plan, activate."""
        self._flush_deferred()
        row = len(self.recorder.log)
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
                self.policy.plan(self.observations(), self.bandwidths)
                self._plan_frozen = self._freeze_row is not None
                triggered = self.policy.triggered_blocks()
                self._any_trigger = triggered is None
                self._triggered = frozenset(triggered or ())
                self._acting = set(self._triggered) | set(self._off_device)
            if not self._active:
                self._active = True
                self._active_row = row
            self.counters.active_iterations += 1

    def end_iteration(self, index: int) -> None:
        """Iteration end: flush deferred evictions, apply boundary directives."""
        self._flush_deferred()
        window = self._windows[-1]
        window.end_row, window.end_ns = len(self.recorder.log), self._clock.now_ns
        if self._active:
            resident = list(self._resident_states())
            for directive in self.policy.directives_at_iteration_end(resident):
                self._evict(directive)

    def finalize(self) -> None:
        """Balance the books at the end of the run.

        Every block still swapped out gets a zero-copy ``"shutdown"``
        ``swap_in``, so the trace's residency series always sums back to the
        allocation series and peak accounting can never be skewed by
        unmatched evictions at the tail of the run.  The peaks are then read
        off the log once, while the recorder is still there: the summary
        serves them from here on.
        """
        self._flush_deferred()
        for state in sorted(self._off_device.values(), key=attrgetter("first_seen")):
            self._put_back(state)
            self.counters.shutdown_restores += 1
            self._emit_restore(state, 0, "shutdown")
        self._books = self._read_peaks()

    # -- listener hooks ----------------------------------------------------------------

    def on_malloc(self, block, requested_size: int) -> None:
        if self._deferred:
            self._flush_deferred()
        if self._governed:
            self._govern_malloc(block)
        elif block.block_id not in self._states:
            self._states[block.block_id] = BlockState(block.block_id, len(self._states))

    def on_free(self, block) -> None:
        if self._deferred:
            self._flush_deferred()
        if block.block_id in self._off_device:
            # Freed while off-device: nothing comes back over the link (or
            # gets recomputed), but the residency books must balance before
            # the free event lands.
            state = self._off_device[block.block_id]
            self._put_back(state)
            self.counters.discards += 1
            self._emit_restore(state, 0, "discard")

    def on_read(self, block, nbytes: int, op: str) -> None:
        if self._deferred:
            self._flush_deferred()
        if self._any_trigger or block.block_id in self._acting:
            self._on_access(block)
        elif self._governed:
            state = self._states.get(block.block_id)
            if state is not None:
                state.last_access_ns = self._clock._now_ns

    #: A write is followed exactly like a read.
    on_write = on_read

    # -- core mechanics ----------------------------------------------------------------

    def _govern_malloc(self, block) -> None:
        """Track the block and make room for it *before* the allocation lands
        — an allocator under pressure frees space first — so the overshoot
        never shows up in the resident peak (the swap_out events also precede
        the malloc event in the trace)."""
        state = self._states.get(block.block_id)
        if state is None:
            state = self._states[block.block_id] = BlockState(block.block_id,
                                                              len(self._states))
        state.size, state.category, state.tag = block.size, block.category, block.tag
        self._incoming, self._incoming_bytes = block.block_id, block.size
        self._relieve(state)
        self._incoming, self._incoming_bytes = None, 0

    def _on_access(self, block) -> None:
        state = self._off_device.get(block.block_id)
        if state is not None:
            if state.dropped_for_recompute:
                self._rematerialize(state)
            else:
                self._ensure_resident(state)
        else:
            state = self._states.get(block.block_id)
            if state is None:   # allocated before the executor was attached
                return
        state.last_access_ns = self._clock._now_ns
        if self._any_trigger or block.block_id in self._triggered:
            state.iter_access_count += 1
            directive = self.policy.directive_after_access(state)
            if directive is not None:
                self._deferred.append(directive)

    def _resident_states(self):
        """Allocated, on-device blocks in first-seen order (a lazy generator:
        nothing is built until a policy walks it).

        Governed runs keep every state current in their malloc hook; the
        others take each block's size, category and tag from the allocated
        block itself.
        """
        states, off, incoming = self._states, self._off_device, self._incoming
        resident = [states[block_id] for block_id in self._live
                    if block_id not in off and block_id != incoming and block_id in states]
        resident.sort(key=attrgetter("first_seen"))
        if not self._governed:
            for state in resident:
                block = self._live[state.block_id]
                state.size, state.category, state.tag = block.size, block.category, block.tag
        yield from resident

    def _resident_bytes_before(self) -> int:
        """Resident bytes, not counting a block being allocated."""
        return self.resident_bytes - self._incoming_bytes

    def _relieve(self, state: BlockState) -> None:
        """Make room for ``state``'s bytes: the policy's pressure directives
        (when active), then the capacity invariant."""
        if self._active and self._relieves_pressure:
            for directive in self.policy.directives_on_pressure(
                    self._resident_states(), self._resident_bytes_before() + state.size,
                    state):
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
            record = self.device.dma.async_host_to_device_at(
                nbytes, now, tag=f"swap_in:{state.tag}")
            self.counters.copy_busy_ns += record.duration_ns
            ready = record.end_ns
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
        # peak (the relieving swap_outs also precede the swap_in event).
        self._relieve(state)
        self._put_back(state)
        self.counters.bytes_swapped_in += nbytes
        self._emit_restore(state, nbytes, op)

    def _rematerialize(self, state: BlockState) -> None:
        """Replay a dropped block's producer before the access that needs it.

        No bytes cross the link: the device spends the recorded producer
        duration on its compute stream (a synchronous replay — the access
        cannot proceed without the data), the clock advances by exactly that
        cost, and the block is resident again.  First-order model: the
        producer's own inputs are assumed reachable (checkpointing always
        keeps enough upstream state for a single replay).
        """
        cost = int(state.compute_ns or 0)
        if cost > 0:
            stream, clock = self.device.compute_stream, self._clock
            stream.busy_until_ns = max(stream.busy_until_ns, clock.now_ns) + cost
            clock.advance(cost)
            self.counters.recompute_ns_total += cost
        self._relieve(state)
        self._put_back(state)
        self.counters.bytes_recomputed += state.size
        self._emit_restore(state, state.size, "demand")

    def _put_back(self, state: BlockState) -> None:
        """The residency books of a block coming back on the device."""
        del self._off_device[state.block_id]
        if state.block_id not in self._triggered:
            self._acting.discard(state.block_id)
        self._swapped_out_bytes -= state.size
        state.pending_ready_ns = None

    def _emit_restore(self, state: BlockState, nbytes: int, op: str) -> None:
        """Count and emit a restoration: a ``recompute`` for a dropped block,
        a ``swap_in`` otherwise."""
        if state.dropped_for_recompute:
            state.dropped_for_recompute = False
            self.counters.recompute_count += 1
            self.device.listeners.on_recompute(state.block, nbytes, op)
        else:
            self.counters.swap_in_count += 1
            self.device.listeners.on_swap_in(state.block, nbytes, op)

    def _evict(self, directive: EvictDirective):
        """Execute one eviction directive (no-op if the block moved on).

        Returns the device→host copy record for swap evictions (so capacity
        governance can stall until the bytes actually left), ``None`` for
        recompute drops and no-ops.
        """
        block_id = directive.block_id
        state = self._states.get(block_id)
        block = self._live.get(block_id)
        if (state is None or block is None or block_id in self._off_device
                or block_id == self._incoming):
            return None
        # The block is allocated, so its size, category and tag are current.
        state.block = block
        state.size, state.category, state.tag = block.size, block.category, block.tag
        self._off_device[block_id] = state
        self._acting.add(block_id)
        self._swapped_out_bytes += state.size
        if directive.recompute:
            # Rematerialization drop: the bytes simply vanish — no transfer,
            # no prefetch; the block's next access replays its producer.
            state.dropped_for_recompute = True
            state.pending_ready_ns = None
            self.counters.recompute_drop_count += 1
            self.counters.bytes_recompute_dropped += state.size
            self.device.listeners.on_recompute_drop(block, state.size,
                                                    self.policy.name)
            return None
        now = self._clock.now_ns
        copy_bytes = (directive.copy_bytes if directive.copy_bytes is not None
                      else state.size)
        out = self.device.dma.async_device_to_host_at(
            copy_bytes, now, tag=f"swap_out:{state.tag}")
        self.counters.copy_busy_ns += out.duration_ns
        state.swapped_copy_bytes = copy_bytes
        self.counters.swap_out_count += 1
        self.counters.bytes_swapped_out += copy_bytes
        if directive.prefetch_gap_ns is not None:
            deadline = (state.last_access_ns + int(directive.prefetch_gap_ns)
                        - PREFETCH_MARGIN_NS)
            # The copy-back can start no earlier than its own eviction copy
            # finished (the host does not have the bytes before that).
            back = self.device.dma.async_host_to_device_by(
                copy_bytes, deadline, earliest_start_ns=max(now, out.end_ns),
                tag=f"swap_prefetch:{state.tag}")
            self.counters.copy_busy_ns += back.duration_ns
            state.pending_ready_ns = back.end_ns
            self.counters.prefetches_scheduled += 1
        self.device.listeners.on_swap_out(block, copy_bytes, self.policy.name)
        return out

    def _enforce_capacity(self, incoming: int) -> None:
        """Make room for ``incoming`` bytes under the capacity invariant.

        Force-evicts resident blocks in least-recently-accessed order (the
        incoming block is never a candidate) until
        ``resident + incoming <= capacity``, then stalls the device until the
        relieving copy-outs complete — memory is not reusable before the
        bytes have left.  Raises
        :class:`~repro.errors.InfeasibleScenarioError` up-front when even
        evicting every resident block cannot make room.
        """
        capacity = self.capacity_bytes
        if capacity is None:
            return
        resident = self._resident_bytes_before()
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
            out = self._evict(EvictDirective(block_id=state.block_id))
            if state.block_id not in self._off_device:
                continue
            self.counters.pressure_evictions += 1
            excess -= state.size
            if out is not None and out.end_ns > wait_until:
                wait_until = out.end_ns
        stall = wait_until - now
        if stall > 0:
            self._clock.advance(stall)
            self.counters.stall_ns_total += stall
            self.counters.pressure_stall_ns += stall

    def _flush_deferred(self) -> None:
        """Run post-access evictions queued by the previous event."""
        if not self._deferred:
            return
        pending, self._deferred = self._deferred, []
        for directive in pending:
            self._evict(directive)

    # -- reading the log ---------------------------------------------------------------

    def _learn(self) -> None:
        """Run :func:`learn_from_rows` over the learning rows not read yet
        (those before the freeze)."""
        log = self.recorder.log
        stop = self._freeze_row if self._freeze_row is not None else len(log)
        if stop <= self._learned_row:
            return
        profile = learn_from_rows(
            log.columns_between(self._learned_row, stop, LEARNED_FIELDS),
            self._learned_row, log.tag, self._windows, self._states,
            self._carry)
        self._learned_row = stop
        if profile is not None:
            self._profile = profile
