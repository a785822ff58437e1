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

Gap learning is iteration-phase aware: only gaps whose opening access
happened inside a training iteration are learned (model-construction
accesses never produce triggers), gaps distorted by the block's own swap
traffic are discarded, and each gap remembers its within-iteration phase and
whether it crosses an iteration boundary — boundary gaps are executed at
``end_iteration`` (where no further same-iteration access can misfire) while
within-iteration gaps trigger on the opening access's ordinal.

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
  listener event *is* that kernel's duration;
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

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Union

from ..core.events import MemoryCategory
from ..core.swap import BandwidthConfig
from ..device.hooks import MemoryEventListener
from ..errors import InfeasibleScenarioError
from .policies import EvictDirective, MemoryPolicy, get_policy


@dataclass(slots=True)
class BlockState:
    """Everything the executor knows about one device memory block."""

    block_id: int
    size: int = 0
    category: MemoryCategory = MemoryCategory.UNKNOWN
    tag: str = ""
    block: object = None            # the live Block (for event emission)
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


class SwapExecutor(MemoryEventListener):
    """Execute a swap policy against a live simulated device.

    Parameters
    ----------
    device:
        The simulated device; the executor uses its clock, DMA engine (and
        therefore its dedicated copy stream), timing model and listener
        fan-out.
    policy:
        An executable :class:`~repro.swap.policies.MemoryPolicy` instance or
        its registry name (``planner``, ``swap_advisor``, ``zero_offload``,
        ``lru``, ``unified``); an analysis-only policy is a ``ValueError``.
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
        self._states: Dict[int, BlockState] = {}
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
                self.device.listeners.on_recompute(state.block, 0, "shutdown")
            else:
                self.counters.swap_in_count += 1
                self.device.listeners.on_swap_in(state.block, 0, "shutdown")

    # -- listener hooks ----------------------------------------------------------------

    def on_malloc(self, block, requested_size: int) -> None:
        self._flush_deferred()
        state = self._states.get(block.block_id)
        if state is None:
            state = BlockState(block_id=block.block_id)
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
                self.device.listeners.on_recompute(state.block, 0, "discard")
            else:
                self.counters.swap_in_count += 1
                self.device.listeners.on_swap_in(state.block, 0, "discard")
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
            state = BlockState(block_id=block.block_id, size=block.size,
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

    def _ensure_resident(self, state: BlockState) -> None:
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
            record = self.device.dma.async_host_to_device_at(
                nbytes, now, tag=f"swap_in:{state.tag}")
            self.counters.copy_busy_ns += record.duration_ns
            ready = record.end_ns
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
        self.device.listeners.on_swap_in(state.block, nbytes, op)

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
            stream, clock = self.device.compute_stream, self.device.clock
            stream.busy_until_ns = max(stream.busy_until_ns, clock.now_ns) + cost
            clock.advance(cost)
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
        self.device.listeners.on_recompute(state.block, state.size, "demand")

    def _evict(self, directive: EvictDirective):
        """Execute one eviction directive (no-op if the block moved on).

        Returns the device→host copy record for swap evictions (so capacity
        governance can stall until the bytes actually left), ``None`` for
        recompute drops and no-ops.
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
            self.device.listeners.on_recompute_drop(state.block, state.size,
                                                    self.policy.name)
            return None
        now = self.device.clock.now_ns
        copy_bytes = (directive.copy_bytes if directive.copy_bytes is not None
                      else state.size)
        out = self.device.dma.async_device_to_host_at(
            copy_bytes, now, tag=f"swap_out:{state.tag}")
        self.counters.copy_busy_ns += out.duration_ns
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
            back = self.device.dma.async_host_to_device_by(
                copy_bytes, deadline, earliest_start_ns=max(now, out.end_ns),
                tag=f"swap_prefetch:{state.tag}")
            self.counters.copy_busy_ns += back.duration_ns
            state.pending_ready_ns = back.end_ns
            self.counters.prefetches_scheduled += 1
        self.device.listeners.on_swap_out(state.block, copy_bytes,
                                          self.policy.name)
        return out

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
            out = self._evict(EvictDirective(block_id=state.block_id))
            if state.resident:
                continue
            self.counters.pressure_evictions += 1
            excess -= state.size
            if out is not None and out.end_ns > wait_until:
                wait_until = out.end_ns
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
