"""Execution policies for the closed-loop swap engine.

A :class:`SwapExecutionPolicy` turns the executor's observations into
eviction/prefetch *directives*.  The executor owns all mechanism — residency
accounting, copy-stream scheduling, stall insertion, trace events — while the
policy owns strategy: *which* blocks leave the device, *when*, and whether a
prefetch is scheduled against a deadline or the block is left to a demand
fetch.

The plan-driven policies (``planner``, ``swap_advisor``) reuse the analytic
machinery of :mod:`repro.core.swap` and :mod:`repro.baselines.swapping` for
their selection, so their *predicted* numbers and the engine's *measured*
numbers come from the same cost model — the predicted-vs-simulated
regression in the test suite pins that agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.ati import AccessInterval
from ..core.events import MemoryCategory, MemoryEventKind
from ..core.swap import BandwidthConfig, SwapCandidate, SwapPlanner, swap_round_trip_ns
from ..units import MIB

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .executor import BlockState, WarmupObservations


@dataclass(frozen=True)
class EvictDirective:
    """One eviction decision handed from a policy to the executor.

    Attributes
    ----------
    block_id:
        The block to evict.
    prefetch_gap_ns:
        When set, the executor schedules a host→device prefetch aiming to
        complete ``prefetch_gap_ns`` after the block's last access (the
        measured access-time interval).  When ``None`` the block is restored
        by a demand fetch — a full synchronous stall — on its next access.
    copy_bytes:
        Bytes actually transferred per direction (defaults to the block
        size).  ZeRO-style partitioning moves only ``size / world_size`` per
        rank while the whole block still leaves the device footprint.
    recompute:
        When set the block is *dropped* rather than swapped: no transfer in
        either direction, and the next access replays the block's recorded
        producer compute time instead of fetching bytes (``prefetch_gap_ns``
        and ``copy_bytes`` are ignored).
    """

    block_id: int
    prefetch_gap_ns: Optional[int] = None
    copy_bytes: Optional[int] = None
    recompute: bool = False


class SwapExecutionPolicy:
    """Base class: never evicts anything."""

    #: Registry name (subclasses override).
    name: str = "base"

    def __init__(self) -> None:
        #: The policy's predicted effect (a plan/estimator summary), filled by
        #: :meth:`plan`; ``None`` for purely reactive policies such as LRU.
        self.predicted: Optional[Dict[str, object]] = None

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        """Digest the warm-up observations into triggers (called every replan)."""

    def directive_after_access(self, state: "BlockState") -> Optional[EvictDirective]:
        """Eviction decision right after an access to ``state`` completed."""
        return None

    def directives_at_iteration_end(
            self, resident: Iterable["BlockState"]) -> List[EvictDirective]:
        """Evictions to perform at an iteration boundary."""
        return []

    def directives_on_pressure(self, resident: Iterable["BlockState"],
                               resident_bytes: int,
                               just_allocated: "BlockState") -> List[EvictDirective]:
        """Evictions to relieve memory pressure right after an allocation."""
        return []


def _covers_peak(state: "BlockState", peak_phase_ns: Optional[int],
                 iteration_duration_ns: int) -> bool:
    """Whether a block's best idle window covers the warm-up peak instant.

    Phases are within-iteration offsets, so the comparison is invariant to
    which iteration the gap was observed in.  A boundary-crossing window
    covers the tail of its iteration plus (when long enough) the head of the
    next one.
    """
    if peak_phase_ns is None:
        return False
    # Safety margin at the closing edge: a window that closes at (or only a
    # hair before) the peak instant has its block back on the device by then
    # — the swap-in precedes the closing access — so it cannot lower the
    # peak.  Phases from different iterations carry small shape differences
    # (the warm-up iteration lacks e.g. zero-grad writes), so marginal
    # windows are rejected rather than credited with phantom savings.
    margin = iteration_duration_ns // 50
    start = state.best_gap_phase_ns
    end = start + state.best_gap_ns
    if not state.best_gap_crosses:
        return start <= peak_phase_ns < end - margin
    if peak_phase_ns >= start:
        return True
    return (iteration_duration_ns > 0
            and peak_phase_ns < end - iteration_duration_ns - margin)


def _predict_peak_after(windows: List[Tuple[int, int, int]],
                        warmup: "WarmupObservations") -> int:
    """Predicted peak footprint given per-block absence windows.

    ``windows`` are ``(start_phase, end_phase, size)`` with phases measured
    from the iteration start (``end_phase`` may exceed the iteration length
    for boundary-crossing windows).  The prediction replays the warm-up
    live-bytes profile and subtracts every window that covers each sampled
    instant — so a *secondary* peak (e.g. the optimizer step, where every
    swapped block is back on the device) correctly bounds the achievable
    savings instead of the naive Σ-of-sizes estimate.
    """
    series = warmup.live_series or []
    duration = warmup.iteration_duration_ns
    if not series or duration <= 0:
        total = sum(size for _, _, size in windows)
        return max(0, warmup.peak_resident_bytes - total)
    margin = duration // 50
    worst = 0
    for phase, live in series:
        absent = 0
        for start, end, size in windows:
            if (start <= phase < end - margin) or (phase < end - duration - margin):
                absent += size
        if live - absent > worst:
            worst = live - absent
    return worst


@dataclass(frozen=True)
class _Trigger:
    """How one selected block's eviction is fired during execution."""

    gap_ns: int
    ordinal: int          # opening-access ordinal (within-iteration windows)
    at_iteration_end: bool
    recompute: bool = False   # drop for rematerialization instead of swapping


def _build_triggers(chosen: Iterable["BlockState"],
                    recompute_ids: frozenset = frozenset()) -> Dict[int, _Trigger]:
    """Map selected blocks to their eviction triggers.

    Within-iteration windows fire right after the opening access (matched by
    its per-iteration ordinal); boundary-crossing windows fire at
    ``end_iteration``, where no further same-iteration access can misfire.
    Blocks listed in ``recompute_ids`` are dropped for rematerialization
    rather than swapped.
    """
    return {state.block_id: _Trigger(gap_ns=int(state.best_gap_ns),
                                     ordinal=state.best_gap_ordinal,
                                     at_iteration_end=state.best_gap_crosses,
                                     recompute=state.block_id in recompute_ids)
            for state in chosen}


def _directive_for_trigger(trigger: _Trigger, block_id: int) -> EvictDirective:
    """The eviction directive a trigger fires: recompute drop or swap."""
    if trigger.recompute:
        return EvictDirective(block_id=block_id, recompute=True)
    return EvictDirective(block_id=block_id, prefetch_gap_ns=trigger.gap_ns)


class _TriggerPlanPolicy(SwapExecutionPolicy):
    """A policy whose :meth:`plan` selects blocks and fires them by trigger."""

    def __init__(self) -> None:
        super().__init__()
        self._triggers: Dict[int, _Trigger] = {}

    def directive_after_access(self, state: "BlockState") -> Optional[EvictDirective]:
        """Ordinal-triggered eviction with a prefetch against the learned gap."""
        trigger = self._triggers.get(state.block_id)
        if (trigger is None or trigger.at_iteration_end
                or state.iter_access_count != trigger.ordinal):
            return None
        return _directive_for_trigger(trigger, state.block_id)

    def directives_at_iteration_end(
            self, resident: Iterable["BlockState"]) -> List[EvictDirective]:
        """Boundary-window evictions: fire once the iteration's accesses are done."""
        directives = []
        for state in resident:
            trigger = self._triggers.get(state.block_id)
            if trigger is None or not trigger.at_iteration_end:
                continue
            directives.append(_directive_for_trigger(trigger, state.block_id))
        return directives


def _absence_windows(states: Iterable["BlockState"]) -> List[Tuple[int, int, int]]:
    """Each block's best idle window as :func:`_predict_peak_after` takes it."""
    return [(state.best_gap_phase_ns,
             state.best_gap_phase_ns + state.best_gap_ns, state.size)
            for state in states]


def _within_stream_budget(candidates: Iterable[SwapCandidate],
                          budget_ns: float) -> Tuple[List[SwapCandidate], float]:
    """The candidates whose round trips fit the copy stream, and their total.

    Eq. 1 is a per-candidate bound; the copy engine is one in-order stream,
    so the *aggregate* round-trip traffic per iteration must also fit or
    prefetches queue behind each other and miss their deadlines.  Candidates
    are accepted in the order given (best savings first) until the
    stream-utilization budget is spent.
    """
    kept: List[SwapCandidate] = []
    spent = 0.0
    for candidate in candidates:
        if spent + candidate.round_trip_ns > budget_ns:
            continue
        spent += candidate.round_trip_ns
        kept.append(candidate)
    return kept, spent


def _interval_from_observation(state: "BlockState") -> AccessInterval:
    """Adapt a warm-up observation to the planner's candidate record.

    Only the fields the cost model reads (size, interval, identity, category,
    tag) are meaningful; the event bookkeeping fields are synthesized.
    """
    return AccessInterval(
        block_id=state.block_id,
        size=state.size,
        category=state.category,
        tag=state.tag,
        interval_ns=int(state.best_gap_ns),
        start_event_id=-1,
        end_event_id=-1,
        start_kind=MemoryEventKind.READ,
        end_kind=MemoryEventKind.READ,
        iteration=0,
    )


class PlannerExecutionPolicy(_TriggerPlanPolicy):
    """Execute the Eq.-1 swap planner's selection (the paper's cost model).

    The warm-up intervals are fed through the *same*
    :class:`~repro.core.swap.SwapPlanner` as the offline analysis; each
    selected candidate becomes a trigger (evict after the opening access,
    prefetch back against the measured interval).
    """

    name = "planner"

    def __init__(self, min_candidate_bytes: int = 32 * MIB,
                 allow_overhead_ns: float = 0.0,
                 copy_utilization_cap: float = 0.8):
        super().__init__()
        self.min_candidate_bytes = int(min_candidate_bytes)
        self.allow_overhead_ns = float(allow_overhead_ns)
        self.copy_utilization_cap = float(copy_utilization_cap)

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        planner = SwapPlanner(bandwidths=bandwidths,
                              min_candidate_bytes=self.min_candidate_bytes,
                              allow_overhead_ns=self.allow_overhead_ns)
        # Only windows that cover the peak instant can reduce the peak; the
        # filter keeps the plan's predicted savings honest (Σ selected sizes
        # all absent at the peak) instead of summing irrelevant idle time.
        observed = [state for state in warmup.blocks
                    if state.best_gap_ns > 0
                    and _covers_peak(state, warmup.peak_phase_ns,
                                     warmup.iteration_duration_ns)]
        plan = planner.plan_from_intervals(
            [_interval_from_observation(state) for state in observed],
            peak_before=warmup.peak_resident_bytes)
        kept, spent = _within_stream_budget(
            plan.selected, self.copy_utilization_cap * warmup.iteration_duration_ns)
        kept_states = [warmup.by_id[candidate.interval.block_id]
                       for candidate in kept]
        self._triggers = _build_triggers(kept_states)
        peak_after = _predict_peak_after(_absence_windows(kept_states), warmup)
        savings = max(0, plan.peak_bytes_before - peak_after)
        self.predicted = {
            "num_candidates": len(plan.candidates),
            "num_selected": len(kept),
            "peak_bytes_before": plan.peak_bytes_before,
            "peak_bytes_after": peak_after,
            "savings_bytes": savings,
            "savings_fraction": (savings / plan.peak_bytes_before
                                 if plan.peak_bytes_before else 0.0),
            "total_overhead_ns": sum(candidate.overhead_ns for candidate in kept),
            "copy_round_trip_ns": spent,
        }


class UnifiedExecutionPolicy(_TriggerPlanPolicy):
    """Capuchin-style unified eviction: keep, swap or recompute per block.

    Every peak-covering idle window is a candidate.  Per candidate the policy
    compares the Eq.-1 transfer round trip against the block's recorded
    producer compute time (learned during warm-up from the malloc→first-write
    span) and picks the cheaper mechanism:

    * **recompute** when the block is a rematerializable activation and the
      replay cost is at or below the *effective* swap cost — the plain round
      trip when the copy stream can absorb the transfer, unbounded when the
      stream budget is spent or the window cannot hide the transfer (Eq.-1
      infeasible);
    * **swap** otherwise, while the aggregate round-trip traffic fits the
      copy-stream utilization budget;
    * **keep** when neither mechanism applies.

    By construction the covered set is a superset of both single-mechanism
    plans on the same profile — everything the pure-swap planner would move
    is covered (by replay when that is cheaper, by transfer otherwise, using
    the planner's own budget accounting), and every rematerializable
    candidate is covered — so the predicted (and measured) savings dominate
    ``max(pure_swap, pure_recompute)``.

    With ``capacity_bytes`` set, blocks the budget would keep are force-added
    to the swap set (accepting their stall overhead) until the predicted peak
    fits the capacity; whatever still does not fit is left to the executor's
    runtime pressure governor.
    """

    name = "unified"

    #: Only forward activations are rematerializable by producer replay —
    #: gradients would need the backward graph re-run, and parameters /
    #: optimizer state have no producer to replay at all.
    RECOMPUTABLE_CATEGORIES = (MemoryCategory.ACTIVATION,)

    def __init__(self, min_candidate_bytes: int = 32 * MIB,
                 allow_overhead_ns: float = 0.0,
                 copy_utilization_cap: float = 0.8,
                 enable_swap: bool = True,
                 enable_recompute: bool = True,
                 capacity_bytes: Optional[int] = None):
        super().__init__()
        self.min_candidate_bytes = int(min_candidate_bytes)
        self.allow_overhead_ns = float(allow_overhead_ns)
        self.copy_utilization_cap = float(copy_utilization_cap)
        self.enable_swap = bool(enable_swap)
        self.enable_recompute = bool(enable_recompute)
        self.capacity_bytes = (None if capacity_bytes is None
                               else int(capacity_bytes))

    def _recompute_cost_ns(self, state: "BlockState") -> Optional[int]:
        """The modeled replay cost, or ``None`` when not rematerializable.

        Boundary-crossing windows are excluded: a block dropped at the end of
        one iteration would have to be recomputed in the next, where its
        producer's inputs are gone.
        """
        if (state.category in self.RECOMPUTABLE_CATEGORIES
                and not state.best_gap_crosses
                and state.compute_ns is not None and state.compute_ns > 0):
            return int(state.compute_ns)
        return None

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        planner = SwapPlanner(bandwidths=bandwidths,
                              min_candidate_bytes=self.min_candidate_bytes,
                              allow_overhead_ns=self.allow_overhead_ns)
        observed = [state for state in warmup.blocks
                    if state.best_gap_ns > 0
                    and state.size >= self.min_candidate_bytes
                    and _covers_peak(state, warmup.peak_phase_ns,
                                     warmup.iteration_duration_ns)]
        plan = planner.plan_from_intervals(
            [_interval_from_observation(state) for state in observed],
            peak_before=warmup.peak_resident_bytes)
        budget_ns = self.copy_utilization_cap * warmup.iteration_duration_ns

        # The pure-swap twin's own selection under the same stream budget:
        # anything it would move, the unified plan also covers — by replay
        # when that is cheaper, by transfer otherwise — which is what makes
        # the unified savings dominate both single-mechanism plans.
        planner_kept_ids = {
            candidate.interval.block_id
            for candidate in _within_stream_budget(plan.selected, budget_ns)[0]}

        decisions: List[Dict[str, object]] = []
        swap_states: List["BlockState"] = []
        recompute_states: List["BlockState"] = []
        kept_states: List["BlockState"] = []
        spent = 0.0
        feasible_ids = set()

        def decide(state, swap_cost, swap_fits):
            recompute_cost = (self._recompute_cost_ns(state)
                              if self.enable_recompute else None)
            # A candidate the copy stream cannot absorb (or whose window
            # cannot hide the transfer) has unbounded effective swap cost —
            # its prefetch would cascade deadline misses — so replay wins
            # whenever it is available there.
            effective_swap = swap_cost if swap_fits else math.inf
            if recompute_cost is not None and recompute_cost <= effective_swap:
                recompute_states.append(state)
                mechanism = "recompute"
            elif swap_fits:
                swap_states.append(state)
                mechanism = "swap"
            else:
                kept_states.append(state)
                mechanism = "keep"
            decisions.append({
                "block_id": state.block_id,
                "size": state.size,
                "tag": state.tag,
                "mechanism": mechanism,
                "swap_cost_ns": swap_cost,
                "effective_swap_cost_ns": effective_swap,
                "recompute_cost_ns": recompute_cost,
            })
            return mechanism

        for candidate in plan.selected:
            feasible_ids.add(candidate.interval.block_id)
            state = warmup.by_id[candidate.interval.block_id]
            swap_cost = float(candidate.round_trip_ns)
            in_planner = candidate.interval.block_id in planner_kept_ids
            swap_fits = (self.enable_swap
                         and (in_planner or spent + swap_cost <= budget_ns))
            if decide(state, swap_cost, swap_fits) == "swap":
                spent += swap_cost
        # Eq.-1-infeasible windows (the gap cannot hide the transfer) can
        # still be *recomputed* — the replay cost does not ride the link.
        for state in observed:
            if state.block_id in feasible_ids:
                continue
            decide(state, float(swap_round_trip_ns(state.size, bandwidths)),
                   swap_fits=False)

        forced_overhead = 0.0
        peak_after = _predict_peak_after(
            _absence_windows(swap_states + recompute_states), warmup)
        if self.capacity_bytes is not None and self.enable_swap:
            by_id = {decision["block_id"]: decision for decision in decisions}
            for state in sorted(kept_states, key=lambda s: s.size, reverse=True):
                if peak_after <= self.capacity_bytes:
                    break
                swap_cost = float(swap_round_trip_ns(state.size, bandwidths))
                spent += swap_cost
                forced_overhead += max(0.0, swap_cost - state.best_gap_ns)
                swap_states.append(state)
                by_id[state.block_id]["mechanism"] = "swap"
                by_id[state.block_id]["effective_swap_cost_ns"] = swap_cost
                peak_after = _predict_peak_after(
                    _absence_windows(swap_states + recompute_states), warmup)
            swapped_ids = {state.block_id for state in swap_states}
            kept_states = [state for state in kept_states
                           if state.block_id not in swapped_ids]

        self._triggers = _build_triggers(
            swap_states + recompute_states,
            recompute_ids=frozenset(state.block_id
                                    for state in recompute_states))
        savings = max(0, plan.peak_bytes_before - peak_after)
        recompute_overhead = sum(int(state.compute_ns or 0)
                                 for state in recompute_states)
        self.predicted = {
            "num_candidates": len(observed),
            "num_selected": len(swap_states) + len(recompute_states),
            "num_swapped": len(swap_states),
            "num_recomputed": len(recompute_states),
            "num_kept": len(kept_states),
            "peak_bytes_before": plan.peak_bytes_before,
            "peak_bytes_after": peak_after,
            "savings_bytes": savings,
            "savings_fraction": (savings / plan.peak_bytes_before
                                 if plan.peak_bytes_before else 0.0),
            "total_overhead_ns": recompute_overhead + forced_overhead,
            "copy_round_trip_ns": spent,
            "recompute_overhead_ns": recompute_overhead,
            "capacity_bytes": self.capacity_bytes,
            "decisions": decisions,
        }


class SwapAdvisorExecutionPolicy(_TriggerPlanPolicy):
    """Size-ranked swapping (SwapAdvisor-style): largest blocks, timing-blind.

    The ``top_k`` largest observed blocks are evicted after the access that
    opens their largest idle interval, with a prefetch against that interval
    — whatever transfer time the interval cannot hide becomes a *measured*
    stall, mirroring the analytic estimator's charged overhead.
    """

    name = "swap_advisor"

    def __init__(self, top_k: int = 5, min_block_bytes: int = 32 * MIB):
        super().__init__()
        self.top_k = int(top_k)
        self.min_block_bytes = int(min_block_bytes)

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        eligible = [state for state in warmup.blocks
                    if state.size >= self.min_block_bytes and state.best_gap_ns > 0]
        eligible.sort(key=lambda state: state.size, reverse=True)
        chosen = eligible[:self.top_k]
        self._triggers = _build_triggers(chosen)
        overhead = sum(
            max(0.0, swap_round_trip_ns(state.size, bandwidths) - state.best_gap_ns)
            for state in chosen)
        peak_after = _predict_peak_after(_absence_windows(chosen), warmup)
        savings = max(0, warmup.peak_resident_bytes - peak_after)
        self.predicted = {
            "num_selected": len(chosen),
            "swapped_bytes": sum(state.size for state in chosen),
            "peak_bytes_before": warmup.peak_resident_bytes,
            "peak_bytes_after": peak_after,
            "savings_bytes": savings,
            "total_overhead_ns": overhead,
        }


class ZeroOffloadExecutionPolicy(SwapExecutionPolicy):
    """Offload optimizer state and gradients between iterations (ZeRO-style).

    At the end of every iteration all resident optimizer-state and
    parameter-gradient blocks are evicted; each comes back through a demand
    fetch (a synchronous stall) on its next access.  On a data-parallel run
    each rank only moves its ``1/world_size`` partition per direction while
    the full block still leaves the device footprint — the executable twin
    of the rank-aware analytic estimator.
    """

    name = "zero_offload"

    OFFLOAD_CATEGORIES = (MemoryCategory.OPTIMIZER_STATE,
                          MemoryCategory.PARAMETER_GRADIENT)

    def __init__(self, world_size: int = 1):
        super().__init__()
        self.world_size = max(1, int(world_size))

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        offloadable = [state for state in warmup.blocks
                       if state.category in self.OFFLOAD_CATEGORIES]
        swapped = sum(state.size for state in offloadable)
        partition = -(-swapped // self.world_size) if swapped else 0
        # Each block is absent from the end of the iteration until its first
        # access in the next one (the synchronous demand fetch).
        duration = warmup.iteration_duration_ns
        peak_after = _predict_peak_after(
            [(duration, duration + state.first_access_phase_ns, state.size)
             for state in offloadable if state.first_access_phase_ns > 0],
            warmup)
        self.predicted = {
            "num_selected": len(offloadable),
            "swapped_bytes": swapped,
            "peak_bytes_before": warmup.peak_resident_bytes,
            "peak_bytes_after": peak_after,
            "savings_bytes": max(0, warmup.peak_resident_bytes - peak_after),
            "total_overhead_ns": swap_round_trip_ns(partition, bandwidths),
            "world_size": self.world_size,
            "partition_bytes": partition,
        }

    def directives_at_iteration_end(
            self, resident: Iterable["BlockState"]) -> List[EvictDirective]:
        directives = []
        for state in resident:
            if state.category in self.OFFLOAD_CATEGORIES:
                partition = -(-state.size // self.world_size)
                directives.append(EvictDirective(block_id=state.block_id,
                                                 copy_bytes=partition))
        return directives


class LruExecutionPolicy(SwapExecutionPolicy):
    """Online budget policy: evict least-recently-accessed blocks on pressure.

    The budget defaults to ``budget_fraction`` of the warm-up peak (so the
    policy always has something to do on any workload); an absolute
    ``budget_bytes`` overrides it.  Evicted blocks are demand-fetched on
    access — the stalls measure what a reactive pager costs on this workload.
    """

    name = "lru"

    def __init__(self, budget_bytes: Optional[int] = None,
                 budget_fraction: float = 0.7,
                 min_block_bytes: int = 1 * MIB):
        super().__init__()
        self.budget_bytes = budget_bytes if budget_bytes is None else int(budget_bytes)
        self.budget_fraction = float(budget_fraction)
        self.min_block_bytes = int(min_block_bytes)
        self._resolved_budget: Optional[int] = None

    @property
    def resolved_budget_bytes(self) -> Optional[int]:
        """The budget in force (None before :meth:`plan` ran)."""
        return self._resolved_budget

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        if self.budget_bytes is not None:
            self._resolved_budget = self.budget_bytes
        else:
            self._resolved_budget = int(warmup.peak_resident_bytes
                                        * self.budget_fraction)
        self.predicted = None  # reactive: there is no plan to predict from

    def directives_on_pressure(self, resident: Iterable["BlockState"],
                               resident_bytes: int,
                               just_allocated: "BlockState") -> List[EvictDirective]:
        budget = self._resolved_budget
        if budget is None or resident_bytes <= budget:
            return []
        candidates = [state for state in resident
                      if state.size >= self.min_block_bytes
                      and state.block_id != just_allocated.block_id]
        candidates.sort(key=lambda state: state.last_access_ns)
        directives = []
        excess = resident_bytes - budget
        for state in candidates:
            if excess <= 0:
                break
            directives.append(EvictDirective(block_id=state.block_id))
            excess -= state.size
        return directives


#: Factories for every executable policy, keyed by the ``--swap`` axis value.
EXECUTION_POLICIES: Dict[str, Callable[..., SwapExecutionPolicy]] = {
    PlannerExecutionPolicy.name: PlannerExecutionPolicy,
    SwapAdvisorExecutionPolicy.name: SwapAdvisorExecutionPolicy,
    ZeroOffloadExecutionPolicy.name: ZeroOffloadExecutionPolicy,
    LruExecutionPolicy.name: LruExecutionPolicy,
    UnifiedExecutionPolicy.name: UnifiedExecutionPolicy,
}

#: The value of the ``--swap`` axis that disables the engine entirely.
SWAP_OFF = "off"


def available_execution_policies() -> Tuple[str, ...]:
    """Names of every executable swap policy (``off`` excluded)."""
    return tuple(EXECUTION_POLICIES)


def get_execution_policy(name: str, **kwargs) -> SwapExecutionPolicy:
    """Instantiate an executable policy by registry name.

    Raises ``ValueError`` with the list of known policies when unknown.
    """
    try:
        factory = EXECUTION_POLICIES[name]
    except KeyError:
        known = ", ".join(available_execution_policies())
        raise ValueError(
            f"unknown swap execution policy '{name}'; known policies: {known}"
        ) from None
    return factory(**kwargs)
