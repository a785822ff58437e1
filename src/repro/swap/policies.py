"""Memory-pressure-reduction policies: one class per technique, one registry.

The paper compares swapping against recomputation and parameter compression
on *measured* access behavior.  Every technique the reproduction knows is one
:class:`MemoryPolicy` subclass here, carrying up to two faces:

*offline* — :meth:`MemoryPolicy.evaluate` estimates the technique on a
    recorded :class:`~repro.core.trace.MemoryTrace` and returns a normalized
    summary (``policy``, ``savings_bytes``, ``savings_fraction``,
    ``overhead_ns`` plus technique-specific extras; ``None`` for ``none``).
    These are the points of the sweep's ``swap_policies`` axis.  Every
    estimate — swapping, recomputation, parameter compression — lives on its
    class and reads the trace's event columns; none builds an object view.
*executable* — :meth:`MemoryPolicy.plan` digests the swap executor's warm-up
    observations into triggers and the three directive hooks hand the
    executor its evictions.  The executor (:mod:`repro.swap.executor`) owns
    all mechanism — residency accounting, copy-stream scheduling, stall
    insertion, trace events — while the policy owns strategy: *which* blocks
    leave the device, *when*, and whether a prefetch is scheduled against a
    deadline or the block is left to a demand fetch.  These are the modes of
    the ``swaps`` axis (the ``--swap`` flag).

A class declares the faces it has (``offline`` / ``executable``); the two
axis tuples :data:`SWAP_POLICIES` and :data:`SWAP_EXECUTION_MODES` are
derived from those flags and from nothing else.  Both faces of one technique
share its constants (``top_k``, the 32 MiB candidate floor, the offloaded
categories, the ceil-partition rule) and the Eq.-1 machinery of
:mod:`repro.core.swap`, so a technique's *predicted* numbers and the engine's
*measured* numbers come from the same cost model — the predicted-vs-simulated
regression in the test suite pins that agreement.  The two faces are still
two procedures: the offline estimate sums the selected sizes, :meth:`plan`
keeps only peak-covering windows and replays the warm-up live-bytes profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Collection, Dict, Iterable, List, Optional,
                    Tuple, Type)

import numpy as np

from ..core.ati import compute_interval_arrays
from ..core.events import MemoryCategory, MemoryEventKind
from ..core.swap import BandwidthConfig, SwapCandidate, SwapPlan, SwapPlanner, swap_round_trip_ns
from ..core.trace import KIND_CODES, EventColumns, MemoryTrace
from ..units import MIB

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .executor import BlockState, WarmupObservations

#: The normalized summary type every offline evaluation produces.
PolicySummary = Dict[str, object]

#: Share of one iteration the planned swap round trips may keep the copy
#: stream busy (``planner`` / ``unified``).  Below one: the engine is a
#: single in-order stream, so a plan that fills it queues prefetches behind
#: each other and they miss their deadlines (:func:`_within_stream_budget`).
COPY_UTILIZATION_CAP = 0.8

#: ``lru``'s default resident budget as a share of the warm-up peak.  Below
#: one so the policy has something to do on any workload.
LRU_BUDGET_FRACTION = 0.7

_WRITE_CODE = KIND_CODES[MemoryEventKind.WRITE]


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


class MemoryPolicy:
    """One footprint-reduction technique: no offline estimate, never evicts."""

    #: Registry name (subclasses override).
    name: str = "base"
    #: Whether :meth:`evaluate` estimates the technique on a recorded trace.
    offline: bool = False
    #: Whether :meth:`plan` and the directive hooks can drive the swap executor.
    executable: bool = False
    #: Whether :meth:`directives_on_pressure` can evict: the executor then
    #: follows every malloc and access of the run.
    relieves_pressure: bool = False
    #: The resident bytes a policy that relieves pressure keeps to, resolved
    #: when it plans (``None`` until then, and for every other policy); the
    #: executor asks :meth:`directives_on_pressure` only above it.
    pressure_budget_bytes: Optional[int] = None

    def __init__(self) -> None:
        #: The policy's predicted effect (a plan/estimator summary), filled by
        #: :meth:`plan`; ``None`` for purely reactive policies such as LRU.
        self.predicted: Optional[Dict[str, object]] = None

    @classmethod
    def for_run(cls, world_size: int, capacity_bytes: Optional[int]) -> "MemoryPolicy":
        """The instance one training run executes: ``world_size`` replicas,
        each under ``capacity_bytes`` of device memory (``None``: unbounded).

        Most techniques plan the same way whatever the run looks like.
        """
        return cls()

    # -- offline face ---------------------------------------------------------------------

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Evaluate the policy on ``trace`` and return a normalized summary.

        Returns ``None`` when the policy performs no reduction (the ``none``
        baseline), otherwise a dictionary with at least the keys ``policy``,
        ``savings_bytes``, ``savings_fraction`` and ``overhead_ns``.
        """
        raise ValueError(f"policy '{self.name}' has no offline estimate")

    def _summary(self, fields: PolicySummary, *, savings_bytes: int,
                 savings_fraction: float, overhead_ns: float) -> PolicySummary:
        """The technique's ``fields`` stamped with the keys every summary shares.

        ``policy``, ``savings_bytes``, ``savings_fraction`` and ``overhead_ns``
        follow the technique's own keys in that order, except that a shared
        key ``fields`` already holds keeps its place (with the stamped value).
        """
        return {**fields, "policy": self.name, "savings_bytes": int(savings_bytes),
                "savings_fraction": float(savings_fraction),
                "overhead_ns": float(overhead_ns)}

    # -- executable face ------------------------------------------------------------------

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        """Digest the warm-up observations into triggers (called every replan)."""

    def directive_after_access(self, state: "BlockState") -> Optional[EvictDirective]:
        """Eviction decision right after an access to ``state`` completed."""
        return None

    def triggered_blocks(self) -> Optional[Collection[int]]:
        """The blocks the current plan acts on by trigger (``None``: any block).

        The executor follows the accesses of these blocks only: it counts
        their ordinals, keeps their last access time (a prefetch deadline
        starts there) and asks :meth:`directive_after_access` about them.  A
        policy that does not override that hook triggers on none.
        """
        if type(self).directive_after_access is MemoryPolicy.directive_after_access:
            return ()
        return None

    def directives_at_iteration_end(
            self, resident: Iterable["BlockState"]) -> List[EvictDirective]:
        """Evictions to perform at an iteration boundary."""
        return []

    def directives_on_pressure(self, resident: Iterable["BlockState"],
                               resident_bytes: int,
                               just_allocated: "BlockState") -> List[EvictDirective]:
        """Evictions to relieve memory pressure before a residency increase lands.

        Called, for a policy that :attr:`relieves_pressure`, before an
        allocation (``just_allocated`` is the new block) and before a
        restoration or rematerialization (``just_allocated`` is the block
        coming back) that takes ``resident_bytes`` above
        :attr:`pressure_budget_bytes`; ``resident_bytes`` already counts its
        bytes and ``resident`` excludes it.
        """
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
    phase, live = np.array(series, dtype=np.int64).T
    start, end, size = np.array(windows, dtype=np.int64).reshape(-1, 3).T
    phase = phase[:, None]
    covered = ((start <= phase) & (phase < end - margin)) | (phase < end - duration - margin)
    return max(0, int((live - covered @ size).max()))


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


class _TriggerPlanPolicy(MemoryPolicy):
    """A policy whose :meth:`plan` selects blocks and fires them by trigger."""

    def __init__(self) -> None:
        super().__init__()
        self._triggers: Dict[int, _Trigger] = {}

    def triggered_blocks(self) -> Collection[int]:
        """Every block with a trigger, at an ordinal or at the iteration end."""
        return self._triggers.keys()

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


def _plan_observed(planner: SwapPlanner, observed: List["BlockState"],
                   peak_before: int) -> SwapPlan:
    """Plan over the warm-up's observed blocks, each at its best idle gap."""
    return planner.plan_columns(
        [state.block_id for state in observed], [state.size for state in observed],
        [int(state.best_gap_ns) for state in observed],
        lambda rows: [observed[row].tag or observed[row].category.value
                      for row in rows.tolist()],
        peak_before)


def _absent_savings(absent_bytes: int, peak_before: int) -> PolicySummary:
    """The shared savings keys of keeping ``absent_bytes`` off the device at
    the peak (the Σ-of-sizes model): never more than the peak itself."""
    savings = min(absent_bytes, peak_before)
    return {"savings_bytes": savings,
            "savings_fraction": savings / peak_before if peak_before else 0.0}


def _largest_malloc_per_block(cols: EventColumns, rows: np.ndarray) -> Dict[int, int]:
    """Each block id's largest size over the malloc ``rows`` (a mask or
    indices), keyed in the order the ids are first malloc'ed."""
    sizes: Dict[int, int] = {}
    for block_id, size in zip(cols.block_id[rows].tolist(), cols.size[rows].tolist()):
        sizes[block_id] = max(sizes.get(block_id, 0), size)
    return sizes


class NoPolicy(MemoryPolicy):
    """The do-nothing baseline: the footprint is reported as recorded."""

    name = "none"
    offline = True

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """No reduction is attempted; evaluates to ``None``."""
        return None


class PlannerPolicy(_TriggerPlanPolicy):
    """The paper's Eq.-1 swap planner: swap only where the ATI hides the copy.

    Offline intervals and warm-up observations are fed through the *same*
    :class:`~repro.core.swap.SwapPlanner`; executed, each selected candidate
    becomes a trigger (evict after the opening access, prefetch back against
    the measured interval).
    """

    name = "planner"
    offline = executable = True

    def __init__(self, min_candidate_bytes: int = 32 * MIB,
                 allow_overhead_ns: float = 0.0):
        super().__init__()
        self.min_candidate_bytes = int(min_candidate_bytes)
        self.allow_overhead_ns = float(allow_overhead_ns)

    def _planner(self, bandwidths: BandwidthConfig) -> SwapPlanner:
        """The cost model both faces plan with."""
        return SwapPlanner(bandwidths=bandwidths,
                           min_candidate_bytes=self.min_candidate_bytes,
                           allow_overhead_ns=self.allow_overhead_ns)

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Plan interval-aware swapping and summarize the chosen plan."""
        bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
        plan = self._planner(bandwidths).plan(trace, compute_interval_arrays(trace))
        return self._summary(plan.summary(), savings_bytes=plan.savings_bytes,
                             savings_fraction=plan.savings_fraction,
                             overhead_ns=plan.total_overhead_ns)

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        planner = self._planner(bandwidths)
        # Only windows that cover the peak instant can reduce the peak; the
        # filter keeps the plan's predicted savings honest (Σ selected sizes
        # all absent at the peak) instead of summing irrelevant idle time.
        observed = [state for state in warmup.blocks
                    if state.best_gap_ns > 0
                    and _covers_peak(state, warmup.peak_phase_ns,
                                     warmup.iteration_duration_ns)]
        plan = _plan_observed(planner, observed, warmup.peak_resident_bytes)
        kept, spent = _within_stream_budget(
            plan.selected, COPY_UTILIZATION_CAP * warmup.iteration_duration_ns)
        kept_states = [warmup.by_id[candidate.block_id] for candidate in kept]
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


class UnifiedPolicy(_TriggerPlanPolicy):
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
    executable = True

    #: Only forward activations are rematerializable by producer replay —
    #: gradients would need the backward graph re-run, and parameters /
    #: optimizer state have no producer to replay at all.
    RECOMPUTABLE_CATEGORIES = (MemoryCategory.ACTIVATION,)

    def __init__(self, min_candidate_bytes: int = 32 * MIB,
                 allow_overhead_ns: float = 0.0,
                 enable_swap: bool = True,
                 enable_recompute: bool = True,
                 capacity_bytes: Optional[int] = None):
        super().__init__()
        self.min_candidate_bytes = int(min_candidate_bytes)
        self.allow_overhead_ns = float(allow_overhead_ns)
        self.enable_swap = bool(enable_swap)
        self.enable_recompute = bool(enable_recompute)
        self.capacity_bytes = (None if capacity_bytes is None
                               else int(capacity_bytes))

    @classmethod
    def for_run(cls, world_size: int, capacity_bytes: Optional[int]) -> "UnifiedPolicy":
        """Plan against the run's capacity (force swaps until the peak fits)."""
        return cls(capacity_bytes=capacity_bytes)

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
        plan = _plan_observed(planner, observed, warmup.peak_resident_bytes)
        budget_ns = COPY_UTILIZATION_CAP * warmup.iteration_duration_ns

        # The pure-swap twin's own selection under the same stream budget:
        # anything it would move, the unified plan also covers — by replay
        # when that is cheaper, by transfer otherwise — which is what makes
        # the unified savings dominate both single-mechanism plans.
        planner_kept_ids = {
            candidate.block_id
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
            feasible_ids.add(candidate.block_id)
            state = warmup.by_id[candidate.block_id]
            swap_cost = float(candidate.round_trip_ns)
            in_planner = candidate.block_id in planner_kept_ids
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


class SwapAdvisorPolicy(_TriggerPlanPolicy):
    """Size-ranked swapping in the spirit of SwapAdvisor (Huang et al.,
    ASPLOS'20): the ``top_k`` largest blocks, whatever their access timing.

    Executed, each is evicted after the access that opens its largest idle
    interval, with a prefetch against that interval — whatever transfer time
    the interval cannot hide becomes a *measured* stall, mirroring the
    overhead the offline estimate charges.
    """

    name = "swap_advisor"
    offline = executable = True

    def __init__(self, top_k: int = 5, min_block_bytes: int = 32 * MIB):
        super().__init__()
        self.top_k = int(top_k)
        self.min_block_bytes = int(min_block_bytes)

    def select(self, trace: MemoryTrace) -> List[Tuple[int, int]]:
        """``(block_id, size)`` of the blocks the offline estimate swaps.

        Each block id counts with its largest malloc; equal sizes keep the
        order the ids were first malloc'ed in.
        """
        cols = trace.columns()
        sizes = _largest_malloc_per_block(cols, cols.is_malloc)
        return sorted(
            ((block_id, size) for block_id, size in sizes.items()
             if size >= self.min_block_bytes),
            key=lambda item: item[1], reverse=True,
        )[:self.top_k]

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Swap the largest blocks and charge the transfer time the ATIs cannot hide."""
        bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
        candidates = self.select(trace)
        arrays = compute_interval_arrays(trace)
        overhead = 0.0
        for block_id, size in candidates:
            gaps = arrays.interval_ns[arrays.block_id == block_id]
            hidden = int(gaps.max()) if gaps.size else 0
            overhead += max(0.0, swap_round_trip_ns(size, bandwidths) - hidden)
        swapped = sum(size for _, size in candidates)
        shared = {**_absent_savings(swapped, trace.peak_live_bytes()),
                  "overhead_ns": overhead}
        return self._summary({"name": "swap_advisor_style", "num_blocks": len(candidates),
                              "swapped_bytes": swapped, **shared}, **shared)

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


class ZeroOffloadPolicy(MemoryPolicy):
    """Optimizer state and gradients live on the host, in the spirit of
    ZeRO-Offload (Ren et al.), partitioned across data-parallel ranks.

    Executed, all resident optimizer-state and parameter-gradient blocks are
    evicted at the end of every iteration; each comes back through a demand
    fetch (a synchronous stall) on its next access.  Both faces are
    *rank-aware*: every replica frees its *full* local footprint (the
    per-device savings) but per iteration moves only its ``1/world_size``
    partition of the host copy, so the exposed transfer time shrinks with the
    replica count.  The offline face reads the replica count off the trace
    metadata, the executable one takes it from the run (:meth:`for_run`).
    """

    name = "zero_offload"
    offline = executable = True

    OFFLOAD_CATEGORIES = (MemoryCategory.OPTIMIZER_STATE,
                          MemoryCategory.PARAMETER_GRADIENT)

    def __init__(self, world_size: int = 1):
        super().__init__()
        self.world_size = max(1, int(world_size))

    @classmethod
    def for_run(cls, world_size: int, capacity_bytes: Optional[int]) -> "ZeroOffloadPolicy":
        """Partition every transfer across the run's replicas."""
        return cls(world_size=world_size)

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Keep optimizer state and gradients on the host, one round trip per step.

        The offloaded bytes are absent from the device footprint; every
        training iteration pays a round trip for them (gradients out, updated
        values back), which is the overhead ZeRO-Offload hides behind CPU
        compute but a synchronous implementation would expose.  A merged
        data-parallel trace is evaluated on its rank-0 replica (a rank slice,
        which carries ``device_rank`` in its metadata, is taken as given).
        """
        bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
        world_size = max(1, int(trace.metadata.get("n_devices", 1) or 1))
        if world_size > 1 and "device_rank" not in trace.metadata:
            trace = trace.for_rank(0)
        cols = trace.columns()
        offloaded = _largest_malloc_per_block(cols, cols.is_malloc & np.isin(
            cols.category_code, [category.code for category in self.OFFLOAD_CATEGORIES]))
        swapped = sum(offloaded.values())
        partition = -(-swapped // world_size)  # ceil: each rank's shard of the host copy
        iterations = max(1, len(trace.iteration_marks))
        shared = {**_absent_savings(swapped, trace.peak_live_bytes()),
                  "overhead_ns": iterations * swap_round_trip_ns(partition, bandwidths)}
        extras = ({"world_size": world_size, "partition_bytes": partition}
                  if world_size > 1 else {})
        return self._summary({"name": "zero_offload_style", "num_blocks": len(offloaded),
                              "swapped_bytes": swapped, **shared, **extras}, **shared)

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


class RecomputePolicy(MemoryPolicy):
    """Gradient checkpointing (Chen et al.): discard activations, re-run
    forward segments.

    Recomputation attacks the intermediate-results bytes the swapping
    policies move, from the compute side instead of the transfer side.  The
    estimate treats the saved activations as discardable, keeps every
    ``keep_every``-th as a checkpoint, and charges the recorded producer
    compute times of the rest (:meth:`per_block_compute_times`).
    """

    name = "recompute"
    offline = True

    def __init__(self, keep_every: int = 2):
        super().__init__()
        self.keep_every = int(keep_every)

    @staticmethod
    def per_block_compute_times(trace: MemoryTrace) -> Dict[int, int]:
        """Per-block producer compute times recovered from a recorded trace.

        An activation's producing kernel closes with the block's first
        *write* after its malloc, and the simulated clock only advances
        across kernels and transfers — so the span between that first write
        and the immediately preceding event in the global stream is the
        producer's compute time.  This is the offline analog of the rule the
        swap executor learns replay costs by online, and the two agree on a
        block id with one lifetime.  A re-malloced id keeps its latest
        *positive* span here, where the executor keeps the span of the latest
        lifetime it learned from, zero included; the allocator reuses ids
        across tensors of different producers, so the two often part.

        Blocks whose first post-malloc access is a read (e.g. parameters
        written during unprofiled setup) and later outputs of multi-output
        kernels (which get a zero span) are omitted: they are not
        rematerializable by producer replay.
        """
        cols = trace.columns()
        order = np.argsort(cols.timestamp_ns, kind="stable")
        kind = cols.kind_code[order]
        timestamp = cols.timestamp_ns[order]
        block = cols.block_id[order]
        is_malloc = np.asarray(cols.is_malloc)[order]
        is_write = np.asarray(cols.kind_code == _WRITE_CODE)[order]

        compute_ns: Dict[int, int] = {}
        pending: set = set()
        previous_ns = None
        for index in range(kind.size):
            block_id = int(block[index])
            if is_malloc[index]:
                pending.add(block_id)
            elif block_id in pending and is_write[index]:
                pending.discard(block_id)
                if previous_ns is not None:
                    span = int(timestamp[index]) - previous_ns
                    if span > 0:
                        compute_ns[block_id] = span
            elif block_id in pending:
                # First touch was a read: produced outside the recorded stream.
                pending.discard(block_id)
            previous_ns = int(timestamp[index])
        return compute_ns

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Estimate checkpointing every ``keep_every``-th activation.

        The activations are the ``activation`` malloc rows of iterations
        ≥ 1 — steady state, so the warm-up allocations are not counted twice
        — or all of them when there are none, in stable malloc-time order;
        bytes and overhead are per iteration.  A trace that carries no
        producer timing (no write events) reports zero overhead.
        """
        if self.keep_every < 1:
            raise ValueError("keep_every must be at least 1")
        cols = trace.columns()
        rows = np.flatnonzero(cols.is_malloc
                              & (cols.category_code == MemoryCategory.ACTIVATION.code))
        steady = rows[cols.iteration[rows] >= 1]
        if steady.size:
            rows = steady
        rows = rows[np.argsort(cols.timestamp_ns[rows], kind="stable")]
        per_iteration = max(1, len(set(cols.iteration[rows].tolist())))
        sizes = cols.size[rows]
        discard = np.arange(rows.size) % self.keep_every != 0
        total = int(sizes.sum()) // per_iteration
        discarded = max(0, total - int(sizes[~discard].sum()) // per_iteration)
        compute_ns = self.per_block_compute_times(trace)
        overhead = sum(compute_ns.get(block_id, 0)
                       for block_id in cols.block_id[rows[discard]].tolist()) // per_iteration
        shared = _absent_savings(discarded, trace.peak_live_bytes())
        return self._summary({"keep_every": self.keep_every,
                              "activation_bytes_total": total,
                              "activation_bytes_discarded": discarded, **shared,
                              "recompute_time_overhead_ns": overhead},
                             **shared, overhead_ns=overhead)


class _CompressionPolicy(MemoryPolicy):
    """Parameter compression, in the paper's Figure-5 argument: parameters
    are a small share of the training footprint, so compressing them barely
    moves the peak.  Only the parameter bytes live at the peak shrink."""

    offline = True

    #: The parameter bucket: weights and the optimizer state shaped like them.
    PARAMETER_CODES = np.array([MemoryCategory.PARAMETER.code,
                                MemoryCategory.OPTIMIZER_STATE.code])

    @classmethod
    def peak_parameter_bytes(cls, trace: MemoryTrace) -> int:
        """Bytes of parameter-bucket blocks live at the footprint peak: the
        first malloc/free row at which cumulative live bytes reach their
        maximum (a later tie does not move it), none if they never reach zero."""
        cols = trace.columns()
        lifecycle = cols.is_malloc | cols.is_free
        deltas = cols.live_deltas()[lifecycle]
        live = np.cumsum(deltas)
        if live.size == 0 or live.max() < 0:
            return 0
        parameters = np.cumsum(np.where(
            np.isin(cols.category_code[lifecycle], cls.PARAMETER_CODES), deltas, 0))
        return max(0, int(parameters[np.argmax(live)]))

    def _compressed(self, trace: MemoryTrace, technique: str,
                    parameters_after: Callable[[int], int]) -> PolicySummary:
        """The summary of shrinking the peak's parameter bytes ``p`` to
        ``parameters_after(p)``; compression stalls nothing."""
        parameters = self.peak_parameter_bytes(trace)
        kept = parameters_after(parameters)
        peak_before = trace.peak_live_bytes()
        peak_after = max(0, peak_before - (parameters - kept))
        total_fraction = 1.0 - peak_after / peak_before if peak_before else 0.0
        return self._summary({
            "technique": technique,
            "parameter_reduction_fraction": 1.0 - kept / parameters if parameters else 0.0,
            "total_reduction_fraction": total_fraction,
            "peak_bytes_before": peak_before,
            "peak_bytes_after": peak_after,
        }, savings_bytes=peak_before - peak_after, savings_fraction=total_fraction,
            overhead_ns=0.0)


class PruningPolicy(_CompressionPolicy):
    """Weight pruning: remove a fraction of the parameter bytes."""

    name = "pruning"

    def __init__(self, sparsity: float = 0.9):
        super().__init__()
        self.sparsity = float(sparsity)

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Estimate the total-footprint effect of pruning ``sparsity`` of the weights."""
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must be in [0, 1]")
        return self._compressed(
            trace, f"pruning(sparsity={self.sparsity:.0%})",
            lambda parameters: parameters - int(parameters * self.sparsity))


class QuantizationPolicy(_CompressionPolicy):
    """Weight quantization: shrink float32 parameter bytes to ``bits`` per element."""

    name = "quantization"

    def __init__(self, bits: int = 8):
        super().__init__()
        self.bits = int(bits)

    def evaluate(self, trace: MemoryTrace,
                 bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Estimate the total-footprint effect of quantizing the weights."""
        if self.bits <= 0 or self.bits > 32:
            raise ValueError("bits must be in (0, 32]")
        return self._compressed(trace, f"quantization({self.bits}-bit)",
                                lambda parameters: int(parameters * self.bits / 32.0))


class LruPolicy(MemoryPolicy):
    """Online budget policy: evict least-recently-accessed blocks on pressure.

    The budget defaults to :data:`LRU_BUDGET_FRACTION` of the warm-up peak; an
    absolute ``budget_bytes`` overrides it.  Evicted blocks are demand-fetched on
    access — the stalls measure what a reactive pager costs on this workload.
    """

    name = "lru"
    executable = relieves_pressure = True

    def __init__(self, budget_bytes: Optional[int] = None,
                 min_block_bytes: int = 1 * MIB):
        super().__init__()
        self.budget_bytes = budget_bytes if budget_bytes is None else int(budget_bytes)
        self.min_block_bytes = int(min_block_bytes)

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        if self.budget_bytes is not None:
            self.pressure_budget_bytes = self.budget_bytes
        else:
            self.pressure_budget_bytes = int(warmup.peak_resident_bytes
                                             * LRU_BUDGET_FRACTION)
        self.predicted = None  # reactive: there is no plan to predict from

    def directives_on_pressure(self, resident: Iterable["BlockState"],
                               resident_bytes: int,
                               just_allocated: "BlockState") -> List[EvictDirective]:
        candidates = [state for state in resident
                      if state.size >= self.min_block_bytes
                      and state.block_id != just_allocated.block_id]
        candidates.sort(key=lambda state: state.last_access_ns)
        directives = []
        excess = resident_bytes - self.pressure_budget_bytes
        for state in candidates:
            if excess <= 0:
                break
            directives.append(EvictDirective(block_id=state.block_id))
            excess -= state.size
        return directives


#: Every technique, in presentation order (the one registry).
POLICIES: Dict[str, Type[MemoryPolicy]] = {
    NoPolicy.name: NoPolicy,
    PlannerPolicy.name: PlannerPolicy,
    SwapAdvisorPolicy.name: SwapAdvisorPolicy,
    ZeroOffloadPolicy.name: ZeroOffloadPolicy,
    RecomputePolicy.name: RecomputePolicy,
    PruningPolicy.name: PruningPolicy,
    QuantizationPolicy.name: QuantizationPolicy,
    LruPolicy.name: LruPolicy,
    UnifiedPolicy.name: UnifiedPolicy,
}

#: Policies a scenario can be evaluated under offline (the ``swap_policies``
#: axis: the historical name is kept although it spans swapping, recompute
#: and parameter-compression baselines).
SWAP_POLICIES = tuple(name for name, policy in POLICIES.items() if policy.offline)

#: The value of the ``--swap`` axis that disables the engine entirely.
SWAP_OFF = "off"

#: Modes of the closed-loop swap-execution axis (the ``--swap`` flag).
SWAP_EXECUTION_MODES = (SWAP_OFF,) + tuple(
    name for name, policy in POLICIES.items() if policy.executable)


def get_policy(name: str) -> MemoryPolicy:
    """Instantiate a registered policy by name.

    Raises ``ValueError`` with the list of known policies when unknown.
    """
    try:
        policy = POLICIES[name]
    except KeyError:
        known = ", ".join(POLICIES)
        raise ValueError(
            f"unknown swap policy '{name}'; known policies: {known}") from None
    return policy()


#: The base under the name the frozen benchmark harness resolves
#: (``bench/spans.py`` wraps ``repro.swap.policies.SwapExecutionPolicy.plan``);
#: the next benchmark PR repoints that row at :class:`MemoryPolicy` and
#: deletes this binding together with :mod:`repro.baselines.policy`.
SwapExecutionPolicy = MemoryPolicy
