"""Memory policies and the swap-execution engine.

:mod:`repro.swap.policies` holds the one registry of footprint-reduction
techniques (:data:`POLICIES`, :func:`get_policy`): each is one
:class:`MemoryPolicy` class whose offline face *predicts*, on a recorded
trace, what the technique would do to the footprint and the step time, and
whose executable face drives the engine in this package, which *executes*
those decisions on a run's swap-off recording: :func:`overlay` walks each
replica's recorded rows with one :class:`SwapExecutor`, learns one warm-up
iteration from them, lets the policy turn those observations into eviction /
prefetch decisions, reserves the resulting copies on the walk's own copy
stream (so they overlap with compute and contend with each other), and
delays every later row whenever a prefetch misses its deadline; given a
capacity, it force-evicts least-recently-used blocks to stay under it or
raises :class:`~repro.errors.InfeasibleScenarioError`.  Every eviction and
restoration is inserted as a first-class ``swap_out`` / ``swap_in`` (or
``recompute_drop`` / ``recompute``) trace row, so the *measured* peak-memory
reduction and stall overhead fall out of the trace and can be regressed
against the policy's *predicted* numbers.  The executable policies
(:data:`SWAP_EXECUTION_MODES` minus ``off``: ``planner``, ``swap_advisor``,
``zero_offload``, ``lru``, ``unified``) are described on their classes and
in ``docs/swapping.md``.
"""

from .executor import SwapExecutionSummary, SwapExecutor, overlay
from .policies import (
    POLICIES,
    SWAP_EXECUTION_MODES,
    SWAP_OFF,
    SWAP_POLICIES,
    EvictDirective,
    MemoryPolicy,
    get_policy,
)

__all__ = [
    "EvictDirective",
    "MemoryPolicy",
    "POLICIES",
    "SWAP_EXECUTION_MODES",
    "SWAP_OFF",
    "SWAP_POLICIES",
    "SwapExecutionSummary",
    "SwapExecutor",
    "get_policy",
    "overlay",
]
