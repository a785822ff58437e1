"""Memory policies and the closed-loop swap-execution engine.

:mod:`repro.swap.policies` holds the one registry of footprint-reduction
techniques (:data:`POLICIES`, :func:`get_policy`): each is one
:class:`MemoryPolicy` class whose offline face *predicts*, on a recorded
trace, what the technique would do to the footprint and the step time, and
whose executable face drives the engine in this package, which *executes*
those decisions inside the simulation: a :class:`SwapExecutor` attaches to a
device as a memory-event listener, watches one warm-up iteration, lets the
policy turn the observed behaviors into eviction / prefetch decisions,
schedules the resulting copies on the device's dedicated copy stream (so they
overlap with compute and contend with each other), and stalls the device
clock whenever a prefetch misses its deadline.  Every eviction and
restoration is recorded as a first-class ``swap_out`` / ``swap_in`` trace
event, so the *measured* peak-memory reduction and stall overhead fall out of
the trace and can be regressed against the policy's *predicted* numbers.

Executable policies (:data:`SWAP_EXECUTION_MODES` minus ``off``):

``planner``
    The paper's Eq.-1 cost model, executed: swap exactly the candidates the
    :class:`~repro.core.swap.SwapPlanner` selects, prefetching against each
    candidate's measured access-time interval.
``swap_advisor``
    Size-ranked swapping in the spirit of SwapAdvisor: the largest blocks
    are swapped regardless of timing; infeasible intervals surface as
    measured stalls.
``zero_offload``
    Optimizer state and parameter gradients are evicted at the end of every
    iteration and demand-fetched (synchronously, with a stall) on their next
    access — ZeRO-Offload's dataflow without its CPU-compute overlap.
``lru``
    An online budget policy: whenever the resident footprint exceeds a
    budget, the least-recently-accessed blocks are evicted; evicted blocks
    are demand-fetched on access.
``unified``
    Capuchin-style unified eviction: every peak-covering candidate is
    resolved to keep, swap or *recompute* by comparing the Eq.-1 transfer
    round trip against the block's recorded producer compute time.
    Recompute drops emit ``recompute_drop`` / ``recompute`` trace events and
    replay the producer's kernel time on the compute stream.

When the executor is built with ``capacity_bytes`` it also *governs* the
device footprint: any event that would push the resident bytes over the
capacity first force-evicts least-recently-used blocks (stalling the clock
for the transfers), and a working set that cannot fit even with full
eviction raises a structured
:class:`~repro.errors.InfeasibleScenarioError` instead of a raw OOM.
"""

from .executor import SwapExecutor, SwapExecutionSummary
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
]
