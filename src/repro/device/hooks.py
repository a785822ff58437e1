"""Listener interfaces through which the device reports memory behaviors.

The paper's methodology is to *instrument the memory allocators of the
runtime system*.  In this reproduction the instrumentation points are
explicit: every allocator and every tensor storage accepts a
:class:`MemoryEventListener` and notifies it on each ``malloc``, ``free``,
``read`` and ``write``.  The trace recorder in :mod:`repro.core.recorder`
implements this interface; a :class:`CompositeListener` allows several
consumers (e.g. the swap executor plus a recorder) to observe the same
device.  Dispatch is *pre-bound*: the composite resolves its children's hooks
once per membership change, so a behavior reaches a lone recorder in one call
(see :class:`CompositeListener` for who may cache a hook and when).
"""

from __future__ import annotations

from typing import Iterable, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .memory import Block, Segment


class MemoryEventListener:
    """Base listener; every hook is a no-op.

    Subclasses override the hooks they care about.  All hooks receive the
    *live* block/segment object, so listeners can read its address, size,
    category and tag; they must not mutate it.
    """

    def on_malloc(self, block: "Block", requested_size: int) -> None:
        """A block was handed out by the allocator."""

    def on_free(self, block: "Block") -> None:
        """A block was returned to the allocator."""

    def on_read(self, block: "Block", nbytes: int, op: str) -> None:
        """``nbytes`` of the block were read by operator ``op``."""

    def on_write(self, block: "Block", nbytes: int, op: str) -> None:
        """``nbytes`` of the block were written by operator ``op``."""

    def on_segment_alloc(self, segment: "Segment") -> None:
        """The allocator reserved a new segment (simulated ``cudaMalloc``)."""

    def on_segment_free(self, segment: "Segment") -> None:
        """The allocator released a segment (simulated ``cudaFree``)."""

    def on_swap_out(self, block: "Block", nbytes: int, op: str) -> None:
        """The swap engine evicted ``block`` to the host (``nbytes`` moved)."""

    def on_swap_in(self, block: "Block", nbytes: int, op: str) -> None:
        """The swap engine restored ``block`` to the device (``nbytes`` moved).

        ``op`` names how the restoration happened: a ``"prefetch"`` that made
        its deadline, a ``"demand"`` fetch that stalled the device, or a
        ``"discard"`` (the block was freed while swapped out, so nothing is
        copied and ``nbytes`` is 0).
        """

    def on_recompute_drop(self, block: "Block", nbytes: int, op: str) -> None:
        """The engine discarded ``block`` for later rematerialization.

        No transfer happens — the bytes are simply released from the device
        footprint; ``op`` names the policy that decided the drop.
        """

    def on_recompute(self, block: "Block", nbytes: int, op: str) -> None:
        """The engine rematerialized ``block`` by replaying its producer.

        ``op`` is ``"demand"`` when the replay stalled the device before an
        access, ``"discard"`` when the block was freed while dropped (nothing
        is recomputed and ``nbytes`` is 0), or ``"shutdown"`` for end-of-run
        bookkeeping restores.
        """


class NullListener(MemoryEventListener):
    """A listener that ignores everything (the default when not profiling)."""


#: Every hook of the listener interface, in declaration order.
HOOK_NAMES = ("on_malloc", "on_free", "on_read", "on_write", "on_segment_alloc",
              "on_segment_free", "on_swap_out", "on_swap_in", "on_recompute_drop",
              "on_recompute")


def _fan_out(hooks: tuple):
    """One callable delivering its arguments to every bound hook, in order."""
    if len(hooks) == 2:
        # A swap-on device: the executor, then the recorder.
        first, second = hooks

        def deliver(*args) -> None:
            first(*args)
            second(*args)
        return deliver

    def deliver(*args) -> None:
        for hook in hooks:
            hook(*args)
    return deliver


class CompositeListener(MemoryEventListener):
    """Fan-out listener that forwards every hook to its children, pre-bound.

    Whenever the membership changes (construction, :meth:`add`,
    :meth:`remove`) the composite re-resolves each child's hooks and stores
    the result as its *own* ``on_*`` instance attributes: with exactly one
    child they **are** that child's bound methods (a notification is one
    call, no composite frame), otherwise one closure per hook iterating the
    pre-bound tuple in attachment order (none: a no-op).

    Who may cache a hook, and when: only the composite, and only between two
    membership changes.  Callers (allocators, storages, the swap engine)
    look ``composite.on_x`` up at every call and never keep it, so adding or
    removing a listener mid-run takes effect at the next behavior.  Children
    are resolved through normal attribute lookup *at binding time* — per
    device and per membership change, never at import — so a hook replaced
    on a listener's class before it is attached is the one that runs.
    """

    def __init__(self, listeners: Iterable[MemoryEventListener] = ()):
        self._listeners: List[MemoryEventListener] = list(listeners)
        self._bind()

    def _bind(self) -> None:
        for name in HOOK_NAMES:
            hooks = tuple(getattr(child, name) for child in self._listeners)
            setattr(self, name, hooks[0] if len(hooks) == 1 else _fan_out(hooks))

    def add(self, listener: MemoryEventListener) -> None:
        """Attach another child listener."""
        self._listeners.append(listener)
        self._bind()

    def remove(self, listener: MemoryEventListener) -> None:
        """Detach a child listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)
            self._bind()

    def __len__(self) -> int:
        return len(self._listeners)


class CountingListener(MemoryEventListener):
    """A tiny listener that counts behaviors; useful in tests and sanity checks."""

    def __init__(self) -> None:
        self.mallocs = 0
        self.frees = 0
        self.reads = 0
        self.writes = 0
        self.segment_allocs = 0
        self.segment_frees = 0
        self.swap_outs = 0
        self.swap_ins = 0
        self.recompute_drops = 0
        self.recomputes = 0

    def on_malloc(self, block: "Block", requested_size: int) -> None:
        self.mallocs += 1

    def on_free(self, block: "Block") -> None:
        self.frees += 1

    def on_read(self, block: "Block", nbytes: int, op: str) -> None:
        self.reads += 1

    def on_write(self, block: "Block", nbytes: int, op: str) -> None:
        self.writes += 1

    def on_segment_alloc(self, segment: "Segment") -> None:
        self.segment_allocs += 1

    def on_segment_free(self, segment: "Segment") -> None:
        self.segment_frees += 1

    def on_swap_out(self, block: "Block", nbytes: int, op: str) -> None:
        self.swap_outs += 1

    def on_swap_in(self, block: "Block", nbytes: int, op: str) -> None:
        self.swap_ins += 1

    def on_recompute_drop(self, block: "Block", nbytes: int, op: str) -> None:
        self.recompute_drops += 1

    def on_recompute(self, block: "Block", nbytes: int, op: str) -> None:
        self.recomputes += 1
