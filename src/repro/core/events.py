"""Memory-behavior event primitives.

The paper pinpoints four *memory behaviors* of each device memory block:
``malloc``, ``free``, ``read`` and ``write``.  This module defines the event
record emitted by the instrumented allocator / tensor storage, plus the
per-block lifetime record that the analyses consume.

These types are deliberately dependency-free so that both the simulated
device (:mod:`repro.device`) and the analyses (:mod:`repro.core`) can share
them without import cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class MemoryEventKind(enum.Enum):
    """The four memory behaviors tracked by the paper, plus runtime events.

    ``SEGMENT_ALLOC`` / ``SEGMENT_FREE`` correspond to the underlying
    ``cudaMalloc`` / ``cudaFree`` calls issued by the caching allocator when
    it grows or shrinks its reserved pool; they are recorded for completeness
    (fragmentation analysis) but are not counted as block-level behaviors.

    ``SWAP_OUT`` / ``SWAP_IN`` are emitted by the swap-execution engine
    (:mod:`repro.swap`) when a block is evicted to host memory or brought
    back to the device.  They are *runtime actions on* a block, not behaviors
    *of* the workload, so they are excluded from the paper's block-behavior
    set: ATI pairing, the occupation breakdown and the iterative-pattern
    analysis all ignore them, while the residency accounting
    (:meth:`~repro.core.trace.MemoryTrace.resident_bytes_series`) is built
    from them.  New kinds append at the end so the stable integer codes of
    the column store never shift.

    ``RECOMPUTE_DROP`` / ``RECOMPUTE`` are the rematerialization twins of the
    swap pair: the unified eviction engine discards an activation without any
    transfer (``recompute_drop``) and later replays its producer's compute
    cost to bring it back (``recompute``).  Like swap traffic they are
    runtime actions, excluded from the block-behavior set but included in the
    residency accounting.
    """

    MALLOC = "malloc"
    FREE = "free"
    READ = "read"
    WRITE = "write"
    SEGMENT_ALLOC = "segment_alloc"
    SEGMENT_FREE = "segment_free"
    SWAP_OUT = "swap_out"
    SWAP_IN = "swap_in"
    RECOMPUTE_DROP = "recompute_drop"
    RECOMPUTE = "recompute"

    @property
    def is_access(self) -> bool:
        """Whether this event is a data access (read or write)."""
        return self in (MemoryEventKind.READ, MemoryEventKind.WRITE)

    @property
    def is_block_behavior(self) -> bool:
        """Whether this event is one of the paper's four block-level behaviors."""
        return self in (
            MemoryEventKind.MALLOC,
            MemoryEventKind.FREE,
            MemoryEventKind.READ,
            MemoryEventKind.WRITE,
        )

    @property
    def is_swap(self) -> bool:
        """Whether this event is swap traffic emitted by the execution engine."""
        return self in (MemoryEventKind.SWAP_OUT, MemoryEventKind.SWAP_IN)

    @property
    def is_recompute(self) -> bool:
        """Whether this event is rematerialization traffic (drop or replay)."""
        return self in (MemoryEventKind.RECOMPUTE_DROP, MemoryEventKind.RECOMPUTE)


class MemoryCategory(enum.Enum):
    """Fine-grained classification of what a memory block stores.

    The paper (following LeCun et al.) groups device memory contents into
    three coarse buckets: *input data*, *parameters* and *intermediate
    results*.  We track a finer classification at allocation time and map it
    down to the paper's buckets via :meth:`paper_bucket`.
    """

    INPUT = "input"
    LABEL = "label"
    PARAMETER = "parameter"
    PARAMETER_GRADIENT = "parameter_gradient"
    OPTIMIZER_STATE = "optimizer_state"
    ACTIVATION = "activation"
    ACTIVATION_GRADIENT = "activation_gradient"
    WORKSPACE = "workspace"
    UNKNOWN = "unknown"

    def paper_bucket(self) -> str:
        """Map the fine category onto the paper's three-way breakdown."""
        if self in (MemoryCategory.INPUT, MemoryCategory.LABEL):
            return "input data"
        if self in (MemoryCategory.PARAMETER, MemoryCategory.OPTIMIZER_STATE):
            return "parameters"
        return "intermediate results"


# Stable integer code of each member in the column store (definition order):
# a plain attribute, so the recorder reads ``category.code`` without hashing.
for _code, _category in enumerate(MemoryCategory):
    _category.code = _code


#: Order in which the paper's buckets are reported in figures 5-7.
PAPER_BUCKETS = ("input data", "parameters", "intermediate results")


@dataclass(frozen=True)
class MemoryEvent:
    """A single memory behavior observed on the device.

    Attributes
    ----------
    event_id:
        Monotonically increasing index assigned by the recorder.  Figure 4 of
        the paper plots behaviors against this index.
    kind:
        Which behavior occurred.
    timestamp_ns:
        Simulated device time of the behavior, in nanoseconds.
    block_id:
        Identity of the device memory block.  Block identities are stable
        across caching-allocator reuse of the same underlying block, which is
        what lets access-time intervals span allocator round trips.
    address:
        Device virtual address of the block at the time of the event.
    size:
        Size of the block in bytes (for accesses, the number of bytes touched).
    category:
        Content category of the block at the time of the event.
    tag:
        Human-readable label (e.g. ``"fc1.weight"`` or ``"relu_out"``).
    iteration:
        Training iteration during which the behavior happened (-1 if outside
        a training loop).
    op:
        Name of the operator that triggered the access (empty for allocator
        events).
    device_rank:
        Data-parallel rank of the device the behavior happened on (0 for
        single-device runs; stamped by the trace merge for multi-device
        sessions).
    """

    event_id: int
    kind: MemoryEventKind
    timestamp_ns: int
    block_id: int
    address: int
    size: int
    category: MemoryCategory = MemoryCategory.UNKNOWN
    tag: str = ""
    iteration: int = -1
    op: str = ""
    device_rank: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the event to a JSON-friendly dictionary."""
        return {
            "event_id": self.event_id,
            "kind": self.kind.value,
            "timestamp_ns": self.timestamp_ns,
            "block_id": self.block_id,
            "address": self.address,
            "size": self.size,
            "category": self.category.value,
            "tag": self.tag,
            "iteration": self.iteration,
            "op": self.op,
            "device_rank": self.device_rank,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "MemoryEvent":
        """Reconstruct an event from :meth:`to_dict` output."""
        return MemoryEvent(
            event_id=int(data["event_id"]),
            kind=MemoryEventKind(data["kind"]),
            timestamp_ns=int(data["timestamp_ns"]),
            block_id=int(data["block_id"]),
            address=int(data["address"]),
            size=int(data["size"]),
            category=MemoryCategory(data.get("category", "unknown")),
            tag=str(data.get("tag", "")),
            iteration=int(data.get("iteration", -1)),
            op=str(data.get("op", "")),
            device_rank=int(data.get("device_rank", 0)),
        )


@dataclass
class BlockLifetime:
    """One allocation→free span of a device memory block.

    The Gantt chart of Figure 2 draws one rectangle per lifetime: its width is
    ``free_ns - malloc_ns`` and its height is ``size``.
    """

    block_id: int
    address: int
    size: int
    category: MemoryCategory
    tag: str
    malloc_ns: int
    free_ns: Optional[int] = None
    iteration: int = -1
    access_count: int = 0
    device_rank: int = 0

    @property
    def is_live(self) -> bool:
        """Whether the block has not been freed yet."""
        return self.free_ns is None

    def duration_ns(self, now_ns: Optional[int] = None) -> int:
        """Lifetime length in nanoseconds (up to ``now_ns`` if still live)."""
        end = self.free_ns if self.free_ns is not None else now_ns
        if end is None:
            raise ValueError("block is still live; pass now_ns to measure it")
        return max(0, end - self.malloc_ns)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the lifetime to a JSON-friendly dictionary."""
        return {
            "block_id": self.block_id,
            "address": self.address,
            "size": self.size,
            "category": self.category.value,
            "tag": self.tag,
            "malloc_ns": self.malloc_ns,
            "free_ns": self.free_ns,
            "iteration": self.iteration,
            "access_count": self.access_count,
            "device_rank": self.device_rank,
        }


@dataclass
class IterationMark:
    """Marks the device-time span of one training iteration.

    The recorder stores one mark per iteration so that analyses (iterative
    pattern detection, Gantt chart segmentation) can attribute behaviors to
    iterations without re-deriving boundaries from the event stream.
    """

    index: int
    start_ns: int
    end_ns: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def duration_ns(self) -> int:
        """Length of the iteration in nanoseconds (0 if still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the mark to a JSON-friendly dictionary."""
        return {
            "index": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "IterationMark":
        """Reconstruct a mark from :meth:`to_dict` output."""
        return IterationMark(
            index=int(data["index"]),
            start_ns=int(data["start_ns"]),
            end_ns=None if data.get("end_ns") is None else int(data["end_ns"]),
            meta=dict(data.get("meta", {})),
        )
