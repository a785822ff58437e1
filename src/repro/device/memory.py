"""Device memory primitives: segments and blocks.

The caching allocator (like PyTorch's CUDA caching allocator) reserves large
*segments* from the device with ``cudaMalloc`` and carves them into *blocks*
that are handed out to tensors.  Freed blocks return to a per-segment free
list and may be split or coalesced.

Block objects carry a stable ``block_id``: if the caching allocator reuses a
cached block for a new allocation the id is preserved, which is what allows
access-time intervals (ATIs) to span allocator round trips — exactly the
block-level view the paper instruments.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from typing import Dict, Iterator, List, Optional

from ..core.events import MemoryCategory
from ..errors import AllocatorStateError


# Ids of blocks/segments constructed directly (tests, ad-hoc tooling).  An
# allocator numbers its own from 1 (``BaseAllocator._block_ids`` /
# ``_segment_ids``) and passes them in, so the ids a session reports never
# depend on what the process simulated earlier.
_block_id_counter = itertools.count(1)
_segment_id_counter = itertools.count(1)


def _next_block_id() -> int:
    return next(_block_id_counter)


def _next_segment_id() -> int:
    return next(_segment_id_counter)


@dataclass(slots=True, eq=False)
class Block:
    """A contiguous range of device memory inside a segment.

    A block is either *allocated* (owned by a tensor) or *free* (sitting in
    the allocator's cache).  Splitting a free block produces a new block for
    the remainder; coalescing merges adjacent free blocks back together.

    Blocks (and segments) are allocator objects, not values: they compare by
    identity and are hashable.  Field-wise equality would walk the
    ``segment.first_block.segment`` cycle and never return.
    """

    segment: "Segment"
    address: int
    size: int
    allocated: bool = False
    requested_size: int = 0
    category: MemoryCategory = MemoryCategory.UNKNOWN
    tag: str = ""
    block_id: int = field(default_factory=_next_block_id)
    prev: Optional["Block"] = field(default=None, repr=False)
    next: Optional["Block"] = field(default=None, repr=False)

    @property
    def end_address(self) -> int:
        """One-past-the-end device address of this block."""
        return self.address + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "alloc" if self.allocated else "free"
        return (
            f"Block(id={self.block_id}, addr=0x{self.address:x}, "
            f"size={self.size}, {state}, tag={self.tag!r})"
        )


@dataclass(eq=False)
class Segment:
    """A device memory reservation obtained with a (simulated) ``cudaMalloc``.

    Segments own a doubly linked list of blocks covering their address range.
    """

    address: int
    size: int
    pool: str
    segment_id: int = field(default_factory=_next_segment_id)
    first_block: Optional[Block] = None
    #: Id for the covering block created when ``first_block`` is not given.
    first_block_id: InitVar[Optional[int]] = None

    def __post_init__(self, first_block_id: Optional[int]) -> None:
        if self.first_block is None:
            self.first_block = Block(
                self, self.address, self.size,
                block_id=_next_block_id() if first_block_id is None else first_block_id)

    def blocks(self) -> Iterator[Block]:
        """Iterate over all blocks of this segment in address order."""
        block = self.first_block
        while block is not None:
            yield block
            block = block.next

    def allocated_bytes(self) -> int:
        """Total bytes of allocated blocks inside this segment."""
        return sum(b.size for b in self.blocks() if b.allocated)

    def free_bytes(self) -> int:
        """Total bytes of free blocks inside this segment."""
        return sum(b.size for b in self.blocks() if not b.allocated)

    def largest_free_block(self) -> int:
        """Size of the largest free block inside this segment (0 if none)."""
        sizes = [b.size for b in self.blocks() if not b.allocated]
        return max(sizes) if sizes else 0

    def is_fully_free(self) -> bool:
        """Whether no block of this segment is currently allocated."""
        return all(not b.allocated for b in self.blocks())

    def check_invariants(self) -> None:
        """Verify the block list covers the segment exactly once, in order.

        Raises :class:`~repro.errors.AllocatorStateError` on violation.  Used
        by tests and by the allocator's optional self-check mode.
        """
        cursor = self.address
        previous: Optional[Block] = None
        for block in self.blocks():
            if block.address != cursor:
                raise AllocatorStateError(
                    f"segment {self.segment_id}: block {block.block_id} starts at "
                    f"0x{block.address:x}, expected 0x{cursor:x}"
                )
            if block.size <= 0:
                raise AllocatorStateError(
                    f"segment {self.segment_id}: block {block.block_id} has "
                    f"non-positive size {block.size}"
                )
            if block.prev is not previous:
                raise AllocatorStateError(
                    f"segment {self.segment_id}: broken prev link at block "
                    f"{block.block_id}"
                )
            previous = block
            cursor += block.size
        if cursor != self.address + self.size:
            raise AllocatorStateError(
                f"segment {self.segment_id}: blocks cover {cursor - self.address} "
                f"bytes, expected {self.size}"
            )


@dataclass
class AllocatorStats:
    """Running counters maintained by every allocator implementation.

    Mirrors the statistics exposed by ``torch.cuda.memory_stats``: current and
    peak values for allocated bytes, reserved bytes and live block counts,
    plus cumulative counters for allocation traffic and cache behavior.
    """

    allocated_bytes: int = 0
    reserved_bytes: int = 0
    active_blocks: int = 0
    peak_allocated_bytes: int = 0
    peak_reserved_bytes: int = 0
    peak_active_blocks: int = 0
    total_alloc_count: int = 0
    total_free_count: int = 0
    total_alloc_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    segment_allocs: int = 0
    segment_frees: int = 0
    split_count: int = 0
    coalesce_count: int = 0

    def on_alloc(self, size: int) -> None:
        """Record a successful block allocation of ``size`` bytes."""
        self.allocated_bytes += size
        self.active_blocks += 1
        self.total_alloc_count += 1
        self.total_alloc_bytes += size
        if self.allocated_bytes > self.peak_allocated_bytes:
            self.peak_allocated_bytes = self.allocated_bytes
        if self.active_blocks > self.peak_active_blocks:
            self.peak_active_blocks = self.active_blocks

    def on_free(self, size: int) -> None:
        """Record a block free of ``size`` bytes."""
        self.allocated_bytes -= size
        self.active_blocks -= 1
        self.total_free_count += 1

    def on_reserve(self, size: int) -> None:
        """Record a segment reservation of ``size`` bytes."""
        self.reserved_bytes += size
        self.segment_allocs += 1
        if self.reserved_bytes > self.peak_reserved_bytes:
            self.peak_reserved_bytes = self.reserved_bytes

    def on_release(self, size: int) -> None:
        """Record a segment release of ``size`` bytes."""
        self.reserved_bytes -= size
        self.segment_frees += 1

    def to_dict(self) -> Dict[str, int]:
        """Serialize all counters as a plain dictionary."""
        return {
            "allocated_bytes": self.allocated_bytes,
            "reserved_bytes": self.reserved_bytes,
            "active_blocks": self.active_blocks,
            "peak_allocated_bytes": self.peak_allocated_bytes,
            "peak_reserved_bytes": self.peak_reserved_bytes,
            "peak_active_blocks": self.peak_active_blocks,
            "total_alloc_count": self.total_alloc_count,
            "total_free_count": self.total_free_count,
            "total_alloc_bytes": self.total_alloc_bytes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "segment_allocs": self.segment_allocs,
            "segment_frees": self.segment_frees,
            "split_count": self.split_count,
            "coalesce_count": self.coalesce_count,
        }
