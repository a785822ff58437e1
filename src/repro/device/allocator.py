"""Device memory allocators.

The centerpiece is :class:`CachingAllocator`, a faithful reimplementation of
the policy used by PyTorch's CUDA caching allocator, which is the allocator
the paper instruments:

* requested sizes are rounded up to 512-byte multiples;
* allocations of at most 1 MiB are served from a *small pool* whose segments
  are 2 MiB; larger allocations come from a *large pool* whose segments are
  20 MiB (or the rounded request, if bigger);
* a free block is found with best-fit search inside the matching pool and is
  split when the remainder is large enough to be useful;
* freed blocks are kept (cached) and coalesced with free neighbours, so a
  subsequent allocation of a similar size reuses the same device block — this
  reuse is what makes per-block access streams span training iterations;
* when no cached block fits, a new segment is reserved with a simulated
  ``cudaMalloc``; when the device is out of memory the allocator first
  releases fully-free cached segments and retries before raising
  :class:`~repro.errors.OutOfMemoryError`.

Two simpler allocators (:class:`BestFitAllocator` and :class:`BumpAllocator`)
are provided as ablation baselines: they produce different fragmentation and
event streams for the same workload, which the allocator ablation
(:func:`repro.experiments.ablations.run_allocator_ablation`, checked by
``tests/test_experiments.py::test_allocator_ablation_differentiates_policies``
and rendered in ``docs/figures/ablations.md``) quantifies.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from ..core.events import MemoryCategory
from ..errors import InvalidFreeError, OutOfMemoryError
from ..units import KIB, MIB
from .clock import DeviceClock
from .hooks import MemoryEventListener, NullListener
from .memory import AllocatorStats, Block, Segment
from .spec import DeviceSpec
from .tape import TAPE_ALLOC_OVERHEAD, TAPE_SEGMENT_OVERHEAD

#: Allocation granularity: all block sizes are multiples of this.
MIN_BLOCK_SIZE = 512
#: Requests up to this size are served from the small pool.
SMALL_ALLOCATION_LIMIT = 1 * MIB
#: Segment size used by the small pool.
SMALL_SEGMENT_SIZE = 2 * MIB
#: Minimum segment size used by the large pool.
LARGE_SEGMENT_SIZE = 20 * MIB
#: A free large-pool block is split only if the remainder exceeds this.
LARGE_SPLIT_REMAINDER = 1 * MIB
#: Device virtual addresses start here (arbitrary, but stable across runs).
BASE_ADDRESS = 0x7F00_0000_0000
#: Segments are aligned to this boundary in the simulated address space.
SEGMENT_ALIGNMENT = 2 * MIB


class IndexedFreeList:
    """Size-ordered index of free blocks with bisect-backed best-fit lookup.

    Replaces the historical unsorted ``List[Block]`` free lists, whose
    best-fit search and removal were linear scans — the dominant allocator
    cost once symbolic sweeps made everything else array-speed.  Entries are
    ``(size, tiebreak)`` keys kept sorted with ``bisect``; membership and the
    key of a given block are O(1) dict lookups, removal is an O(log n) search
    plus one C-level list deletion, and best-fit is a single ``bisect_left``.

    The tiebreak among equal-size blocks preserves the exact semantics of the
    linear scans (so event streams stay bit-identical):

    * ``"fifo"`` — a monotonically increasing insertion sequence.  Equal-size
      candidates are taken oldest-first, exactly like the old first-match
      scan over an append-ordered list (:class:`CachingAllocator`).
    * ``"address"`` — the block's device address.  Equal-size candidates are
      taken lowest-address-first, exactly like the old address-order scan
      over the arena's block list (:class:`BestFitAllocator`).
    """

    def __init__(self, tiebreak: str = "fifo"):
        if tiebreak not in ("fifo", "address"):
            raise ValueError(f"unknown tiebreak policy {tiebreak!r}")
        self._by_address = tiebreak == "address"
        self._seq = itertools.count()
        self._keys: List[Tuple[int, int]] = []                  # sorted (size, tiebreak)
        self._key_by_id: Dict[int, Tuple[int, int]] = {}        # block_id -> key
        self._block_by_key: Dict[Tuple[int, int], Block] = {}   # key -> block

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, block: "Block") -> bool:
        return block.block_id in self._key_by_id

    def blocks(self) -> List["Block"]:
        """The indexed blocks in (size, tiebreak) order."""
        return [self._block_by_key[key] for key in self._keys]

    def add(self, block: "Block") -> None:
        """Index a block that just became free."""
        key = (block.size, block.address if self._by_address else next(self._seq))
        self._key_by_id[block.block_id] = key
        self._block_by_key[key] = block
        insort(self._keys, key)

    def discard(self, block: "Block") -> bool:
        """Remove a block from the index if present; returns whether it was."""
        key = self._key_by_id.pop(block.block_id, None)
        if key is None:
            return False
        del self._block_by_key[key]
        del self._keys[bisect_left(self._keys, key)]
        return True

    def take_best_fit(self, min_size: int) -> Optional["Block"]:
        """Remove and return the best-fitting free block of at least ``min_size``.

        Among blocks of the smallest sufficient size, the tiebreak order
        decides (oldest insertion for ``"fifo"``, lowest address for
        ``"address"``) — matching the block the historical linear scans
        would have picked.
        """
        index = bisect_left(self._keys, (min_size, -1))
        if index == len(self._keys):
            return None
        key = self._keys.pop(index)
        block = self._block_by_key.pop(key)
        del self._key_by_id[block.block_id]
        return block


def round_block_size(size: int) -> int:
    """Round a requested size up to the allocator granularity (512 bytes)."""
    if size <= 0:
        return MIN_BLOCK_SIZE
    return ((size + MIN_BLOCK_SIZE - 1) // MIN_BLOCK_SIZE) * MIN_BLOCK_SIZE


def segment_size_for(rounded_size: int) -> int:
    """Segment size the caching allocator reserves for a given rounded request."""
    if rounded_size <= SMALL_ALLOCATION_LIMIT:
        return SMALL_SEGMENT_SIZE
    if rounded_size < LARGE_SEGMENT_SIZE:
        return LARGE_SEGMENT_SIZE
    # Huge allocations get a dedicated segment rounded to 2 MiB.
    return ((rounded_size + SEGMENT_ALIGNMENT - 1) // SEGMENT_ALIGNMENT) * SEGMENT_ALIGNMENT


class BaseAllocator:
    """Common state and interface shared by all allocator implementations."""

    name = "base"

    def __init__(
        self,
        spec: DeviceSpec,
        clock: DeviceClock,
        listener: Optional[MemoryEventListener] = None,
    ):
        self.spec = spec
        self.clock = clock
        # The spec is frozen, so the per-malloc/free cost is read once.
        self._alloc_overhead_ns = spec.allocator_overhead_ns
        self.listener = listener if listener is not None else NullListener()
        self.stats = AllocatorStats()
        self._segments: List[Segment] = []
        self._next_address = BASE_ADDRESS
        #: The allocated blocks by ``block_id``.  Written only by this class.
        self._live_blocks: Dict[int, Block] = {}
        # Identities are per allocator: the first block (and segment) of every
        # session is 1, whatever the process simulated before.
        self._block_ids = itertools.count(1)
        self._segment_ids = itertools.count(1)

    # -- interface -------------------------------------------------------------

    def allocate(
        self,
        size: int,
        category: MemoryCategory = MemoryCategory.UNKNOWN,
        tag: str = "",
    ) -> Block:
        """Allocate a device block of at least ``size`` bytes."""
        raise NotImplementedError

    def free(self, block: Block) -> None:
        """Return a previously allocated block to the allocator."""
        raise NotImplementedError

    def empty_cache(self) -> int:
        """Release cached (fully free) segments; returns bytes released."""
        return 0

    # -- shared helpers ---------------------------------------------------------

    def _advance_alloc_overhead(self) -> None:
        """Pay the per-malloc/free bookkeeping cost."""
        self.clock.advance(self._alloc_overhead_ns, TAPE_ALLOC_OVERHEAD)

    def _advance_segment_overhead(self) -> None:
        """Pay the simulated ``cudaMalloc``/``cudaFree`` cost."""
        self.clock.advance(self.spec.cuda_malloc_overhead_ns, TAPE_SEGMENT_OVERHEAD)

    def segments(self) -> List[Segment]:
        """All currently reserved segments, in reservation order."""
        return list(self._segments)

    def live_blocks(self) -> List[Block]:
        """All currently allocated blocks."""
        return list(self._live_blocks.values())

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently handed out to tensors."""
        return self.stats.allocated_bytes

    @property
    def reserved_bytes(self) -> int:
        """Bytes currently reserved from the device (segments)."""
        return self.stats.reserved_bytes

    def device_free_bytes(self) -> int:
        """Device memory not yet reserved by any segment."""
        return self.spec.memory_capacity - self.stats.reserved_bytes

    def check_invariants(self) -> None:
        """Run the per-segment structural self-check on every segment."""
        for segment in self._segments:
            segment.check_invariants()

    def memory_snapshot(self) -> List[Dict[str, object]]:
        """A ``torch.cuda.memory_snapshot()``-style dump of segments and blocks."""
        snapshot: List[Dict[str, object]] = []
        for segment in self._segments:
            snapshot.append(
                {
                    "segment_id": segment.segment_id,
                    "address": segment.address,
                    "size": segment.size,
                    "pool": segment.pool,
                    "blocks": [
                        {
                            "block_id": b.block_id,
                            "address": b.address,
                            "size": b.size,
                            "allocated": b.allocated,
                            "category": b.category.value,
                            "tag": b.tag,
                        }
                        for b in segment.blocks()
                    ],
                }
            )
        return snapshot

    def _reserve_segment(self, size: int, pool: str) -> Segment:
        """Reserve a new segment of ``size`` bytes (simulated ``cudaMalloc``)."""
        if size > self.device_free_bytes():
            raise OutOfMemoryError(
                requested=size,
                free=self.device_free_bytes(),
                reserved=self.stats.reserved_bytes,
                capacity=self.spec.memory_capacity,
            )
        address = self._next_address
        self._next_address += ((size + SEGMENT_ALIGNMENT - 1) // SEGMENT_ALIGNMENT) * SEGMENT_ALIGNMENT
        segment = Segment(address=address, size=size, pool=pool,
                          segment_id=next(self._segment_ids),
                          first_block_id=next(self._block_ids))
        self._segments.append(segment)
        self.stats.on_reserve(size)
        self._advance_segment_overhead()
        self.listener.on_segment_alloc(segment)
        return segment

    def _release_segment(self, segment: Segment) -> None:
        """Release a fully free segment back to the device (simulated ``cudaFree``)."""
        self._segments.remove(segment)
        self.stats.on_release(segment.size)
        self._advance_segment_overhead()
        self.listener.on_segment_free(segment)

    def _publish_alloc(self, block: Block, requested_size: int,
                       category: MemoryCategory, tag: str) -> Block:
        """Mark a block allocated, update stats and notify the listener."""
        block.allocated = True
        block.requested_size = requested_size
        block.category = category
        block.tag = tag
        self._live_blocks[block.block_id] = block
        self.stats.on_alloc(block.size)
        self.listener.on_malloc(block, requested_size)
        return block

    def _publish_free(self, block: Block) -> None:
        """Mark a block free, update stats and notify the listener."""
        if block.block_id not in self._live_blocks:
            raise InvalidFreeError(
                f"block {block.block_id} (tag={block.tag!r}) is not currently allocated"
            )
        del self._live_blocks[block.block_id]
        self.stats.on_free(block.size)
        self.listener.on_free(block)
        block.allocated = False


class CachingAllocator(BaseAllocator):
    """PyTorch-style caching allocator (see module docstring for the policy)."""

    name = "caching"

    def __init__(
        self,
        spec: DeviceSpec,
        clock: DeviceClock,
        listener: Optional[MemoryEventListener] = None,
    ):
        super().__init__(spec, clock, listener)
        # Free blocks per pool, indexed by (size, insertion order): best-fit
        # is one bisect, removal is O(log n) — same blocks the historical
        # linear scans would have picked, just found without the scan.
        self._free_blocks: Dict[str, IndexedFreeList] = {
            "small": IndexedFreeList("fifo"), "large": IndexedFreeList("fifo")}

    # -- allocation -------------------------------------------------------------

    def allocate(
        self,
        size: int,
        category: MemoryCategory = MemoryCategory.UNKNOWN,
        tag: str = "",
    ) -> Block:
        rounded = round_block_size(size)
        pool = "small" if rounded <= SMALL_ALLOCATION_LIMIT else "large"
        self._advance_alloc_overhead()

        # Best fit in the pool's free index (removes and returns the block).
        block = self._free_blocks[pool].take_best_fit(rounded)
        if block is not None:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            block = self._allocate_from_new_segment(pool, rounded)

        block = self._maybe_split(block, rounded, pool)
        return self._publish_alloc(block, size, category, tag)

    def _allocate_from_new_segment(self, pool: str, rounded: int) -> Block:
        """Reserve a fresh segment and return its (single, free) covering block."""
        segment_size = segment_size_for(rounded)
        try:
            segment = self._reserve_segment(segment_size, pool)
        except OutOfMemoryError:
            # Mimic PyTorch: release cached segments and retry once before
            # surfacing the OOM to the caller.
            released = self.empty_cache()
            if released <= 0:
                raise
            segment = self._reserve_segment(segment_size, pool)
        block = segment.first_block
        assert block is not None  # a fresh segment always has one covering block
        return block

    def _maybe_split(self, block: Block, rounded: int, pool: str) -> Block:
        """Split ``block`` if the remainder is worth keeping, per pool policy."""
        remainder = block.size - rounded
        should_split = (
            remainder >= MIN_BLOCK_SIZE
            if pool == "small"
            else remainder > LARGE_SPLIT_REMAINDER
        )
        if not should_split:
            return block
        tail = Block(block.segment, block.address + rounded, remainder,
                     block_id=next(self._block_ids))
        tail.prev = block
        tail.next = block.next
        if block.next is not None:
            block.next.prev = tail
        block.next = tail
        block.size = rounded
        self._free_blocks[pool].add(tail)
        self.stats.split_count += 1
        return block

    # -- free -------------------------------------------------------------------

    def free(self, block: Block) -> None:
        self._advance_alloc_overhead()
        self._publish_free(block)
        pool = block.segment.pool
        block = self._coalesce(block, pool)
        self._free_blocks[pool].add(block)

    def _coalesce(self, block: Block, pool: str) -> Block:
        """Merge ``block`` with free neighbours; returns the surviving block.

        The surviving block keeps the identity (``block_id``) of the left-most
        participant, matching how a real allocator's block descriptor absorbs
        its right neighbour.
        """
        # Merge with the right neighbour first so addresses stay contiguous.
        nxt = block.next
        if nxt is not None and not nxt.allocated:
            self._remove_from_free_list(pool, nxt)
            block.size += nxt.size
            block.next = nxt.next
            if nxt.next is not None:
                nxt.next.prev = block
            self.stats.coalesce_count += 1
        prev = block.prev
        if prev is not None and not prev.allocated:
            self._remove_from_free_list(pool, prev)
            prev.size += block.size
            prev.next = block.next
            if block.next is not None:
                block.next.prev = prev
            self.stats.coalesce_count += 1
            block = prev
        return block

    def _remove_from_free_list(self, pool: str, block: Block) -> None:
        self._free_blocks[pool].discard(block)

    # -- cache management --------------------------------------------------------

    def empty_cache(self) -> int:
        """Release every fully free segment; returns the number of bytes released."""
        released = 0
        for segment in list(self._segments):
            if not segment.is_fully_free():
                continue
            for block in list(segment.blocks()):
                self._remove_from_free_list(segment.pool, block)
            released += segment.size
            self._release_segment(segment)
        return released


class BestFitAllocator(BaseAllocator):
    """Non-caching best-fit allocator over one big arena (ablation baseline).

    The whole device memory is reserved as a single segment up front; every
    allocation does a best-fit search over the arena's free blocks and every
    free coalesces immediately.  There is no pooling and no size rounding
    beyond the 512-byte granularity, so the event stream and fragmentation
    profile differ from the caching allocator's.
    """

    name = "best_fit"

    def __init__(
        self,
        spec: DeviceSpec,
        clock: DeviceClock,
        listener: Optional[MemoryEventListener] = None,
        arena_fraction: float = 0.95,
    ):
        super().__init__(spec, clock, listener)
        arena_size = int(spec.memory_capacity * arena_fraction)
        arena_size = (arena_size // SEGMENT_ALIGNMENT) * SEGMENT_ALIGNMENT
        self._arena = self._reserve_segment(arena_size, pool="arena")
        # Free blocks indexed by (size, address): best-fit is one bisect and
        # equal sizes resolve lowest-address-first, exactly the block the old
        # address-order scan over the arena would have returned.
        self._free_index = IndexedFreeList("address")
        self._free_index.add(self._arena.first_block)

    def allocate(
        self,
        size: int,
        category: MemoryCategory = MemoryCategory.UNKNOWN,
        tag: str = "",
    ) -> Block:
        rounded = round_block_size(size)
        self._advance_alloc_overhead()
        best = self._free_index.take_best_fit(rounded)
        if best is None:
            raise OutOfMemoryError(
                requested=rounded,
                free=self._arena.largest_free_block(),
                reserved=self.stats.reserved_bytes,
                capacity=self.spec.memory_capacity,
            )
        if best.size - rounded >= MIN_BLOCK_SIZE:
            tail = Block(self._arena, best.address + rounded, best.size - rounded,
                         block_id=next(self._block_ids))
            tail.prev = best
            tail.next = best.next
            if best.next is not None:
                best.next.prev = tail
            best.next = tail
            best.size = rounded
            self._free_index.add(tail)
            self.stats.split_count += 1
        return self._publish_alloc(best, size, category, tag)

    def free(self, block: Block) -> None:
        self._advance_alloc_overhead()
        self._publish_free(block)
        nxt = block.next
        if nxt is not None and not nxt.allocated:
            self._free_index.discard(nxt)
            block.size += nxt.size
            block.next = nxt.next
            if nxt.next is not None:
                nxt.next.prev = block
            self.stats.coalesce_count += 1
        prev = block.prev
        if prev is not None and not prev.allocated:
            self._free_index.discard(prev)
            prev.size += block.size
            prev.next = block.next
            if block.next is not None:
                block.next.prev = prev
            self.stats.coalesce_count += 1
            block = prev
        self._free_index.add(block)


class BumpAllocator(BaseAllocator):
    """Linear (bump-pointer) allocator that never reuses memory until reset.

    This models the most naive runtime possible: every allocation consumes
    fresh address space and frees only bookkeep.  It is used as an ablation
    baseline to show how much the caching allocator's block reuse shapes the
    per-block behavior streams, and it also provides an upper bound on the
    footprint a workload would need without any reuse.
    """

    name = "bump"

    def __init__(
        self,
        spec: DeviceSpec,
        clock: DeviceClock,
        listener: Optional[MemoryEventListener] = None,
    ):
        super().__init__(spec, clock, listener)
        self._cursor = 0

    def allocate(
        self,
        size: int,
        category: MemoryCategory = MemoryCategory.UNKNOWN,
        tag: str = "",
    ) -> Block:
        rounded = round_block_size(size)
        self._advance_alloc_overhead()
        if self._cursor + rounded > self.spec.memory_capacity:
            raise OutOfMemoryError(
                requested=rounded,
                free=self.spec.memory_capacity - self._cursor,
                reserved=self.stats.reserved_bytes,
                capacity=self.spec.memory_capacity,
            )
        segment = self._reserve_segment(rounded, pool="bump")
        block = segment.first_block
        assert block is not None
        self._cursor += rounded
        return self._publish_alloc(block, size, category, tag)

    def free(self, block: Block) -> None:
        self._advance_alloc_overhead()
        self._publish_free(block)

    def reset(self) -> None:
        """Release everything and rewind the bump pointer (end of a phase)."""
        for segment in list(self._segments):
            self._release_segment(segment)
        self._live_blocks.clear()
        self._cursor = 0


#: Registry of allocator implementations, used by experiment configuration.
ALLOCATOR_CLASSES = {
    CachingAllocator.name: CachingAllocator,
    BestFitAllocator.name: BestFitAllocator,
    BumpAllocator.name: BumpAllocator,
}


def make_allocator(
    name: str,
    spec: DeviceSpec,
    clock: DeviceClock,
    listener: Optional[MemoryEventListener] = None,
) -> BaseAllocator:
    """Instantiate an allocator by registry name (``caching``, ``best_fit``, ``bump``)."""
    try:
        cls = ALLOCATOR_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(ALLOCATOR_CLASSES))
        raise KeyError(f"unknown allocator '{name}'; known allocators: {known}") from None
    return cls(spec, clock, listener)
