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

An allocator is a pass over a finished run's requests: the front end logs
every malloc and free (:class:`~repro.device.memory.RequestLog`) and pays
the per-call bookkeeping overhead on its clock, and :func:`place` drives an
allocator over the log under a capacity.  The :class:`Placement` it returns
holds each request's block id, address and size, the segment rows with the
call each was made in (one ``cudaMalloc``/``cudaFree`` overhead atom each,
which :func:`~repro.core.recorder.place_traces` splices into the timeline),
the segments reserved before the first request and the counters.  An
out-of-memory is raised by :func:`place` at the request that hits it.

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.events import MemoryCategory, MemoryEventKind
from ..core.trace import KIND_CODES
from ..errors import InvalidFreeError, OutOfMemoryError
from ..units import MIB
from .memory import AllocatorStats, Block, RequestLog, Segment

_SEGMENT_ALLOC = KIND_CODES[MemoryEventKind.SEGMENT_ALLOC]
_SEGMENT_FREE = KIND_CODES[MemoryEventKind.SEGMENT_FREE]

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
    """Common state and interface shared by all allocator implementations.

    ``capacity`` is the device memory the allocator may reserve.  Every
    segment reserved or released is appended to :attr:`segment_log` as
    ``(kind code, segment)``: one ``cudaMalloc``/``cudaFree`` each, whose
    overhead :func:`place` hands to the timeline.
    """

    name = "base"

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.stats = AllocatorStats()
        self.segment_log: List[Tuple[int, Segment]] = []
        self._segments: List[Segment] = []
        self._next_address = BASE_ADDRESS
        # Identities are per allocator: the first block (and segment) of every
        # placement is 1, whatever the process placed before.
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

    def segments(self) -> List[Segment]:
        """All currently reserved segments, in reservation order."""
        return list(self._segments)

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
        return self.capacity - self.stats.reserved_bytes

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
                capacity=self.capacity,
            )
        address = self._next_address
        self._next_address += ((size + SEGMENT_ALIGNMENT - 1) // SEGMENT_ALIGNMENT) * SEGMENT_ALIGNMENT
        segment = Segment(address=address, size=size, pool=pool,
                          segment_id=next(self._segment_ids),
                          first_block_id=next(self._block_ids))
        self._segments.append(segment)
        self.stats.on_reserve(size)
        self.segment_log.append((_SEGMENT_ALLOC, segment))
        return segment

    def _release_segment(self, segment: Segment) -> None:
        """Release a fully free segment back to the device (simulated ``cudaFree``)."""
        self._segments.remove(segment)
        self.stats.on_release(segment.size)
        self.segment_log.append((_SEGMENT_FREE, segment))

    def _publish_alloc(self, block: Block, requested_size: int,
                       category: MemoryCategory, tag: str) -> Block:
        """Mark a block allocated and update the stats."""
        block.allocated = True
        block.requested_size = requested_size
        block.category = category
        block.tag = tag
        self.stats.on_alloc(block.size)
        return block

    def _publish_free(self, block: Block) -> None:
        """Mark a block free and update the stats."""
        if not block.allocated:
            raise InvalidFreeError(
                f"block {block.block_id} (tag={block.tag!r}) is not currently allocated"
            )
        self.stats.on_free(block.size)
        block.allocated = False


class CachingAllocator(BaseAllocator):
    """PyTorch-style caching allocator (see module docstring for the policy)."""

    name = "caching"

    def __init__(self, capacity: int):
        super().__init__(capacity)
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

    def __init__(self, capacity: int, arena_fraction: float = 0.95):
        super().__init__(capacity)
        arena_size = int(self.capacity * arena_fraction)
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
        best = self._free_index.take_best_fit(rounded)
        if best is None:
            raise OutOfMemoryError(
                requested=rounded,
                free=self._arena.largest_free_block(),
                reserved=self.stats.reserved_bytes,
                capacity=self.capacity,
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

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._cursor = 0

    def allocate(
        self,
        size: int,
        category: MemoryCategory = MemoryCategory.UNKNOWN,
        tag: str = "",
    ) -> Block:
        rounded = round_block_size(size)
        if self._cursor + rounded > self.capacity:
            raise OutOfMemoryError(
                requested=rounded,
                free=self.capacity - self._cursor,
                reserved=self.stats.reserved_bytes,
                capacity=self.capacity,
            )
        segment = self._reserve_segment(rounded, pool="bump")
        block = segment.first_block
        assert block is not None
        self._cursor += rounded
        return self._publish_alloc(block, size, category, tag)

    def free(self, block: Block) -> None:
        self._publish_free(block)

    def reset(self) -> None:
        """Release everything and rewind the bump pointer (end of a phase)."""
        for segment in list(self._segments):
            self._release_segment(segment)
        self._cursor = 0


#: Registry of allocator implementations, used by experiment configuration.
ALLOCATOR_CLASSES = {
    CachingAllocator.name: CachingAllocator,
    BestFitAllocator.name: BestFitAllocator,
    BumpAllocator.name: BumpAllocator,
}


def make_allocator(name: str, capacity: int) -> BaseAllocator:
    """Instantiate an allocator by registry name (``caching``, ``best_fit``, ``bump``)."""
    return ALLOCATOR_CLASSES[check_allocator(name)](capacity)


def check_allocator(name: str) -> str:
    """``name`` if it is a registered allocator (KeyError listing them if not)."""
    if name not in ALLOCATOR_CLASSES:
        known = ", ".join(sorted(ALLOCATOR_CLASSES))
        raise KeyError(f"unknown allocator '{name}'; known allocators: {known}")
    return name


@dataclass(frozen=True)
class Placement:
    """Where one device's requests landed under one allocator and capacity.

    Per request id: the block id, address and (rounded, split) size of the
    block that served it.  Per segment reserved or released after the first
    request, in order: the index into the request log's ``ops`` of the call
    that made it, its kind code, id, address, size and ``segment:<pool>``
    tag — each is one ``cudaMalloc``/``cudaFree`` overhead atom.
    ``preamble_segments`` were reserved before any request (best-fit's
    arena) and ``stats`` are the allocator's counters after the last call.
    """

    block_id: np.ndarray
    address: np.ndarray
    size: np.ndarray
    segment_op: np.ndarray
    segment_kind: np.ndarray
    segment_id: np.ndarray
    segment_address: np.ndarray
    segment_size: np.ndarray
    segment_tags: List[str]
    preamble_segments: int
    stats: AllocatorStats


def place(requests: RequestLog, allocator: str, capacity: int) -> Placement:
    """Drive allocator ``allocator`` over ``requests`` under ``capacity`` bytes.

    Calls ``allocate`` / ``free`` in the log's order, as the front end made
    them; an :class:`~repro.errors.OutOfMemoryError` propagates from the
    request that hits it.  The only place an allocator is instantiated.
    """
    instance = make_allocator(allocator, capacity)
    log = instance.segment_log
    preamble = len(log)
    del log[:]
    blocks: List[Optional[Block]] = [None] * len(requests)
    # A block is re-split and coalesced after its request is freed, so each
    # request's (id, address, size) is read when it is served.
    served: List[Tuple[int, int, int]] = [(0, 0, 0)] * len(requests)
    nbytes, categories, tags = requests.nbytes, requests.category, requests.tag
    made: List[Tuple[int, int, Segment]] = []
    allocate, free = instance.allocate, instance.free
    for index, op in enumerate(requests.ops):
        if op >= 0:
            blocks[op] = block = allocate(nbytes[op], categories[op], tags[op])
            served[op] = (block.block_id, block.address, block.size)
        else:
            free(blocks[~op])
        if log:
            made.extend((index, kind, segment) for kind, segment in log)
            del log[:]
    table = np.array(served, dtype=np.int64).reshape(len(served), 3)
    segments = np.array([(index, kind, segment.segment_id, segment.address, segment.size)
                         for index, kind, segment in made],
                        dtype=np.int64).reshape(len(made), 5)
    return Placement(
        block_id=table[:, 0], address=table[:, 1], size=table[:, 2],
        segment_op=segments[:, 0], segment_kind=segments[:, 1],
        segment_id=segments[:, 2], segment_address=segments[:, 3],
        segment_size=segments[:, 4],
        segment_tags=[f"segment:{segment.pool}" for _, _, segment in made],
        preamble_segments=preamble, stats=instance.stats)
