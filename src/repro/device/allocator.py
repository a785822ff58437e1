"""Device memory allocators: one placement pass per policy.

The centerpiece is the ``caching`` policy, a faithful reimplementation of
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

An allocator is a pass over a finished run's requests.  The device's
recorder is their one store: a request is its malloc row — its id the
malloc's ordinal, its bytes and category in the row — and the recorder
keeps its tag; a free is a row against the same id.  The device pays the
per-call bookkeeping overhead on its clock, and :func:`place` runs the named
policy's pass over the calls a recording's rows make (:func:`call_rows`)
under a capacity.  Each pass is one loop over the calls on flat lists
indexed by block id (address, size, allocated, neighbours, segment,
free-list key): a pool of free blocks is a sorted list of integer keys
``size << 80 | tiebreak << 32 | block id``, so best fit is one
``bisect_left`` and equal sizes go by the tiebreak — the insertion sequence
for ``caching`` (oldest free block first), the address for ``best_fit``
(lowest first).  The counters are the loop's locals.  There is no allocator
object and no per-call method: a call and a block object per request cost
more than the placement itself.

The :class:`Placement` a pass returns holds each request's block id,
address and size, the segment rows with the call each was made in (one
``cudaMalloc``/``cudaFree`` overhead atom each, which
:func:`~repro.core.recorder.place_traces` splices into the timeline), the
segments reserved before the first request and the counters
(:class:`AllocatorStats`).  A block is an integer id, numbered from 1 per
placement; when the caching policy serves a request from a cached block the
id is kept, which is what lets access-time intervals span allocator round
trips — the block-level view the paper instruments.  An
out-of-memory is raised at the request that hits it, and the free of a
request that is not live (freed already) raises
:class:`~repro.errors.InvalidFreeError`.

Two simpler policies (``best_fit``: one arena, best fit, immediate
coalescing; ``bump``: fresh address space for every request) are ablation
baselines: they produce different fragmentation and event streams for the
same workload, which the allocator ablation
(:func:`repro.experiments.ablations.run_allocator_ablation`, checked by
``tests/test_experiments.py::test_allocator_ablation_differentiates_policies``
and rendered in ``docs/figures/ablations.md``) quantifies.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from ..core.events import MemoryEventKind
from ..core.trace import KIND_CODES, EventColumns, MemoryTrace
from ..errors import InvalidFreeError, OutOfMemoryError
from ..units import MIB

_MALLOC = KIND_CODES[MemoryEventKind.MALLOC]
_FREE = KIND_CODES[MemoryEventKind.FREE]
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
#: The share of the capacity ``best_fit`` reserves as its one arena.
_ARENA_SHARE = 0.95

# A free-list key is ``size << _SIZE | tiebreak << _TIE | block id``: block
# ids stay below 2**32 and tiebreaks (a sequence number, an address offset
# into the arena) below 2**48.
_TIE = 32
_SIZE = 80
_BLOCK = (1 << _TIE) - 1


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
    return _aligned(rounded_size)


def _aligned(size: int) -> int:
    """``size`` rounded up to the segment alignment."""
    return ((size + SEGMENT_ALIGNMENT - 1) // SEGMENT_ALIGNMENT) * SEGMENT_ALIGNMENT


@dataclass
class AllocatorStats:
    """The counters of one placement (:attr:`~repro.device.allocator.Placement.stats`).

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


@dataclass(frozen=True)
class Placement:
    """Where one device's requests landed under one allocator and capacity.

    Per request id: the block id, address and (rounded, split) size of the
    block that served it.  Per segment reserved or released after the first
    request, in order: the index among the calls (:func:`call_rows`) of the
    one that made it, its kind code, id, address, size and ``segment:<pool>``
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


def _placement(blocks: List[int], addresses: List[int], sizes: List[int],
               rows: List[tuple], tags: List[str], preamble: int,
               stats: AllocatorStats) -> Placement:
    """A :class:`Placement` from a pass's per-request and per-segment lists."""
    segments = np.array(rows, dtype=np.int64).reshape(len(rows), 5)
    return Placement(
        block_id=np.array(blocks, dtype=np.int64),
        address=np.array(addresses, dtype=np.int64),
        size=np.array(sizes, dtype=np.int64),
        segment_op=segments[:, 0], segment_kind=segments[:, 1],
        segment_id=segments[:, 2], segment_address=segments[:, 3],
        segment_size=segments[:, 4],
        segment_tags=tags, preamble_segments=preamble, stats=stats)


def _bad_free(block: int, tag: str) -> InvalidFreeError:
    return InvalidFreeError(f"block {block} (tag={tag!r}) is not currently allocated")


def _place_caching(nbytes: List[int], tag_of: Callable[[int], str], calls: List[int],
                   capacity: int) -> Placement:
    """The caching allocator's pass (see the module docstring for the policy)."""
    n = len(nbytes)
    served_block, served_address, served_size = [0] * n, [0] * n, [0] * n
    live = bytearray(n)
    # Per block id (0: no block): address, size, allocated, neighbours,
    # segment and free-list key.
    address, size, allocated = [0], [0], [False]
    prev, after, segment_of, key_of = [0], [0], [0], [0]
    # Per segment id: address, size, pool, first block, tag; live ones in order.
    segment_address, segment_size, segment_pool, segment_first = [0], [0], [None], [0]
    segment_tag: List[str] = [""]
    live_segments: List[int] = []
    small_pool: List[int] = []
    large_pool: List[int] = []
    rows: List[tuple] = []
    tags: List[str] = []
    sequence = 0
    next_address = BASE_ADDRESS
    allocated_bytes = reserved = active = 0
    peak_allocated = peak_reserved = peak_active = 0
    mallocs = frees = alloc_bytes = hits = misses = 0
    segment_allocs = segment_frees = splits = coalesces = 0
    for call, op in enumerate(calls):
        if op >= 0:
            wanted = nbytes[op]
            rounded = (wanted + 511) & -512 if wanted > 0 else MIN_BLOCK_SIZE  # round_block_size
            small = rounded <= SMALL_ALLOCATION_LIMIT
            pool = small_pool if small else large_pool
            at = bisect_left(pool, rounded << _SIZE)
            if at < len(pool):
                block = pool.pop(at) & _BLOCK
                hits += 1
            else:
                misses += 1
                reserve = segment_size_for(rounded)
                if reserve > capacity - reserved:
                    failure = OutOfMemoryError(requested=reserve, free=capacity - reserved,
                                               reserved=reserved, capacity=capacity)
                    # Like PyTorch: release every fully free segment and
                    # retry once before surfacing the out-of-memory.
                    released = 0
                    for segment in list(live_segments):
                        first = cursor = segment_first[segment]
                        while cursor and not allocated[cursor]:
                            cursor = after[cursor]
                        if cursor:
                            continue
                        cached = segment_pool[segment]
                        while first:
                            at = bisect_left(cached, key_of[first])
                            if at < len(cached) and cached[at] == key_of[first]:
                                del cached[at]
                            first = after[first]
                        live_segments.remove(segment)
                        released += segment_size[segment]
                        reserved -= segment_size[segment]
                        segment_frees += 1
                        rows.append((call, _SEGMENT_FREE, segment, segment_address[segment],
                                     segment_size[segment]))
                        tags.append(segment_tag[segment])
                    if released <= 0:
                        raise failure
                    if reserve > capacity - reserved:
                        raise OutOfMemoryError(requested=reserve, free=capacity - reserved,
                                               reserved=reserved, capacity=capacity)
                segment = len(segment_address)
                block = len(address)
                segment_address.append(next_address)
                segment_size.append(reserve)
                segment_pool.append(pool)
                segment_first.append(block)
                segment_tag.append("segment:small" if small else "segment:large")
                live_segments.append(segment)
                address.append(next_address)
                size.append(reserve)
                allocated.append(False)
                prev.append(0)
                after.append(0)
                segment_of.append(segment)
                key_of.append(0)
                rows.append((call, _SEGMENT_ALLOC, segment, next_address, reserve))
                tags.append(segment_tag[segment])
                next_address += _aligned(reserve)
                reserved += reserve
                segment_allocs += 1
                if reserved > peak_reserved:
                    peak_reserved = reserved
            block_size = size[block]
            remainder = block_size - rounded
            if remainder >= MIN_BLOCK_SIZE if small else remainder > LARGE_SPLIT_REMAINDER:
                tail = len(address)
                address.append(address[block] + rounded)
                size.append(remainder)
                allocated.append(False)
                prev.append(block)
                following = after[block]
                after.append(following)
                if following:
                    prev[following] = tail
                after[block] = tail
                segment_of.append(segment_of[block])
                key = remainder << _SIZE | sequence << _TIE | tail
                sequence += 1
                key_of.append(key)
                insort(pool, key)
                size[block] = block_size = rounded
                splits += 1
            allocated[block] = True
            live[op] = True
            served_block[op] = block
            served_address[op] = address[block]
            served_size[op] = block_size
            allocated_bytes += block_size
            alloc_bytes += block_size
            active += 1
            mallocs += 1
            if allocated_bytes > peak_allocated:
                peak_allocated = allocated_bytes
            if active > peak_active:
                peak_active = active
        else:
            request = ~op
            block = served_block[request]
            if not live[request]:
                raise _bad_free(block, tag_of(request))
            live[request] = False
            allocated[block] = False
            block_size = size[block]
            allocated_bytes -= block_size
            active -= 1
            frees += 1
            pool = segment_pool[segment_of[block]]
            # Merge the right neighbour first so addresses stay contiguous;
            # the left-most block keeps its id.
            neighbour = after[block]
            if neighbour and not allocated[neighbour]:
                del pool[bisect_left(pool, key_of[neighbour])]
                block_size += size[neighbour]
                following = after[block] = after[neighbour]
                if following:
                    prev[following] = block
                coalesces += 1
            neighbour = prev[block]
            if neighbour and not allocated[neighbour]:
                del pool[bisect_left(pool, key_of[neighbour])]
                block_size += size[neighbour]
                following = after[neighbour] = after[block]
                if following:
                    prev[following] = neighbour
                coalesces += 1
                block = neighbour
            size[block] = block_size
            key_of[block] = key = block_size << _SIZE | sequence << _TIE | block
            sequence += 1
            insort(pool, key)
    return _placement(served_block, served_address, served_size, rows, tags, 0, AllocatorStats(
        allocated_bytes=allocated_bytes, reserved_bytes=reserved, active_blocks=active,
        peak_allocated_bytes=peak_allocated, peak_reserved_bytes=peak_reserved,
        peak_active_blocks=peak_active, total_alloc_count=mallocs, total_free_count=frees,
        total_alloc_bytes=alloc_bytes, cache_hits=hits, cache_misses=misses,
        segment_allocs=segment_allocs, segment_frees=segment_frees, split_count=splits,
        coalesce_count=coalesces))


def _place_best_fit(nbytes: List[int], tag_of: Callable[[int], str], calls: List[int],
                    capacity: int) -> Placement:
    """A non-caching best-fit pass over one big arena (ablation baseline).

    95 % of the device, aligned down, is reserved as a single segment before
    the first request; every allocation takes the best-fitting free block of
    the arena (the lowest address among equal sizes) and every free
    coalesces immediately.  There is no pooling and no size rounding beyond
    the 512-byte granularity, so the event stream and fragmentation profile
    differ from the caching allocator's.
    """
    n = len(nbytes)
    served_block, served_address, served_size = [0] * n, [0] * n, [0] * n
    live = bytearray(n)
    arena = int(capacity * _ARENA_SHARE) // SEGMENT_ALIGNMENT * SEGMENT_ALIGNMENT
    # Per block id (0: no block); block 1 covers the arena.
    address, size, allocated = [0, BASE_ADDRESS], [0, arena], [False, False]
    prev, after, key_of = [0, 0], [0, 0], [0, arena << _SIZE | 1]
    pool = [key_of[1]]
    allocated_bytes = active = peak_allocated = peak_active = 0
    mallocs = frees = alloc_bytes = splits = coalesces = 0
    for op in calls:
        if op >= 0:
            wanted = nbytes[op]
            rounded = (wanted + 511) & -512 if wanted > 0 else MIN_BLOCK_SIZE
            at = bisect_left(pool, rounded << _SIZE)
            if at == len(pool):
                raise OutOfMemoryError(requested=rounded,
                                       free=pool[-1] >> _SIZE if pool else 0,
                                       reserved=arena, capacity=capacity)
            block = pool.pop(at) & _BLOCK
            block_size = size[block]
            remainder = block_size - rounded
            if remainder >= MIN_BLOCK_SIZE:
                tail = len(address)
                start = address[block] + rounded
                address.append(start)
                size.append(remainder)
                allocated.append(False)
                prev.append(block)
                following = after[block]
                after.append(following)
                if following:
                    prev[following] = tail
                after[block] = tail
                key = remainder << _SIZE | (start - BASE_ADDRESS) << _TIE | tail
                key_of.append(key)
                insort(pool, key)
                size[block] = block_size = rounded
                splits += 1
            allocated[block] = True
            live[op] = True
            served_block[op] = block
            served_address[op] = address[block]
            served_size[op] = block_size
            allocated_bytes += block_size
            alloc_bytes += block_size
            active += 1
            mallocs += 1
            if allocated_bytes > peak_allocated:
                peak_allocated = allocated_bytes
            if active > peak_active:
                peak_active = active
        else:
            request = ~op
            block = served_block[request]
            if not live[request]:
                raise _bad_free(block, tag_of(request))
            live[request] = False
            allocated[block] = False
            block_size = size[block]
            allocated_bytes -= block_size
            active -= 1
            frees += 1
            neighbour = after[block]
            if neighbour and not allocated[neighbour]:
                del pool[bisect_left(pool, key_of[neighbour])]
                block_size += size[neighbour]
                following = after[block] = after[neighbour]
                if following:
                    prev[following] = block
                coalesces += 1
            neighbour = prev[block]
            if neighbour and not allocated[neighbour]:
                del pool[bisect_left(pool, key_of[neighbour])]
                block_size += size[neighbour]
                following = after[neighbour] = after[block]
                if following:
                    prev[following] = neighbour
                coalesces += 1
                block = neighbour
            size[block] = block_size
            key_of[block] = key = (block_size << _SIZE
                                   | (address[block] - BASE_ADDRESS) << _TIE | block)
            insort(pool, key)
    return _placement(served_block, served_address, served_size, [], [], 1, AllocatorStats(
        allocated_bytes=allocated_bytes, reserved_bytes=arena, active_blocks=active,
        peak_allocated_bytes=peak_allocated, peak_reserved_bytes=arena,
        peak_active_blocks=peak_active, total_alloc_count=mallocs, total_free_count=frees,
        total_alloc_bytes=alloc_bytes, segment_allocs=1, split_count=splits,
        coalesce_count=coalesces))


def _place_bump(nbytes: List[int], tag_of: Callable[[int], str], calls: List[int],
                capacity: int) -> Placement:
    """A linear (bump-pointer) pass that never reuses memory (ablation baseline).

    Every allocation reserves a fresh segment of its rounded size and frees
    only bookkeep: the most naive runtime possible, showing how much the
    caching allocator's block reuse shapes the per-block behavior streams
    and bounding the footprint a workload would need without any reuse.
    Block ``k`` is the ``k``-th malloc, in segment ``k``.
    """
    n = len(nbytes)
    served_block, served_address, served_size = [0] * n, [0] * n, [0] * n
    allocated = [False] * (n + 1)
    rows: List[tuple] = []
    next_address = BASE_ADDRESS
    reserved = allocated_bytes = active = peak_allocated = peak_active = 0
    block = frees = 0
    for call, op in enumerate(calls):
        if op >= 0:
            wanted = nbytes[op]
            rounded = (wanted + 511) & -512 if wanted > 0 else MIN_BLOCK_SIZE
            if reserved + rounded > capacity:
                raise OutOfMemoryError(requested=rounded, free=capacity - reserved,
                                       reserved=reserved, capacity=capacity)
            block += 1
            rows.append((call, _SEGMENT_ALLOC, block, next_address, rounded))
            allocated[block] = True
            served_block[op] = block
            served_address[op] = next_address
            served_size[op] = rounded
            next_address += _aligned(rounded)
            reserved += rounded
            allocated_bytes += rounded
            active += 1
            if allocated_bytes > peak_allocated:
                peak_allocated = allocated_bytes
            if active > peak_active:
                peak_active = active
        else:
            request = ~op
            served = served_block[request]
            if not allocated[served]:
                raise _bad_free(served, tag_of(request))
            allocated[served] = False
            allocated_bytes -= served_size[request]
            active -= 1
            frees += 1
    return _placement(served_block, served_address, served_size, rows,
                      ["segment:bump"] * block, 0, AllocatorStats(
                          allocated_bytes=allocated_bytes, reserved_bytes=reserved,
                          active_blocks=active, peak_allocated_bytes=peak_allocated,
                          peak_reserved_bytes=reserved, peak_active_blocks=peak_active,
                          total_alloc_count=block, total_free_count=frees,
                          total_alloc_bytes=reserved, segment_allocs=block))


#: The placement pass of each allocator policy, by name.
PLACEMENT_PASSES = {
    "caching": _place_caching,
    "best_fit": _place_best_fit,
    "bump": _place_bump,
}


def check_allocator(name: str) -> str:
    """``name`` if it is a registered allocator (KeyError listing them if not)."""
    if name not in PLACEMENT_PASSES:
        known = ", ".join(sorted(PLACEMENT_PASSES))
        raise KeyError(f"unknown allocator '{name}'; known allocators: {known}")
    return name


def call_rows(columns: EventColumns) -> np.ndarray:
    """The rows of a recording that are a malloc or a free: its calls, in order."""
    kind = columns.kind_code
    return np.flatnonzero((kind == _MALLOC) | (kind == _FREE))


def place(recording: MemoryTrace, allocator: str, capacity: int) -> Placement:
    """Run allocator ``allocator``'s pass over ``recording`` under ``capacity`` bytes.

    Serves the recording's mallocs and frees in order, as the front end made
    them: a request is its malloc row (its id the malloc's ordinal, its
    bytes the row's ``size``) and is freed by the free row with its id.  An
    :class:`~repro.errors.OutOfMemoryError` propagates from the request that
    hits it; the free of a request that is not live names the request's tag.
    """
    columns = recording.columns()
    rows = call_rows(columns)
    request = columns.block_id[rows]
    malloc = columns.kind_code[rows] == _MALLOC
    mallocs = rows[malloc]
    calls = np.where(malloc, request, ~request).tolist()

    def tag_of(request: int) -> str:
        return recording.event_tags[mallocs[request]]
    return PLACEMENT_PASSES[check_allocator(allocator)](
        columns.size[mallocs].tolist(), tag_of, calls, int(capacity))
