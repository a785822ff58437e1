"""Device memory primitives: the request log and the allocator counters.

A device's front end does not place anything: every ``malloc`` of a
training run adds one request to its :class:`RequestLog` (request id,
requested bytes, category, tag), its recorder writes each malloc and free
as a row against that id — the rows are the run's only record of the
calls — and an allocator is a pass over those calls after the run
(:func:`~repro.device.allocator.place`).

The caching allocator (like PyTorch's CUDA caching allocator) reserves large
*segments* from the device with ``cudaMalloc`` and carves them into *blocks*
that are handed out to tensors; freed blocks are cached, split and
coalesced.  A block is an integer id, numbered from 1 per placement: when
the caching allocator reuses a cached block for a new request the id is
kept, which is what allows access-time intervals (ATIs) to span allocator
round trips — exactly the block-level view the paper instruments.
:class:`AllocatorStats` are a placement's counters.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List

from ..core.events import MemoryCategory


class RequestLog:
    """The allocation requests of one device's front end, in call order.

    A request is one ``malloc``: its id is its index, and it keeps the bytes
    asked for, the category and the tag.  When each request was made and
    freed is the device recorder's (its malloc and free rows).
    """

    __slots__ = ("nbytes", "category", "tag")

    def __init__(self) -> None:
        self.nbytes = array("q")
        self.category: List[MemoryCategory] = []
        self.tag: List[str] = []

    def __len__(self) -> int:
        return len(self.tag)

    def add(self, nbytes: int, category: MemoryCategory, tag: str) -> int:
        """Log a request of ``nbytes``; returns its id."""
        request = len(self.tag)
        self.nbytes.append(nbytes)
        self.category.append(category)
        self.tag.append(tag)
        return request


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
