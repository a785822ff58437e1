"""Tests for the best-fit and bump ablation allocators."""

import pytest

from repro.core.events import MemoryCategory
from repro.device.allocator import BestFitAllocator, BumpAllocator, place
from repro.device.memory import RequestLog
from repro.errors import InvalidFreeError, OutOfMemoryError
from repro.units import KIB, MIB


def make_best_fit(capacity=64 * MIB):
    return BestFitAllocator(capacity)


def make_bump(capacity=64 * MIB):
    return BumpAllocator(capacity)


# -- best fit -----------------------------------------------------------------------------


def test_best_fit_reserves_one_arena_upfront():
    allocator = make_best_fit()
    assert allocator.stats.segment_allocs == 1
    assert allocator.reserved_bytes > 0


def test_best_fit_allocates_and_frees():
    allocator = make_best_fit()
    block = allocator.allocate(100 * KIB, tag="x")
    assert block.allocated
    assert allocator.allocated_bytes == block.size
    allocator.free(block)
    assert allocator.allocated_bytes == 0


def test_best_fit_chooses_smallest_sufficient_hole():
    allocator = make_best_fit()
    first = allocator.allocate(1 * MIB)
    second = allocator.allocate(4 * MIB)
    third = allocator.allocate(2 * MIB)
    allocator.free(first)
    allocator.free(third)
    # A 1.5 MiB request fits both holes; best fit should take the 2 MiB one.
    block = allocator.allocate(int(1.5 * MIB))
    assert block.address == third.address
    allocator.free(second)


def test_best_fit_coalesces_adjacent_holes():
    allocator = make_best_fit()
    blocks = [allocator.allocate(1 * MIB) for _ in range(3)]
    for block in blocks:
        allocator.free(block)
    allocator.check_invariants()
    segment = allocator.segments()[0]
    assert segment.is_fully_free()
    free_blocks = [b for b in segment.blocks() if not b.allocated]
    assert len(free_blocks) == 1


def test_best_fit_oom_when_no_hole_fits():
    allocator = make_best_fit(capacity=16 * MIB)
    allocator.allocate(10 * MIB)
    with pytest.raises(OutOfMemoryError):
        allocator.allocate(10 * MIB)


def test_best_fit_double_free_raises():
    allocator = make_best_fit()
    block = allocator.allocate(1024)
    allocator.free(block)
    with pytest.raises(InvalidFreeError):
        allocator.free(block)


# -- bump ----------------------------------------------------------------------------------


def test_bump_never_reuses_memory():
    allocator = make_bump()
    first = allocator.allocate(1 * MIB, tag="a")
    allocator.free(first)
    second = allocator.allocate(1 * MIB, tag="b")
    assert second.address != first.address
    assert second.block_id != first.block_id


def test_bump_oom_at_capacity():
    allocator = make_bump(capacity=4 * MIB)
    allocator.allocate(3 * MIB)
    with pytest.raises(OutOfMemoryError):
        allocator.allocate(2 * MIB)


def test_bump_reset_rewinds_the_cursor():
    allocator = make_bump(capacity=4 * MIB)
    allocator.allocate(3 * MIB)
    allocator.reset()
    block = allocator.allocate(3 * MIB)
    assert block.allocated
    assert allocator.stats.segment_frees >= 1


def test_bump_placement_reports_malloc_and_free():
    requests = RequestLog()
    requests.free(requests.malloc(1024, MemoryCategory.UNKNOWN, "", 0), 0)
    placement = place(requests, "bump", 64 * MIB)
    assert placement.stats.total_alloc_count == 1
    assert placement.stats.total_free_count == 1
    assert placement.segment_tags == ["segment:bump"]
