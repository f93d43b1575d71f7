"""Unit + property tests for the buddy allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, OutOfMemoryError
from tests.mem.fault_oracle import BuddyAllocator


class TestBasics:
    def test_initial_state(self):
        buddy = BuddyAllocator(max_order=4)
        assert buddy.total_pages == 16
        assert buddy.free_pages == 16
        assert buddy.is_empty

    def test_alloc_whole_region(self):
        buddy = BuddyAllocator(4)
        assert buddy.alloc(4) == 0
        assert buddy.free_pages == 0

    def test_alloc_splits(self):
        buddy = BuddyAllocator(3)
        first = buddy.alloc(0)
        second = buddy.alloc(0)
        assert first != second
        assert buddy.free_pages == 6

    def test_order_for(self):
        assert BuddyAllocator.order_for(1) == 0
        assert BuddyAllocator.order_for(2) == 1
        assert BuddyAllocator.order_for(3) == 2
        assert BuddyAllocator.order_for(512) == 9

    def test_order_for_invalid(self):
        with pytest.raises(AllocationError):
            BuddyAllocator.order_for(0)

    def test_exhaustion(self):
        buddy = BuddyAllocator(2)
        buddy.alloc(2)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc(0)

    def test_oversized_request(self):
        with pytest.raises(OutOfMemoryError):
            BuddyAllocator(2).alloc(3)

    def test_free_coalesces_to_full(self):
        buddy = BuddyAllocator(3)
        offsets = [buddy.alloc(0) for _ in range(8)]
        for offset in offsets:
            buddy.free(offset)
        assert buddy.is_empty
        assert buddy.largest_free_order() == 3
        assert buddy.alloc(3) == 0

    def test_double_free(self):
        buddy = BuddyAllocator(2)
        offset = buddy.alloc(0)
        buddy.free(offset)
        with pytest.raises(AllocationError):
            buddy.free(offset)

    def test_free_unallocated(self):
        with pytest.raises(AllocationError):
            BuddyAllocator(2).free(1)

    def test_alloc_pages_rounds_up(self):
        buddy = BuddyAllocator(4)
        buddy.alloc_pages(3)  # rounds to order 2 = 4 pages
        assert buddy.free_pages == 12

    def test_largest_free_order_when_full(self):
        buddy = BuddyAllocator(1)
        buddy.alloc(1)
        assert buddy.largest_free_order() == -1


@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(0, 3)),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_invariants_under_random_workload(operations):
    """Free-page accounting and disjointness hold for any op sequence."""
    buddy = BuddyAllocator(max_order=6)
    live: list[tuple[int, int]] = []  # (offset, order)
    for action, order in operations:
        if action == "alloc":
            try:
                offset = buddy.alloc(order)
            except OutOfMemoryError:
                continue
            live.append((offset, order))
        elif live:
            offset, order = live.pop()
            buddy.free(offset)
    used = sum(1 << order for _offset, order in live)
    assert buddy.free_pages == buddy.total_pages - used
    # No two live blocks overlap.
    spans = sorted(
        (offset, offset + (1 << order)) for offset, order in live
    )
    for (start_a, end_a), (start_b, _end_b) in zip(spans, spans[1:]):
        assert end_a <= start_b
    # Blocks are naturally aligned.
    for offset, order in live:
        assert offset % (1 << order) == 0
