"""Unit and property tests for the MSHR file."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu.mshr import AllocationResult, MshrFile


class TestAllocation:
    def test_new_entry(self):
        mshrs = MshrFile(2)
        assert mshrs.allocate(0x100, lambda: None) is AllocationResult.NEW
        assert mshrs.outstanding == 1
        assert mshrs.available == 1

    def test_merge_same_line(self):
        mshrs = MshrFile(2)
        mshrs.allocate(0x100, lambda: None)
        assert mshrs.allocate(0x100, lambda: None) is AllocationResult.MERGED
        assert mshrs.outstanding == 1  # merged, no new entry

    def test_full(self):
        mshrs = MshrFile(1)
        mshrs.allocate(0x100, lambda: None)
        assert mshrs.allocate(0x200, lambda: None) is AllocationResult.FULL

    def test_merge_allowed_even_when_full(self):
        mshrs = MshrFile(1)
        mshrs.allocate(0x100, lambda: None)
        assert mshrs.allocate(0x100, lambda: None) is AllocationResult.MERGED

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MshrFile(0)


class TestCompletion:
    def test_complete_returns_all_waiters_in_order(self):
        mshrs = MshrFile(4)
        calls = []
        mshrs.allocate(0x100, lambda: calls.append("a"))
        mshrs.allocate(0x100, lambda: calls.append("b"))
        for callback in mshrs.complete(0x100):
            callback()
        assert calls == ["a", "b"]
        assert mshrs.outstanding == 0

    def test_complete_unknown_line_raises(self):
        with pytest.raises(KeyError):
            MshrFile(1).complete(0x100)

    def test_complete_frees_capacity(self):
        mshrs = MshrFile(1)
        mshrs.allocate(0x100, lambda: None)
        mshrs.complete(0x100)
        assert mshrs.allocate(0x200, lambda: None) is AllocationResult.NEW

    def test_is_outstanding(self):
        mshrs = MshrFile(1)
        assert mshrs.outstanding == 0
        mshrs.allocate(0x100, lambda: None)
        # a full file still merges a miss to its outstanding line
        assert mshrs.allocate(0x100, lambda: None) is AllocationResult.MERGED
        assert mshrs.allocate(0x140, lambda: None) is AllocationResult.FULL


@given(
    capacity=st.integers(min_value=1, max_value=8),
    lines=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=64),
)
def test_property_outstanding_never_exceeds_capacity(capacity, lines):
    mshrs = MshrFile(capacity)
    outstanding = set()
    for line in lines:
        result = mshrs.allocate(line, lambda: None)
        if result is AllocationResult.NEW:
            outstanding.add(line)
        elif result is AllocationResult.MERGED:
            assert line in outstanding
        else:
            assert len(outstanding) == capacity
        assert mshrs.outstanding <= capacity
        # occasionally retire the oldest entry
        if len(outstanding) == capacity:
            victim = next(iter(outstanding))
            mshrs.complete(victim)
            outstanding.discard(victim)
