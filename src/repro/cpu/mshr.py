"""Miss Status Holding Registers.

MSHRs bound the number of outstanding L2 misses per core, which is what
limits the memory-level parallelism a workload can expose — the property
that makes latency-sensitive workloads unable to generate bandwidth when
memory latency rises (Section I).  Secondary misses to a line that is
already outstanding merge into the existing entry.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

__all__ = ["AllocationResult", "MshrFile"]


class AllocationResult(str, Enum):
    """Outcome of an allocation attempt."""

    NEW = "new"          # new entry allocated; a memory request must be sent
    MERGED = "merged"    # joined an outstanding entry; no new request
    FULL = "full"        # no entry free; the requester must stall


class MshrFile:
    """Fixed-capacity table of outstanding line misses with merging."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._entries: dict[int, list[Callable[[], None]]] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def outstanding(self) -> int:
        return len(self._entries)

    @property
    def available(self) -> int:
        return self._capacity - len(self._entries)

    def allocate(self, line_addr: int, on_complete: Callable[[], None]) -> AllocationResult:
        """Try to track a miss to ``line_addr``.

        ``on_complete`` fires when :meth:`complete` is called for the line.
        """
        waiters = self._entries.get(line_addr)
        if waiters is not None:
            waiters.append(on_complete)
            return AllocationResult.MERGED
        if len(self._entries) >= self._capacity:
            return AllocationResult.FULL
        self._entries[line_addr] = [on_complete]
        return AllocationResult.NEW

    def complete(self, line_addr: int) -> list[Callable[[], None]]:
        """Retire the entry and return the waiter callbacks to invoke."""
        waiters = self._entries.pop(line_addr, None)
        if waiters is None:
            raise KeyError(f"no outstanding miss for line {line_addr:#x}")
        return waiters
