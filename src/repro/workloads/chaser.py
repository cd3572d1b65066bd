"""Pointer-chasing microbenchmark (paper Section IV-A).

``chaser`` performs a small number of independent random pointer chases.
Each chase is a dependent chain — the next address is known only when the
previous load returns — so the benchmark can sustain exactly ``chains``
concurrent memory requests and its achievable bandwidth is inversely
proportional to memory latency.  This is the workload on which source-only
regulation fails (Fig. 1c): throttling cannot *lower* its latency, so it can
never generate its allotted share.
"""

from __future__ import annotations

from repro.workloads.base import Access, Workload

__all__ = ["ChaserWorkload"]


class ChaserWorkload(Workload):
    """Independent random pointer chases (default four, as in the paper)."""

    def __init__(
        self,
        working_set_bytes: int = 256 << 20,
        chains: int = 4,
        gap: int = 0,
        instructions_per_access: int = 2,
        name: str = "chaser",
    ) -> None:
        super().__init__()
        if working_set_bytes < 4096:
            raise ValueError("working_set_bytes too small for a pointer chase")
        if chains <= 0:
            raise ValueError("chains must be positive")
        self.name = name
        self.contexts = chains
        self._working_set = working_set_bytes
        self._lines = working_set_bytes // 64
        self._gap = gap
        self._inst = instructions_per_access

    def next_access(self, context: int) -> Access | None:
        line = self.rng.integers(self._lines)
        return Access(
            addr=self.base_addr + line * 64,
            is_write=False,
            gap=self._gap,
            instructions=self._inst,
        )
