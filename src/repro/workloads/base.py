"""Workload interface.

A workload is a pure generator of memory accesses plus compute gaps, driven
by a :class:`repro.cpu.model.Core`.  Concurrency is expressed through
*contexts*: independent dependent-chains, each of which blocks until its
outstanding access completes.  The context count is therefore the workload's
memory-level parallelism, which — together with the MSHR limit — determines
whether the workload is bandwidth-bound (many contexts, e.g. ``stream``) or
latency-bound (few contexts, e.g. ``chaser``).

This is the synthetic substitute for the paper's QEMU-driven CPU front-end;
see DESIGN.md §4 for why it preserves the behaviour PABST regulates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cpu.model import Core
    from repro.sim.rng import Generator

__all__ = ["Access", "Workload"]

# Each core gets a disjoint 4 GiB address window so workloads never share
# data by accident; experiments that want sharing pass explicit bases.
CORE_ADDRESS_STRIDE = 1 << 32


class Access:
    """One memory operation a context performs.

    ``gap`` is compute time (cycles) the context spends before issuing;
    ``instructions`` is the retirement credit granted when it completes,
    which feeds the IPC used by weighted slowdown (Eq. 6).

    A hand-written ``__slots__`` class rather than a dataclass: one Access
    is created per access of every context, and the dataclass would add a
    ``__post_init__`` call frame to each construction.
    """

    __slots__ = ("addr", "is_write", "gap", "instructions")

    def __init__(
        self,
        addr: int,
        is_write: bool = False,
        gap: int = 0,
        instructions: int = 1,
    ) -> None:
        if addr < 0:
            raise ValueError("addr must be non-negative")
        if gap < 0:
            raise ValueError("gap must be non-negative")
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        self.addr = addr
        self.is_write = is_write
        self.gap = gap
        self.instructions = instructions

    def __repr__(self) -> str:
        return (
            f"Access(addr={self.addr:#x}, is_write={self.is_write}, "
            f"gap={self.gap}, instructions={self.instructions})"
        )


class Workload(ABC):
    """Generator of per-context access streams."""

    name: str = "workload"
    contexts: int = 1

    def __init__(self) -> None:
        self.core: "Core | None" = None
        self._rng: "Generator | None" = None
        self._base_addr = 0
        # bound at bind(): lets generators read the clock without the
        # workload.now -> core.now -> engine.now property chain
        self._engine = None

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, core: "Core") -> None:
        """Attach to the driving core; called once before simulation."""
        self.core = core
        self._rng = core.rng
        self._engine = core._engine
        self._base_addr = core.core_id * CORE_ADDRESS_STRIDE
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses needing per-core initialization."""

    @property
    def rng(self) -> "Generator":
        if self._rng is None:
            raise RuntimeError(f"workload {self.name!r} is not bound to a core")
        return self._rng

    @property
    def base_addr(self) -> int:
        return self._base_addr

    @property
    def now(self) -> int:
        if self.core is None:
            raise RuntimeError(f"workload {self.name!r} is not bound to a core")
        return self.core.now

    # ------------------------------------------------------------------
    # the generator interface
    # ------------------------------------------------------------------
    @abstractmethod
    def next_access(self, context: int) -> Access | None:
        """Produce the next access for ``context``; None retires the context."""

    def on_complete(self, context: int, access: Access, now: int) -> None:
        """Hook invoked when a context's access completes (service times)."""
