"""Request records that flow through the simulated memory system.

A :class:`MemoryRequest` is created when an L2 miss leaves a core and carries
timestamps for every hop so the analysis layer can attribute latency to the
pacer, the interconnect, the front-end queue, and DRAM service.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "AccessType",
    "LIFECYCLE_STAGES",
    "MemoryRequest",
    "next_request_id",
]

#: Attribute names of the lifecycle timestamps, in hop order.
LIFECYCLE_STAGES = (
    "created_at",
    "released_at",
    "arrived_mc_at",
    "dispatched_at",
    "issued_at",
    "completed_at",
)

_request_ids = itertools.count()


def next_request_id() -> int:
    """Return a process-unique, monotonically increasing request id."""
    return next(_request_ids)


class AccessType(str, Enum):
    """Kind of memory-system transaction."""

    READ = "read"
    WRITE = "write"
    WRITEBACK = "writeback"

    @property
    def is_read(self) -> bool:
        return self is AccessType.READ


@dataclass(slots=True)
class MemoryRequest:
    """One cache-line transaction travelling from a source to a target.

    Timestamps are in engine cycles; ``-1`` means "has not happened".
    """

    addr: int
    access: AccessType
    qos_id: int
    core_id: int
    size: int = 64
    # bound method of the shared counter: skips the next_request_id frame
    # on every construction (requests are minted once per L2 miss)
    req_id: int = field(default_factory=_request_ids.__next__)

    # lifecycle timestamps
    created_at: int = -1          # L2 miss detected
    released_at: int = -1         # passed the pacer onto the NoC
    arrived_mc_at: int = -1       # entered a memory-controller front-end queue
    dispatched_at: int = -1       # moved to a back-end bank queue
    issued_at: int = -1           # bank access began
    completed_at: int = -1        # data transfer finished

    # routing / mechanism state
    mc_id: int = -1
    bank_id: int = -1
    row_id: int = -1
    l3_hit: bool = False
    caused_writeback: bool = False
    virtual_deadline: int = 0
    #: Global NoC injection sequence number, stamped by the system when
    #: the request enters the network.  Ingress pumps and the response
    #: inbox sort on it, making admission/delivery order a function of
    #: the traffic instead of event insertion order.
    noc_seq: int = -1

    # Derived from ``access`` once at construction: these flags sit on the
    # controller's per-pass hot path, where a property doing an enum
    # membership test per call is measurable.
    is_read: bool = field(init=False, repr=False, compare=False)
    #: True for transactions that occupy the write path at the MC.
    is_memory_write: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_read = self.access is AccessType.READ
        self.is_memory_write = self.access in (AccessType.WRITE, AccessType.WRITEBACK)

    @property
    def total_latency(self) -> int:
        """Cycles from L2 miss to completion (requires completion)."""
        if self.completed_at < 0 or self.created_at < 0:
            raise ValueError(f"request {self.req_id} has not completed")
        return self.completed_at - self.created_at

    @property
    def pacer_delay(self) -> int:
        """Cycles the request waited at the source governor."""
        if self.released_at < 0 or self.created_at < 0:
            raise ValueError(f"request {self.req_id} was never released")
        return self.released_at - self.created_at

    @property
    def queue_delay(self) -> int:
        """Cycles spent waiting in MC queues before the bank access began."""
        if self.issued_at < 0 or self.arrived_mc_at < 0:
            raise ValueError(f"request {self.req_id} was never issued to a bank")
        return self.issued_at - self.arrived_mc_at

    # ------------------------------------------------------------------
    # lifecycle introspection (used by the runtime sanitizer)
    # ------------------------------------------------------------------
    def lifecycle(self) -> tuple[tuple[str, int], ...]:
        """``(stage, timestamp)`` pairs in hop order (``-1`` = not reached)."""
        return tuple((stage, getattr(self, stage)) for stage in LIFECYCLE_STAGES)

    def hop_trace(self) -> str:
        """One-line trace of every hop, for diagnostics.

        Example: ``req 7 read qos=0 core=1 mc=0 bank=3 | created=10
        released=12 arrived_mc=20 dispatched=31 issued=31 completed=55``.
        """
        stamps = " ".join(
            f"{stage.removesuffix('_at')}={value}"
            for stage, value in self.lifecycle()
            if value >= 0
        )
        return (
            f"req {self.req_id} {self.access.value} qos={self.qos_id} "
            f"core={self.core_id} mc={self.mc_id} bank={self.bank_id} "
            f"| {stamps or 'no timestamps'}"
        )

    def lifecycle_violation(self) -> str | None:
        """Describe the first lifecycle-ordering violation, or None.

        Stages a request legitimately skips (an L3 hit never reaches a
        controller; a writeback is created and released in the same call)
        are simply absent; among the stamps that *are* set, hop order must
        be monotone and nothing may precede ``created``.
        """
        stamped = [(stage, value) for stage, value in self.lifecycle() if value >= 0]
        if not stamped:
            return None
        if self.created_at < 0:
            return f"request has {stamped[0][0]} but was never created"
        for (earlier, t0), (later, t1) in zip(stamped, stamped[1:]):
            if t1 < t0:
                return (
                    f"lifecycle out of order: {later}={t1} precedes "
                    f"{earlier}={t0}"
                )
        return None
