"""memcached server proxy (paper Fig. 9).

The paper runs a single memcached server thread and reports the
distribution of transaction service times when co-located with a streaming
aggressor.  We model the server as a closed-loop transaction workload: each
transaction is a short *dependent* chain of memory accesses (hash-bucket
walk, then the value read) with per-access compute, followed by client think
time.  Dependent chains make service time directly proportional to memory
latency, which is exactly the coupling Fig. 9 demonstrates PABST removing.

Service-time bookkeeping relies on a :class:`repro.cpu.model.Core` contract:
an access returned at time ``t`` with gap ``g`` issues at exactly ``t + g``,
so the transaction start (first access issue, i.e. after client think time)
is known when the access is generated.
"""

from __future__ import annotations

from repro.workloads.base import Access, Workload

__all__ = ["MemcachedWorkload"]


class MemcachedWorkload(Workload):
    """Closed-loop GET-transaction generator with service-time tracking.

    Attributes
    ----------
    service_times:
        Cycles from a transaction's first access issue until its last access
        completes (client think time excluded), for every transaction after
        the warm-up, in completion order.
    """

    def __init__(
        self,
        transactions: int | None = 1000,
        warmup_transactions: int = 100,
        hash_table_bytes: int = 16 << 20,
        value_region_bytes: int = 48 << 20,
        min_chain: int = 2,
        max_chain: int = 4,
        compute_per_access: int = 30,
        think_time: int = 200,
        instructions_per_access: int = 50,
        name: str = "memcached",
    ) -> None:
        super().__init__()
        if transactions is not None and transactions <= 0:
            raise ValueError("transactions must be positive or None")
        if warmup_transactions < 0:
            raise ValueError("warmup_transactions must be non-negative")
        if not 1 <= min_chain <= max_chain:
            raise ValueError("need 1 <= min_chain <= max_chain")
        self.name = name
        self.contexts = 1  # one server thread, as in the paper
        self._transactions = transactions
        self._warmup = warmup_transactions
        self._hash_lines = hash_table_bytes // 64
        self._value_lines = value_region_bytes // 64
        self._value_base = hash_table_bytes
        self._min_chain = min_chain
        self._max_chain = max_chain
        self._compute = compute_per_access
        self._think = think_time
        self._inst = instructions_per_access

        self.service_times: list[int] = []
        self.completed_transactions = 0
        self._txn_start = 0
        self._remaining_in_txn = 0

    def next_access(self, context: int) -> Access | None:
        if self._remaining_in_txn == 0:
            if (
                self._transactions is not None
                and self.completed_transactions
                >= self._warmup + self._transactions
            ):
                return None
            chain = self.rng.integers(self._min_chain, self._max_chain + 1)
            self._remaining_in_txn = chain + 1  # bucket walk + value read
            gap = self._think
            self._txn_start = self.now + gap  # issue time of the first access
        else:
            gap = self._compute

        self._remaining_in_txn -= 1
        if self._remaining_in_txn == 0:
            offset = self._value_base + self.rng.integers(self._value_lines) * 64
        else:
            offset = self.rng.integers(self._hash_lines) * 64
        return Access(
            addr=self.base_addr + offset,
            is_write=False,
            gap=gap,
            instructions=self._inst,
        )

    def on_complete(self, context: int, access: Access, now: int) -> None:
        if self._remaining_in_txn == 0:
            self.completed_transactions += 1
            if self.completed_transactions > self._warmup:
                self.service_times.append(now - self._txn_start)
