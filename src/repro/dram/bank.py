"""DRAM bank state.

A bank serves one access at a time; under the closed-page policy (the
paper's default) every access pays activate + CAS and a precharge on the way
out, while the open-page option keeps the row latched for row-hit detection
by FR-FCFS and the PABST back-end arbiter.
"""

from __future__ import annotations

from repro.dram.timing import DramTiming, PagePolicy

__all__ = ["Bank"]


class Bank:
    """Timing state for one DRAM bank.

    The derived timing values (row-hit/row-miss prep, post-burst recovery)
    are flattened to plain ints at construction so the scheduler's ready
    scan — which probes every queued request against its bank on every
    pass — never re-derives them through :class:`DramTiming` method calls.
    """

    __slots__ = (
        "bank_id",
        "_timing",
        "_page_policy",
        "open_page",
        "prep_hit",
        "prep_miss",
        "_recovery",
        "busy_until",
        "open_row",
        "accesses",
        "row_hits",
    )

    def __init__(self, bank_id: int, timing: DramTiming, page_policy: str) -> None:
        if page_policy not in PagePolicy.ALL:
            raise ValueError(f"unknown page policy {page_policy!r}")
        self.bank_id = bank_id
        self._timing = timing
        self._page_policy = page_policy
        self.open_page = page_policy == PagePolicy.OPEN
        self.prep_hit = timing.access_prep(row_hit=True)
        self.prep_miss = timing.access_prep(row_hit=False)
        self._recovery = timing.bank_recovery(page_policy)
        self.busy_until = 0
        self.open_row: int | None = None
        self.accesses = 0
        self.row_hits = 0

    def is_row_hit(self, row: int) -> bool:
        """True when the access would hit the currently open row."""
        return self.open_page and self.open_row == row

    def prep_cycles(self, row: int) -> int:
        """Cycles from issue until the data burst can begin."""
        if self.open_page and self.open_row == row:
            return self.prep_hit
        return self.prep_miss

    def issue(self, now: int, row: int, data_end: int) -> None:
        """Commit an access whose data burst finishes at ``data_end``."""
        if now < self.busy_until:
            raise ValueError(
                f"bank {self.bank_id} busy until {self.busy_until}, now {now}"
            )
        self.accesses += 1
        if self.open_page and self.open_row == row:
            self.row_hits += 1
        self.busy_until = data_end + self._recovery
        self.open_row = row if self.open_page else None
