"""Unit tests for DRAM bank state."""

import pytest

from repro.dram.bank import Bank
from repro.dram.channel import DataBus
from repro.dram.timing import DramTiming, PagePolicy


def make_bank(policy=PagePolicy.CLOSED):
    return Bank(0, DramTiming(t_rcd=30, t_cl=30, t_rp=30, t_burst=8), policy)


class TestBank:
    def test_fresh_bank_is_free(self):
        assert make_bank().busy_until == 0

    def test_issue_makes_busy_until_recovery(self):
        bank = make_bank()
        bank.issue(now=0, row=5, data_end=68)
        assert bank.busy_until == 68 + 30  # closed page pays tRP
        assert bank.accesses == 1

    def test_open_page_keeps_row_and_skips_recovery(self):
        bank = make_bank(PagePolicy.OPEN)
        bank.issue(now=0, row=5, data_end=68)
        assert bank.open_row == 5
        assert bank.busy_until == 68
        assert bank.is_row_hit(5) and not bank.is_row_hit(6)

    def test_closed_page_never_row_hits(self):
        bank = make_bank()
        bank.issue(now=0, row=5, data_end=68)
        assert bank.open_row is None
        assert not bank.is_row_hit(5)

    def test_prep_cycles_reflect_row_state(self):
        bank = make_bank(PagePolicy.OPEN)
        assert bank.prep_cycles(5) == 60
        bank.issue(now=0, row=5, data_end=68)
        assert bank.prep_cycles(5) == 30   # row hit
        assert bank.prep_cycles(6) == 60

    def test_row_hit_counter(self):
        bank = make_bank(PagePolicy.OPEN)
        bank.issue(now=0, row=5, data_end=10)
        bank.issue(now=20, row=5, data_end=30)
        assert bank.row_hits == 1

    def test_issue_while_busy_rejected(self):
        bank = make_bank()
        bank.issue(now=0, row=1, data_end=68)
        with pytest.raises(ValueError):
            bank.issue(now=50, row=2, data_end=118)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Bank(0, DramTiming(), "magic")


class TestDataBus:
    def test_reserve_back_to_back(self):
        bus = DataBus(8)
        assert bus.reserve(10) == (10, 18)
        assert bus.reserve(12) == (18, 26)   # pushed behind prior burst
        assert bus.busy_cycles == 16
        assert bus.transfers == 2

    def test_reserve_after_idle_gap(self):
        bus = DataBus(8)
        bus.reserve(0)
        assert bus.reserve(100) == (100, 108)

    def test_invalid_burst(self):
        with pytest.raises(ValueError):
            DataBus(0)
