"""Unit tests for bandwidth timelines."""

import pytest

from repro.analysis.timeline import BandwidthTimeline
from repro.sim.stats import EpochSample


def sample(epoch, start, end, by_class, saturated=False, multiplier=-1):
    return EpochSample(
        epoch=epoch, start_cycle=start, end_cycle=end,
        bytes_by_class=by_class, saturated=saturated, multiplier=multiplier,
    )


def make_timeline():
    epochs = [
        sample(0, 0, 100, {0: 400, 1: 400}, saturated=True, multiplier=4),
        sample(1, 100, 200, {0: 600, 1: 200}, multiplier=8),
        sample(2, 200, 300, {0: 750, 1: 250}, multiplier=8),
    ]
    return BandwidthTimeline(epochs, peak_bytes_per_cycle=16.0)


class TestSeries:
    def test_utilization_series(self):
        timeline = make_timeline()
        assert timeline.utilization_series(0) == [
            pytest.approx(4 / 16), pytest.approx(6 / 16), pytest.approx(7.5 / 16)
        ]

    def test_share_series(self):
        timeline = make_timeline()
        assert timeline.share_series(0) == [
            pytest.approx(0.5), pytest.approx(0.75), pytest.approx(0.75)
        ]

    def test_total_utilization_series(self):
        timeline = make_timeline()
        assert timeline.total_utilization_series()[0] == pytest.approx(0.5)

    def test_sat_and_multiplier_series(self):
        timeline = make_timeline()
        assert [sample.saturated for sample in timeline.epochs] == [True, False, False]
        assert timeline.multiplier_series() == [4, 8, 8]

    def test_len(self):
        assert len(make_timeline()) == 3


class TestWindows:
    def test_window_summary(self):
        summary = make_timeline().window(0, start=1)
        assert summary.mean_share == pytest.approx(0.75)
        assert summary.min_share == pytest.approx(0.75)
        assert summary.mean_utilization == pytest.approx((6 / 16 + 7.5 / 16) / 2)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            make_timeline().window(0, start=99)

    def test_steady_share_skips_warmup(self):
        timeline = make_timeline()
        assert timeline.steady_share(0, warmup_epochs=1) == pytest.approx(0.75)
        assert timeline.steady_share(0, warmup_epochs=0) == pytest.approx(
            1750 / 2600
        )

    def test_steady_bytes(self):
        assert make_timeline().steady_bytes(1) == {0: 1350, 1: 450}

    def test_missing_class_is_zero(self):
        timeline = make_timeline()
        assert timeline.steady_share(9, warmup_epochs=0) == 0.0
        assert all(v == 0.0 for v in timeline.utilization_series(9))

    def test_peak_validation(self):
        with pytest.raises(ValueError):
            BandwidthTimeline([], peak_bytes_per_cycle=0)


class TestZeroLengthFinalEpoch:
    """A run ending exactly on an epoch boundary appends a cycles==0 sample.

    ``Stats.close_epoch`` produces it; every timeline query and the
    report renderer downstream must survive it without dividing by zero
    or leaking the ``-1`` multiplier sentinel into report text.
    """

    def make_timeline_with_empty_tail(self):
        from repro.sim.stats import Stats

        stats = Stats()
        stats._epoch_bytes = {0: 800, 1: 200}
        stats.close_epoch(now=100, saturated=True, multiplier=4)
        final = stats.close_epoch(now=100)  # zero-length tail
        assert final.cycles == 0
        return BandwidthTimeline(stats.epochs, peak_bytes_per_cycle=16.0)

    def test_series_render_zero_not_nan(self):
        timeline = self.make_timeline_with_empty_tail()
        assert timeline.utilization_series(0) == [0.5, 0.0]
        assert timeline.total_utilization_series() == [0.625, 0.0]
        assert timeline.share_series(0) == [0.8, 0.0]

    def test_window_over_empty_tail(self):
        timeline = self.make_timeline_with_empty_tail()
        summary = timeline.window(0, 0)
        assert summary.min_share == 0.0
        assert summary.max_share == 0.8

    def test_report_text_has_no_sentinel(self):
        from repro.analysis.report import format_series

        timeline = self.make_timeline_with_empty_tail()
        text = "\n".join(
            format_series(label, series)
            for label, series in (
                ("hi", timeline.utilization_series(0)),
                ("lo", timeline.utilization_series(1)),
                ("total", timeline.total_utilization_series()),
            )
        )
        assert "-1" not in text
        assert "nan" not in text and "inf" not in text

    def test_multiplier_sentinel_stays_out_of_stream_records(self):
        from repro.obs.streams import epoch_record

        timeline = self.make_timeline_with_empty_tail()
        records = [epoch_record(sample) for sample in timeline.epochs]
        assert records[0]["multiplier"] == 4
        assert records[1]["multiplier"] is None
        assert records[1]["bandwidth_by_class"] == {}
