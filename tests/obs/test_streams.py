"""Unit tests for epoch metric records and sinks."""

import json

from repro.obs.streams import JsonlSink, MemorySink, epoch_record
from repro.sim.stats import EpochSample


def sample(**overrides):
    base = dict(
        epoch=3,
        start_cycle=1000,
        end_cycle=2000,
        bytes_by_class={0: 640, 1: 320},
        saturated=True,
        multiplier=12,
    )
    base.update(overrides)
    return EpochSample(**base)


class TestEpochRecord:
    def test_bandwidth_per_class(self):
        record = epoch_record(sample())
        assert record["cycles"] == 1000
        assert record["bandwidth_by_class"] == {0: 0.64, 1: 0.32}
        assert record["saturated"] is True
        assert record["multiplier"] == 12

    def test_zero_length_epoch_reports_zero_bandwidth(self):
        record = epoch_record(sample(end_cycle=1000))
        assert record["cycles"] == 0
        assert record["bandwidth_by_class"] == {0: 0.0, 1: 0.0}

    def test_multiplier_sentinel_becomes_none(self):
        assert epoch_record(sample(multiplier=-1))["multiplier"] is None

    def test_record_is_jsonable_and_detached(self):
        original = sample()
        record = epoch_record(original)
        json.dumps(record)
        record["bytes_by_class"][0] = 0
        assert original.bytes_by_class[0] == 640


class TestMemorySink:
    def test_accumulates(self):
        sink = MemorySink()
        sink.publish({"epoch": 0})
        sink.publish({"epoch": 1})
        sink.close()
        assert len(sink) == 2
        assert [r["epoch"] for r in sink.samples] == [0, 1]


class TestJsonlSink:
    def test_appends_one_line_per_record(self, tmp_path):
        path = tmp_path / "epochs.jsonl"
        with JsonlSink(path) as sink:
            sink.publish(epoch_record(sample(epoch=0)))
            sink.publish(epoch_record(sample(epoch=1)))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["epoch"] == 1
        assert sink.published == 2

    def test_lazy_open_no_file_until_first_publish(self, tmp_path):
        path = tmp_path / "epochs.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()
        sink.publish({"epoch": 0})
        assert path.exists()
        sink.close()

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.close()
        sink.close()
