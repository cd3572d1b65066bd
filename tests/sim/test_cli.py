"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PABST" in out
        assert "libquantum" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_arena_rejects_unknown_scenario(self, capsys):
        """The arena command resolves its scenario table on demand."""
        assert main(["arena", "--scenarios", "bogus"]) == 2
        assert "unknown scenario(s) ['bogus']" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_registry_covers_every_figure(self):
        assert set(EXPERIMENTS) == {
            "fig01", "fig05", "fig06", "fig07", "fig08",
            "fig09", "fig10", "fig11", "fig12", "soc256",
            "arena",
        }


class TestRun:
    def test_run_quick_experiment(self, capsys):
        assert main(["run", "fig05", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "proportional allocation" in out
        assert "steady hi share" in out

    def test_seed_accepted(self, capsys):
        assert main(["run", "fig05", "--quick", "--seed", "3"]) == 0


class TestTrace:
    def test_trace_emits_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "epochs.jsonl"
        assert main([
            "trace", "fig05", "--quick",
            "--output", str(out_path),
            "--metrics", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "steady hi share" in out  # report still prints
        assert "transitions recorded" in out
        document = json.loads(out_path.read_text())
        assert validate_chrome_trace(document) > 0
        assert metrics_path.exists()
        first = json.loads(metrics_path.read_text().splitlines()[0])
        assert "bandwidth_by_class" in first

    def test_trace_report_matches_untraced_run(self, capsys, tmp_path):
        # attaching the tracer must not change simulation results
        assert main(["run", "fig05", "--quick"]) == 0
        untraced = capsys.readouterr().out
        assert main([
            "trace", "fig05", "--quick",
            "--output", str(tmp_path / "t.json"),
        ]) == 0
        traced_out = capsys.readouterr().out
        report = untraced.split("== fig05")[1].splitlines()[1:]
        for line in report:
            if line.startswith("["):  # timing lines differ
                continue
            assert line in traced_out

    def test_trace_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["trace", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_buffer_cap_respected(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main([
            "trace", "fig05", "--quick",
            "--buffer", "100", "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "dropped by the ring" in out


class TestWarningCounters:
    """Counters print in the process that raised them, after the summary."""

    @pytest.fixture(autouse=True)
    def isolated_counters(self):
        from repro.obs.warnings import reset_warning_counters

        reset_warning_counters()
        yield
        reset_warning_counters()

    @pytest.fixture
    def stub_runs(self, monkeypatch):
        """Skip the simulation: every cache miss returns a canned result."""
        import repro.runner.pool as pool

        monkeypatch.setattr(
            pool, "execute_payload",
            lambda payload: {"ok": True, "report": "stub report",
                             "events_per_sec": 0.0},
        )

    def test_sweep_prints_counters_after_summary(self, capsys, tmp_path, stub_runs):
        from repro.runner import ResultCache, source_fingerprint, specs_for_figure

        (spec,) = specs_for_figure("fig06", quick=True, backend="pure")
        cache = ResultCache(tmp_path)
        path = cache.store(
            spec.spec_hash(), source_fingerprint(), spec.canonical_json(), {"ok": True}
        )
        path.write_text("{not json", encoding="utf-8")
        assert main(["sweep", "fig06", "--quick", "--cache-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3].startswith("[1 cell(s), 0 cached, 0 failed")
        assert lines[-2:] == ["warnings:", "  cache.corrupt_entry: 1"]

    def test_clean_sweep_prints_no_warnings(self, capsys, tmp_path, stub_runs):
        assert main(["sweep", "fig06", "--quick", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("[1 cell(s)")
        assert "warnings:" not in out

    def test_cache_command_reports_only_the_result_cache(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{tmp_path}: 0 result(s), 0 bytes (cap 256)"
        ]
