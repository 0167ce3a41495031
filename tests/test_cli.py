"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        for command in ("frobnicate", "serve-bench"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_global_options(self):
        args = build_parser().parse_args(["--scale", "0.1", "--seed", "3", "info"])
        assert args.scale == 0.1
        assert args.seed == 3
        assert args.command == "info"

    def test_fig3a_options(self):
        args = build_parser().parse_args(["fig3a", "--episodes", "50"])
        assert args.episodes == 50
        assert args.save is None


TINY = ["--scale", "0.02", "--seed", "1"]


class TestCommands:
    def test_info(self, capsys):
        assert main(TINY + ["info"]) == 0
        out = capsys.readouterr().out
        assert "title" in out
        assert "total rows" in out

    def test_plan(self, capsys):
        assert main(TINY + ["plan", "1a"]) == 0
        out = capsys.readouterr().out
        assert "SELECT" in out
        assert "latency=" in out

    def test_fig3a_tiny_run_with_checkpoint(self, capsys, tmp_path):
        save_dir = tmp_path / "agent"
        assert main(TINY + ["fig3a", "--episodes", "30", "--save", str(save_dir)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3a" in out
        assert (save_dir / "meta.json").exists()

    def test_fig3c_tiny_sweep(self, capsys):
        assert main(TINY + ["fig3c", "--max-relations", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3c" in out
        assert "rejoin" in out

    def test_info_probe_reports_hit_rate(self, capsys):
        assert main(TINY + ["info", "--probe", "2"]) == 0
        out = capsys.readouterr().out
        assert "serving counters" in out
        assert "cache_hit_rate" in out
        # Two passes over the probes: the second is all hits.
        assert "0.50" in out

    def test_bootstrap_tiny(self, capsys):
        assert (
            main(TINY + ["bootstrap", "--phase1", "24", "--phase2", "12"]) == 0
        )
        out = capsys.readouterr().out
        assert "reward jump at switch" in out
        assert "naive" in out and "scaled" in out and "transfer" in out


class TestObservabilityCommands:
    def test_metrics_exposition_is_machine_readable(self, capsys):
        from repro.obs import parse_exposition

        assert main(TINY + ["metrics", "--probe", "2"]) == 0
        out = capsys.readouterr().out
        exposition = out[out.index("# HELP"):]
        samples = parse_exposition(exposition)
        assert samples["repro_serving_requests_total"] == 4.0  # 2 probes x2
        assert samples["repro_cache_hits_total"] >= 2.0  # second pass hits
        assert any(k.startswith("repro_request_e2e_ms_bucket") for k in samples)

    def test_metrics_json_snapshot(self, capsys):
        import json

        assert main(TINY + ["metrics", "--probe", "2", "--json"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out[out.index("{"):])
        assert snapshot["repro_serving_requests_total"] == 4.0
        assert snapshot["repro_request_e2e_ms"]["count"] == 4.0

    def test_trace_slowest_prints_complete_span_trees(self, capsys):
        assert main(TINY + ["trace", "--slowest", "2", "--probe", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace " in out and "request" in out
        for stage in ("queue_wait", "pickup", "serve", "cache_lookup"):
            assert stage in out
        assert "span coverage" in out

    def test_trace_reads_a_jsonl_dump_offline(self, capsys, tmp_path):
        from repro.obs.trace import Trace, TraceStore

        store = TraceStore()
        for trace_id, name in (("a", "req-a"), ("b", "req-b")):
            trace = Trace("request", trace_id=trace_id, attrs={"query": name})
            trace.record("serve", 1.0)
            trace.finish()
            store.add(trace)
        path = tmp_path / "traces.jsonl"
        store.write_jsonl(path)
        assert main(TINY + ["trace", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "building" not in out  # offline: no database probe
        assert "query=req-a" in out and "query=req-b" in out
