"""The ``python -m repro trace`` / ``stats`` subcommands."""

import json

import pytest

from repro.__main__ import main
from repro.observability.runners import TARGETS


class TestTraceCommand:
    def test_trace_theorem3_writes_jsonl_and_digest(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(
            (
                "trace",
                "theorem3",
                "--n",
                "2",
                "--max-steps",
                "20000",
                "--out",
                str(out),
            )
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "run digest" in printed
        assert "restarts" in printed
        kinds = {json.loads(line)["kind"] for line in out.read_text().splitlines()}
        assert {"run_start", "run_end", "detect", "restart", "statement"} <= kinds

    def test_trace_no_hot_events(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main(
            (
                "trace",
                "machine",
                "--max-steps",
                "5000",
                "--no-hot-events",
                "--out",
                str(out),
            )
        )
        kinds = {json.loads(line)["kind"] for line in out.read_text().splitlines()}
        assert "instruction" not in kinds
        assert "run_end" in kinds

    def test_trace_list(self, capsys):
        assert main(("trace", "--list")) == 0
        printed = capsys.readouterr().out
        for target in TARGETS:
            assert target in printed

    def test_trace_writes_spans_and_manifest_sidecars(self, tmp_path):
        out = tmp_path / "run.jsonl"
        code = main(
            (
                "trace",
                "protocol",
                "--total",
                "12",
                "--max-steps",
                "5000",
                "--out",
                str(out),
            )
        )
        assert code == 0
        spans = json.loads((tmp_path / "run.spans.json").read_text())
        assert [c["name"] for c in spans["children"]] == ["simulate"]
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["target"] == "protocol"
        assert manifest["protocol_fingerprint"]
        assert manifest["extra"]["total"] == 12


class TestStatsCommand:
    def test_stats_protocol_writes_metrics_json(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code = main(
            (
                "stats",
                "protocol",
                "--total",
                "20",
                "--max-steps",
                "5000",
                "--out",
                str(out),
            )
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["target"] == "protocol"
        assert payload["counters"]["interactions"] > 0
        assert "run digest" in capsys.readouterr().out

    def test_stats_pipeline(self, capsys):
        assert main(("stats", "pipeline", "--n", "1")) == 0
        printed = capsys.readouterr().out
        assert "stage.lower.seconds" in printed

    def test_experiment_cli_still_works(self, capsys):
        # The legacy experiment path must be untouched by the new parsing.
        assert main(("figures-lowering",)) == 0
        assert "figures-lowering" in capsys.readouterr().out

    def test_stats_parallel_decide(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        out = tmp_path / "decide.json"
        code = main(
            (
                "stats",
                "decide",
                "--n",
                "4",
                "--total",
                "10",
                "--max-steps",
                "20000",
                "--jobs",
                "2",
                "--out",
                str(out),
            )
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "attempt:0" in printed.split("spans:")[1]
        assert json.loads(out.read_text())["counters"]["interactions"] > 0


@pytest.mark.parametrize(
    "argv", [("serve", "--smoke"), ("top", "--frames", "1")], ids=["serve", "top"]
)
def test_removed_verbs_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
