"""Tests for the python -m repro command-line interface."""

import json

import pytest

from repro.__main__ import FULL, QUICK, _compare_bench, main


class TestRegistry:
    def test_quick_subset_of_full(self):
        assert set(QUICK) <= set(FULL)

    def test_expected_ids_present(self):
        for name in ("table1", "theorem1", "theorem3", "figure2", "ablation"):
            assert name in FULL


class TestInvocation:
    def test_single_experiment(self, capsys):
        assert main(("figure2",)) == 0
        out = capsys.readouterr().out
        assert "figure2" in out and "all match: True" in out

    def test_multiple_experiments(self, capsys):
        assert main(("figures-lowering", "figure4")) == 0
        out = capsys.readouterr().out
        assert "figure3" in out and "transitions per instruction" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(("nope",))
        assert excinfo.value.code == 2

    def test_theorem5_runs(self, capsys):
        assert main(("theorem5",)) == 0
        assert "P16 bound" in capsys.readouterr().out

    def test_address_jobs_is_a_usage_error(self):
        # --jobs takes a pool width; a host:port address is no target.
        with pytest.raises(SystemExit) as excinfo:
            main(("--jobs", "127.0.0.1:9000", "table1"))
        assert excinfo.value.code == 2


class TestBenchCheck:
    """``bench --check`` on a suite that runs part of the baseline."""

    BASELINE = {
        "gauges": {
            "uniform_scheduler.ops_per_second": 100.0,
            "batched.n1e6.ops_per_second": 50.0,
            "batched.n1e8.ops_per_second": 10.0,
        }
    }

    def _check(self, tmp_path, fresh, suite="batched"):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self.BASELINE))
        new = tmp_path / "fresh.json"
        new.write_text(json.dumps({"gauges": fresh}))
        return _compare_bench(new, baseline, 0.30, suite)

    def test_scoped_run_passes_on_its_own_gauges(self, tmp_path, capsys):
        fresh = {"batched.n1e8.ops_per_second": 9.15}
        assert self._check(tmp_path, fresh) == 0
        out = capsys.readouterr().out
        assert "(91.5% of baseline)" in out
        assert "missing" not in out
        # The core gate still fails a run that skipped a benchmark.
        assert self._check(tmp_path, fresh, suite="core") == 1

    def test_scoped_run_with_a_dropped_gauge_fails(self, tmp_path):
        assert self._check(tmp_path, {"batched.n1e8.ops_per_second": 5.0}) == 1

    def test_scoped_run_that_recorded_nothing_fails(self, tmp_path):
        assert self._check(tmp_path, {"batched.crossover.smalln_ratio": 0.24}) == 1
