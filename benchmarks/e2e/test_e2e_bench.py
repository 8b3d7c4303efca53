"""Tests for the e2e benchmark: statistics helpers, span self time, the
paired comparison, the BENCHMARK.json contract and a smoke run of every
workload.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from summary import quartiles, self_times, span_label, spread, tail_percentile

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- percentiles -----------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    q1, q2, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    with pytest.raises(ValueError):
        quartiles([])


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # the median leaves only 9 above it
        (20, (50.0, 10.0, 10)),
        (40, (75.0, 30.0, 10)),  # 40 decisions leave 10 above p75
        (100, (90.0, 90.0, 10)),
        (1000, (99.0, 990.0, 10)),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n, 0, -1)]  # order must not matter
    assert tail_percentile(values) == expected


# -- span self time --------------------------------------------------------
def span(name, path, start, end):
    return {"name": name, "path": list(path), "start": start, "end": end}


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("call", ["call"], 0.0, 10.0),
        span("decide", ["call", "decide"], 1.0, 9.0),
        span("attempt:0", ["call", "decide", "attempt:0"], 2.0, 5.0),
        span("attempt:1", ["call", "decide", "attempt:1"], 5.0, 8.0),
        span("simulate", ["call", "decide", "attempt:0", "simulate"], 2.5, 4.5),
    ]
    own = self_times(spans)
    assert own["call"] == pytest.approx(2.0)
    assert own["decide"] == pytest.approx(2.0)
    assert own["attempt"] == pytest.approx(1.0 + 3.0)  # attempt:0 and :1 pooled
    assert own["simulate"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_unions_overlapping_children_and_clips_strays():
    spans = [
        span("parent", ["parent"], 0.0, 10.0),
        span("a", ["parent", "a"], 1.0, 4.0),
        span("b", ["parent", "b"], 3.0, 6.0),  # overlaps a: union is [1, 6]
        span("c", ["parent", "c"], 8.0, 12.0),  # sticks out: counts [8, 10]
    ]
    assert self_times(spans)["parent"] == pytest.approx(10.0 - 5.0 - 2.0)


def test_self_time_keeps_children_with_their_own_parent_instance():
    spans = [
        span("call", ["call"], 0.0, 2.0),
        span("simulate", ["call", "simulate"], 0.5, 1.5),
        span("call", ["call"], 3.0, 4.0),  # same path, no child of its own
        span("open", ["open"], 5.0, None),  # unfinished spans are skipped
    ]
    own = self_times(spans)
    assert own["call"] == pytest.approx(1.0 + 1.0)
    assert "open" not in own


def test_span_label():
    assert span_label("attempt:12") == "attempt"
    assert span_label("cache:table") == "cache.table"
    assert span_label("stage:lower") == "stage.lower"
    assert span_label("bench.call") == "bench.call"


# -- paired comparison -----------------------------------------------------
def test_judge_gain_needs_ten_pairs_won_and_a_gap_past_the_parent_iqr():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [v * 0.8 for v in parent]
    assert compare.judge(parent, faster, "lower", 0.1)["verdict"] == "GAIN"
    assert compare.judge(parent[:9], faster[:9], "lower", 0.1)["verdict"] == "ok"
    slower = [v * 1.2 for v in parent]
    assert compare.judge(parent, slower, "lower", 0.1)["verdict"] == "REGRESSION"
    assert compare.judge(parent, slower, "higher", 0.1)["verdict"] == "GAIN"
    assert compare.judge(parent, parent, "lower", 0.1)["verdict"] == "ok"


def test_judge_reports_wide_spread_as_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.0, 2.0]
    change = [v * 1.05 for v in parent]
    assert compare.judge(parent, change, "lower", 0.1)["verdict"] == "UNRESOLVED"
    # Every change run beats every parent run, but by less than the IQR.
    assert compare.judge(parent, [0.9] * 10, "lower", 0.1)["verdict"] == "better"
    assert compare.judge(parent, [0.4] * 10, "lower", 0.1)["verdict"] == "GAIN"


# -- BENCHMARK.json ----------------------------------------------------------
def test_benchmark_json_matches_the_runner():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- smoke -------------------------------------------------------------------
@pytest.mark.parametrize("trace, expected", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_and_fails_nothing(trace, expected):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"], proc.stderr
    assert result["attempted"] >= len(SPEC["workloads"])
    for workload in SPEC["workloads"]:
        for metric in SPEC[expected]:
            key = f"{workload['name']}/{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"], key
            assert isinstance(result["metrics"][key]["value"], (int, float)), key
        if trace:
            assert result["metrics"][f"{workload['name']}/trace.overhead_ratio"][
                "value"
            ] > 0


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in ("run.py", "summary.py"):
        (bench / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "faulted",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
