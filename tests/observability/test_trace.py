"""TraceRecorder behaviour: event capture, JSONL round-trips, sampled
history, Lipton level derivation, and the Theorem 3 acceptance trace."""

import json

import pytest

from repro.baselines import binary_threshold_protocol
from repro.core import EnabledTransitionScheduler, Multiset, simulate
from repro.lipton import build_threshold_program, canonical_restart_policy
from repro.lipton.levels import threshold
from repro.observability import (
    ALL_KINDS,
    HOT_KINDS,
    MetricsObserver,
    TraceRecorder,
    lipton_level,
    summarize,
)
from repro.observability import events as ev
from repro.observability.runners import run_theorem3
from repro.programs import run_program


@pytest.fixture(scope="module")
def theorem3_trace():
    """A traced run of the Theorem 3 program at n=2, just below the
    threshold k=10 — the detect–restart regime (the acceptance workload)."""
    recorder = TraceRecorder(snapshot_every=1_000)
    run = run_theorem3(n=2, seed=0, max_steps=40_000, recorder=recorder)
    return run


class TestTheorem3Trace:
    def test_contains_restart_and_detect_events(self, theorem3_trace):
        counts = theorem3_trace.recorder.kind_counts()
        assert counts.get(ev.RESTART, 0) >= 1
        assert counts.get(ev.DETECT, 0) >= 100
        assert counts.get(ev.STATEMENT, 0) >= 100
        assert counts[ev.RUN_START] == 1
        assert counts[ev.RUN_END] == 1

    def test_steps_are_monotonic(self, theorem3_trace):
        steps = [
            event.step
            for event in theorem3_trace.recorder.events
            if event.step is not None
        ]
        assert all(a <= b for a, b in zip(steps, steps[1:]))

    def test_snapshots_sampled_at_interval(self, theorem3_trace):
        snapshots = theorem3_trace.recorder.snapshots()
        assert snapshots
        assert all(event.step % 1_000 == 0 for event in snapshots)
        # Snapshots carry the full register configuration, preserving mass.
        total = threshold(2) - 1
        for event in snapshots:
            assert sum(event.data["configuration"].values()) == total

    def test_level_progression_recorded(self, theorem3_trace):
        levels = theorem3_trace.recorder.level_progression()
        assert levels and levels[0] == 1  # everything starts in x1
        assert max(levels) == 2  # the canonical restart reaches level 2

    def test_stats_digest_has_counters(self, theorem3_trace):
        digest = theorem3_trace.digest()
        assert "steps" in digest
        assert "productive" in digest
        assert "restarts" in digest
        assert "detect_true" in digest
        assert theorem3_trace.metrics.metrics.counters["restarts"].value >= 1
        assert theorem3_trace.metrics.metrics.counters["productive"].value > 0

    def test_jsonl_round_trip(self, theorem3_trace, tmp_path):
        path = theorem3_trace.recorder.write_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(theorem3_trace.recorder.events)
        for line in lines[:50]:
            json.loads(line)  # every line is standalone JSON
        back = TraceRecorder.read_jsonl(path)
        assert len(back.events) == len(theorem3_trace.recorder.events)
        assert [e.kind for e in back.events] == [
            e.kind for e in theorem3_trace.recorder.events
        ]


class TestProtocolTrace:
    def test_interaction_and_silence_events(self):
        # The interaction accounting every engine keeps: one INTERACTION
        # event per sampled step plus the counts of every BATCH (the
        # default fast enabled engine emits none on an unfaulted run).
        recorder = TraceRecorder(snapshot_every=50)
        result = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 9}),
            seed=4,
            max_interactions=20_000,
            observer=recorder,
        )
        counts = recorder.kind_counts()
        batched = sum(e.data["count"] for e in recorder.events_of(ev.BATCH))
        assert counts[ev.INTERACTION] + batched == result.interactions
        assert counts.get(ev.SCHEDULER, 0) == counts[ev.INTERACTION]
        assert counts[ev.RUN_END] == 1
        end = recorder.events_of(ev.RUN_END)[0]
        assert end.data["interactions"] == result.interactions
        assert end.data["productive"] == result.productive
        assert end.data["verdict"] == result.verdict

    def test_interaction_events_exact_with_legacy_scheduler(self):
        # The legacy scheduler has no batching: exactly one INTERACTION
        # and one SCHEDULER event per scheduler step, as before.
        recorder = TraceRecorder(snapshot_every=50)
        result = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 9}),
            seed=4,
            scheduler=EnabledTransitionScheduler(),
            max_interactions=20_000,
            observer=recorder,
        )
        counts = recorder.kind_counts()
        assert counts[ev.INTERACTION] == result.interactions
        assert counts.get(ev.SCHEDULER, 0) == result.interactions
        assert ev.BATCH not in counts

    def test_output_flip_events_match_output_trace(self):
        recorder = TraceRecorder()
        result = simulate(
            binary_threshold_protocol(4),
            Multiset({"p0": 7}),
            seed=9,
            max_interactions=20_000,
            observer=recorder,
        )
        flips = recorder.events_of(ev.OUTPUT_FLIP)
        # output_trace additionally records the initial output at step 0.
        assert [(e.step, e.data["output"]) for e in flips] == result.output_trace[1:]

    def test_snapshots_preserve_population(self):
        recorder = TraceRecorder(snapshot_every=100)
        simulate(
            binary_threshold_protocol(6),
            Multiset({"p0": 11}),
            seed=1,
            max_interactions=5_000,
            observer=recorder,
        )
        for event in recorder.snapshots():
            assert sum(event.data["configuration"].values()) == 11


class TestRecorderControls:
    def test_kind_whitelist_drops_hot_events(self):
        recorder = TraceRecorder(kinds=ALL_KINDS - HOT_KINDS)
        run_program(
            build_threshold_program(2),
            {"x1": 9},
            seed=0,
            restart_policy=canonical_restart_policy(2),
            max_steps=10_000,
            observer=recorder,
        )
        counts = recorder.kind_counts()
        assert ev.STATEMENT not in counts
        assert ev.DETECT in counts
        assert ev.RUN_END in counts

    def test_max_events_cap_counts_drops(self):
        recorder = TraceRecorder(max_events=10)
        run_program(
            build_threshold_program(1),
            {"x1": 3},
            seed=0,
            max_steps=5_000,
            observer=recorder,
        )
        assert len(recorder.events) == 10
        assert recorder.dropped > 0

    def test_summarize_renders_without_metrics(self):
        recorder = TraceRecorder()
        recorder.record(ev.RESTART, 7, layer="program", count=1)
        text = summarize(None, recorder)
        assert "restart" in text


class TestLiptonLevel:
    def test_level_of_register_snapshot(self):
        assert lipton_level({"x1": 3, "R": 2}) == 1
        assert lipton_level({"x1": 0, "xb2": 1}) == 2
        assert lipton_level({"R": 5}) == 0
        assert lipton_level({"yb3": 1, "y1": 4}) == 3

    def test_ignores_foreign_registers(self):
        assert lipton_level({"counter": 9, "x2": 1}) == 2
