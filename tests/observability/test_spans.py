"""Hierarchical spans: tracer mechanics, ambient helpers, the engine
wiring, and the jobs=1 ≡ jobs=N worker-merge determinism contract."""

import json

import pytest

from repro.baselines import binary_threshold_protocol
from repro.core.batched import BatchedScheduler
from repro.core.multiset import Multiset
from repro.core.scheduler import EnabledTransitionScheduler, UniformPairScheduler
from repro.core.simulation import decide, simulate
from repro.observability.metrics import Metrics
from repro.observability import spans as spans_mod
from repro.observability.spans import SpanTracer, activate, current, span
from repro.resilience import CorruptAgents, DropInteractions, FaultPlan, JoinAgents


class TestSpanTracer:
    def test_nesting_builds_paths(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        paths = [s.path for s in tracer.spans]
        assert ("outer", "inner") in paths
        assert ("outer",) in paths

    def test_span_records_duration_and_attrs(self):
        tracer = SpanTracer()
        with tracer.span("work", items=3) as sp:
            sp.attrs["extra"] = True
        (recorded,) = tracer.spans
        assert recorded.seconds >= 0
        assert recorded.attrs == {"items": 3, "extra": True}
        assert recorded.status == "ok"

    def test_exception_marks_span_error(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (recorded,) = tracer.spans
        assert recorded.status == "error"

    def test_abandoned_children_closed_as_error(self):
        tracer = SpanTracer()
        outer = tracer.start("outer")
        tracer.start("leaked")
        tracer.end(outer)  # closes the still-open child first
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["leaked"].status == "error"
        assert by_name["outer"].status == "ok"

    def test_metrics_wiring(self):
        metrics = Metrics()
        tracer = SpanTracer(metrics=metrics)
        with tracer.span("step"):
            pass
        with tracer.span("step"):
            pass
        assert metrics.counter("span.step").value == 2
        assert metrics.histogram("span.step.seconds").count == 2

    def test_payload_roundtrip_and_adoption_reroots(self):
        worker = SpanTracer()
        with worker.span("attempt:3"):
            with worker.span("simulate"):
                pass
        payload = worker.to_payload()
        # The payload is JSON-serialisable as-is (pickled across the pool
        # boundary in production, but nothing in it needs pickle).
        json.dumps(payload)

        parent = SpanTracer()
        with parent.span("decide"):
            parent.adopt(payload)
        paths = {s.path for s in parent.spans}
        assert ("decide", "attempt:3") in paths
        assert ("decide", "attempt:3", "simulate") in paths

    def test_adopt_none_is_noop(self):
        tracer = SpanTracer()
        tracer.adopt(None)
        assert len(tracer) == 0

    def test_structure_is_timing_free_and_sorted(self):
        tracer = SpanTracer()
        with tracer.span("z"):
            pass
        with tracer.span("a"):
            pass
        name, count, children = tracer.structure()
        assert [child[0] for child in children] == ["a", "z"]

    def test_tree_aggregates_repeats(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("attempt"):
                pass
        tree = tracer.tree()
        (node,) = tree["children"]
        assert node["name"] == "attempt"
        assert node["count"] == 3
        assert node["seconds"] >= 0

    def test_write_json(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("only"):
            pass
        path = tracer.write_json(tmp_path / "spans.json")
        payload = json.loads(path.read_text())
        assert payload["children"][0]["name"] == "only"


class TestAmbientHelpers:
    def test_no_tracer_everything_noops(self):
        assert current() is None
        with span("ignored"):
            pass
        assert spans_mod.begin("ignored") is None
        spans_mod.finish(None)
        spans_mod.mark("ignored")
        spans_mod.adopt([{"name": "x", "path": ["x"]}])

    def test_activate_installs_and_restores(self):
        tracer = SpanTracer()
        with activate(tracer):
            assert current() is tracer
            with span("ambient"):
                pass
        assert current() is None
        assert [s.name for s in tracer.spans] == ["ambient"]

    def test_mark_records_zero_length_span(self):
        tracer = SpanTracer()
        with activate(tracer):
            spans_mod.mark("fault:corrupt", step=7)
        (recorded,) = tracer.spans
        assert recorded.name == "fault:corrupt"
        assert recorded.attrs["step"] == 7


class TestEngineSpans:
    def test_simulate_records_span_with_verdict(self):
        tracer = SpanTracer()
        with activate(tracer):
            simulate(
                binary_threshold_protocol(3),
                Multiset({"p0": 8}),
                seed=1,
                max_interactions=5_000,
            )
        (sp,) = [s for s in tracer.spans if s.name == "simulate"]
        assert "verdict" in sp.attrs
        assert sp.attrs["interactions"] > 0

    @pytest.mark.parametrize(
        "scheduler,plan,engine",
        [
            # Per-step faults need a granularity batches never have.
            (BatchedScheduler(), [DropInteractions(at=10, count=3)], "fast"),
            # Joins and leaves fire at batch barriers.
            (
                BatchedScheduler(),
                [JoinAgents(at=10, agents=2, state="p0")],
                "batched",
            ),
            # Faulted legacy runs execute on the fast twin.
            (EnabledTransitionScheduler(), [CorruptAgents(at=10)], "fast"),
            (UniformPairScheduler(), [CorruptAgents(at=10)], "fast"),
            # An empty plan is no injector at all.
            (UniformPairScheduler(), [], "legacy"),
        ],
        ids=[
            "batched-drop",
            "batched-join",
            "legacy-enabled",
            "legacy-uniform",
            "legacy-empty",
        ],
    )
    def test_span_names_the_engine_that_ran(self, scheduler, plan, engine):
        tracer = SpanTracer()
        with activate(tracer):
            simulate(
                binary_threshold_protocol(3),
                Multiset({"p0": 64}),
                seed=1,
                scheduler=scheduler,
                faults=FaultPlan(plan),
                max_interactions=5_000,
            )
        (sp,) = [s for s in tracer.spans if s.name == "simulate"]
        assert sp.attrs["engine"] == engine

    def test_simulate_without_tracer_records_nothing(self):
        result = simulate(
            binary_threshold_protocol(3),
            Multiset({"p0": 8}),
            seed=1,
            max_interactions=5_000,
        )
        assert result.interactions > 0
        assert current() is None

    def test_decide_tree_shape(self):
        tracer = SpanTracer()
        with activate(tracer):
            decide(
                binary_threshold_protocol(3),
                Multiset({"p0": 8}),
                seed=5,
                attempts=2,
                max_interactions=20_000,
            )
        _, _, children = tracer.structure()
        (decide_node,) = [c for c in children if c[0] == "decide"]
        names = [c[0] for c in decide_node[2]]
        assert "cache:table" in names
        assert any(name.startswith("attempt:") for name in names)
        attempt = next(c for c in decide_node[2] if c[0].startswith("attempt:"))
        assert [c[0] for c in attempt[2]] == ["simulate"]


class TestWorkerMerge:
    """The tentpole acceptance criterion: span trees produced with jobs=N
    match the jobs=1 structure exactly (timings and pids aside)."""

    @staticmethod
    def _decide_structure(jobs: int):
        tracer = SpanTracer()
        with activate(tracer):
            verdict = decide(
                binary_threshold_protocol(4),
                Multiset({"p0": 10}),
                seed=9,
                attempts=3,
                jobs=jobs,
                max_interactions=50_000,
            )
        return verdict, tracer.structure()

    def test_jobs1_equals_jobs2_structure(self):
        verdict_seq, structure_seq = self._decide_structure(1)
        verdict_par, structure_par = self._decide_structure(2)
        assert verdict_seq == verdict_par
        assert structure_seq == structure_par

    def test_parallel_map_adopts_in_task_order(self):
        from repro.runtime.pool import parallel_map

        tracer = SpanTracer()
        with activate(tracer):
            results = parallel_map(
                _square, [(i,) for i in range(4)], jobs=2
            )
        assert results == [0, 1, 4, 9]
        top = [s.name for s in tracer.spans if len(s.path) == 1]
        assert top == [f"task:{i}" for i in range(4)]

    def test_parallel_map_custom_labels_validated(self):
        from repro.runtime.pool import parallel_map

        tracer = SpanTracer()
        with activate(tracer):
            with pytest.raises(ValueError):
                parallel_map(
                    _square, [(1,), (2,)], jobs=1, span_labels=["only-one"]
                )

    def test_parallel_map_without_tracer_unchanged(self):
        from repro.runtime.pool import parallel_map

        assert parallel_map(_square, [(i,) for i in range(3)], jobs=2) == [0, 1, 4]


def _square(x: int) -> int:
    """Module-level so the pool can pickle it by reference."""
    return x * x
