"""Parallel execution semantics: fan-out is invisible in results,
first-verdict cancellation works, a task's exception reaches the caller,
and worker metrics merge back."""

import hashlib

import pytest

from repro.baselines import binary_threshold_protocol, majority_protocol
from repro.core import Multiset, NonConvergenceError, decide
from repro.core.scheduler import UniformPairScheduler
from repro.observability.metrics import MetricsObserver
from repro.observability.observer import CompositeObserver
from repro.observability.spans import SpanTracer, activate
from repro.observability.trace import TraceRecorder
from repro.runtime.cache import cached_transition_table
from repro.runtime.pool import (
    RemoteTaskError,
    merge_worker_metrics,
    parallel_map,
    resolve_jobs,
)


def square(x):
    return x * x


def add(a, b):
    return a + b


def boom(x):
    raise ValueError(f"boom {x}")


class Unpicklable(Exception):
    """An exception whose state cannot be pickled (it holds a lambda)."""

    def __init__(self, x):
        super().__init__(f"unpicklable {x}")
        self.hook = lambda: x


def raise_unpicklable(x):
    raise Unpicklable(x)


class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_zero_means_all_cores(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_jobs(None) == 1


class TestParallelMap:
    def test_matches_comprehension_in_order(self):
        tasks = [(i,) for i in range(10)]
        assert parallel_map(square, tasks, jobs=4) == [i * i for i in range(10)]

    def test_multi_argument_tasks(self):
        tasks = [(i, 10 * i) for i in range(6)]
        assert parallel_map(add, tasks, jobs=2) == [11 * i for i in range(6)]

    def test_sequential_path_no_pool(self):
        # jobs=1 must not touch multiprocessing at all: an unpicklable
        # closure is fine sequentially.
        fn = lambda x: x + 1
        assert parallel_map(fn, [(1,), (2,)], jobs=1) == [2, 3]

    def test_remote_exception_propagates(self):
        # Two tasks: a single one would run in-process, not in the pool.
        with pytest.raises((ValueError, RemoteTaskError), match="boom"):
            parallel_map(boom, [(1,), (2,)], jobs=2)

    def test_unpicklable_exception_carries_worker_traceback(self):
        with pytest.raises(RemoteTaskError) as info:
            parallel_map(raise_unpicklable, [(1,), (2,)], jobs=2)
        text = str(info.value)
        assert text.startswith("Traceback (most recent call last):")
        assert "in raise_unpicklable" in text
        assert "Unpicklable: unpicklable 1" in text


class TestDecideParallelDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_decide_jobs4_equals_jobs1(self, seed):
        pp = binary_threshold_protocol(5)
        config = Multiset({"p0": 7})
        kwargs = dict(
            seed=seed, attempts=4, max_interactions=200_000,
            convergence_window=20_000,
        )
        assert decide(pp, config, jobs=4, **kwargs) == decide(
            pp, config, jobs=1, **kwargs
        )

    def test_decide_env_jobs(self, monkeypatch):
        pp = majority_protocol()
        config = Multiset({"X": 6, "Y": 3})
        kwargs = dict(seed=7, attempts=3, max_interactions=100_000)
        sequential = decide(pp, config, **kwargs)
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert decide(pp, config, **kwargs) == sequential


#: Inputs of the decide pins: protocol, configuration, simulate keywords,
#: seeds.  The small interaction budgets make some attempts run out, so
#: the pins cover verdicts on attempts 0, 1 and 2 and a call that raises.
PIN_CASES = {
    "binary5": (
        lambda: binary_threshold_protocol(5), {"p0": 7}, dict(max_interactions=40),
        (3, 9, 0),
    ),
    "majority": (
        majority_protocol, {"X": 6, "Y": 3}, dict(max_interactions=9),
        (0, 1, 8),
    ),
}


def _digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


def _observed_decide(case: str, seed: int, *, jobs):
    """One traced, observed ``decide`` call reduced to what the pins
    compare: the verdict (or the error text), the ``(kind, step)`` event
    stream (length and digest), the counters (attempts, interactions and
    a digest of all of them) and the span tree's names and counts."""
    make, config, kwargs, _ = PIN_CASES[case]
    pp = make()
    cached_transition_table(pp)  # a cold compile adds a cache:table span
    recorder, metrics = TraceRecorder(), MetricsObserver()
    tracer = SpanTracer()
    with activate(tracer):
        try:
            outcome = decide(
                pp, Multiset(config), seed=seed, attempts=3, jobs=jobs,
                observer=CompositeObserver(recorder, metrics), **kwargs,
            )
        except NonConvergenceError as exc:
            outcome = str(exc)
    events = [(event.kind, event.step) for event in recorder.events]
    counters = metrics.metrics.to_dict()["counters"]
    return (
        outcome,
        len(events),
        _digest(events),
        counters.get("attempts"),
        counters.get("interactions"),
        _digest(sorted(counters.items())),
        tracer.structure(),
    )


def _tree(attempts: int):
    return (
        "", 0,
        (("decide", 1, tuple(
            (f"attempt:{i}", 1, (("simulate", 1, ()),)) for i in range(attempts)
        )),),
    )


#: ``decide`` at jobs=1, recorded before the executors were unified;
#: ``("binary5", 9)`` was re-recorded when the fast path began to report
#: a sole enabled candidate's stretch as one event per step.
#: The e2e harness's traced replay of compiled-sweep reads this stream.
DECIDE_PINS = {
    ("binary5", 3): (True, 156, "090f49756fa16dfd", 2, 73, "0d95ac31611b92df", _tree(2)),
    ("binary5", 9): (True, 217, "d2a7df75155f518b", 3, 102, "81d6d038b4e70e5d", _tree(3)),
    ("binary5", 0): (
        "protocol 'binary-threshold(k=5)' did not stabilise on |C|=7 "
        "within the budget (3 attempts)",
        250, "2ac266d0eae8902c", 3, 120, "d814fa7b78b65e80", _tree(3),
    ),
    ("majority", 0): (True, 23, "1c4e25e90a3352b1", 1, 9, "220b38ed106f498e", _tree(1)),
    ("majority", 1): (True, 40, "f745736ec25f9116", 2, 16, "832e023e4a450267", _tree(2)),
    ("majority", 8): (True, 44, "f357fa9ee871528c", 2, 18, "b82068ba8929e38f", _tree(2)),
}


class TestDecidePins:
    @pytest.mark.parametrize("case,seed", sorted(DECIDE_PINS))
    def test_jobs1_stream_counters_and_spans(self, case, seed):
        assert _observed_decide(case, seed, jobs=1) == DECIDE_PINS[case, seed]

    @pytest.mark.parametrize("case,seed", sorted(DECIDE_PINS))
    def test_jobs2_verdict_and_span_shape(self, case, seed):
        pinned = DECIDE_PINS[case, seed]
        observed = _observed_decide(case, seed, jobs=2)
        assert observed[0] == pinned[0]
        assert observed[-1] == pinned[-1]

    def _slow(self, **kwargs):
        return decide(
            binary_threshold_protocol(5),
            Multiset({"p0": 5_000}),
            seed=0,
            jobs=1,
            scheduler=UniformPairScheduler(),
            max_interactions=500_000_000,
            convergence_window=400_000_000,
            **kwargs,
        )

    def test_deadline_message(self):
        with pytest.raises(NonConvergenceError) as info:
            self._slow(attempts=3, deadline=0.05)
        assert str(info.value) == (
            "protocol 'binary-threshold(k=5)' did not stabilise on |C|=5000: "
            "wall-clock deadline exceeded during attempt 1 of 3"
        )

    def test_all_timed_out_message(self):
        with pytest.raises(NonConvergenceError) as info:
            self._slow(attempts=2, timeout=0.05)
        assert str(info.value) == (
            "protocol 'binary-threshold(k=5)' did not stabilise on |C|=5000 "
            "within the budget (2 attempts, 2 timed out)"
        )


class TestDecideParallelCancellation:
    @staticmethod
    def _accounted(jobs, attempts):
        pp = binary_threshold_protocol(5)
        config = Multiset({"p0": 7})
        stats = {}
        verdict = decide(
            pp,
            config,
            seed=0,
            attempts=attempts,
            jobs=jobs,
            stats=stats,
            max_interactions=200_000,
            convergence_window=20_000,
        )
        assert verdict is True
        assert sorted(stats) == sorted(
            ["launched", "completed", "cancelled", "failed", "retries", "degraded"]
        )
        assert stats["launched"] == attempts
        assert stats["completed"] >= 1
        # Every launched attempt is accounted for: no orphaned workers.
        assert (
            stats["completed"] + stats["cancelled"] + stats["failed"]
            == stats["launched"]
        )
        assert stats["failed"] == 0
        return stats

    def test_first_verdict_wins_and_rest_cancelled(self):
        # Plenty of attempts, few workers: the first attempt's verdict
        # must land before most attempts ever start, so they cancel.
        stats = self._accounted(jobs=2, attempts=12)
        assert stats["cancelled"] > 0

    @pytest.mark.parametrize("jobs,attempts", [(1, 12), (2, 1)], ids=["jobs1", "single"])
    def test_accounting_on_every_executor(self, jobs, attempts):
        stats = self._accounted(jobs=jobs, attempts=attempts)
        assert stats["cancelled"] == attempts - 1  # the verdict is attempt 0's
        assert stats["retries"] == stats["degraded"] == 0


class TestMetricsMerge:
    def test_worker_metrics_reach_parent_registry(self):
        pp = binary_threshold_protocol(5)
        config = Multiset({"p0": 7})
        observer = MetricsObserver()
        verdict = decide(
            pp,
            config,
            seed=0,
            attempts=4,
            jobs=2,
            observer=observer,
            max_interactions=200_000,
            convergence_window=20_000,
        )
        assert verdict is True
        counters = observer.metrics.to_dict()["counters"]
        assert counters.get("interactions", 0) > 0

    def test_parallel_metrics_match_sequential_for_winning_prefix(self):
        # With jobs=2 but a verdict on attempt 0, at most attempt 1 extra
        # runs; the merged interaction count is at least the sequential one.
        pp = binary_threshold_protocol(5)
        config = Multiset({"p0": 7})
        seq = MetricsObserver()
        par = MetricsObserver()
        kwargs = dict(
            seed=3, attempts=3, max_interactions=200_000,
            convergence_window=20_000,
        )
        decide(pp, config, jobs=1, observer=seq, **kwargs)
        decide(pp, config, jobs=2, observer=par, **kwargs)
        seq_interactions = seq.metrics.to_dict()["counters"]["interactions"]
        par_interactions = par.metrics.to_dict()["counters"]["interactions"]
        assert par_interactions >= seq_interactions

    def test_merge_worker_metrics_folds_payload(self):
        observer = MetricsObserver()
        payload = {
            "counters": {"interactions": 5},
            "gauges": {"population": 9},
            "histograms": {
                "wall_seconds": {"count": 2, "total": 1.0, "min": 0.4, "max": 0.6}
            },
        }
        merge_worker_metrics(observer, payload)
        merge_worker_metrics(observer, payload)
        snapshot = observer.metrics.to_dict()
        assert snapshot["counters"]["interactions"] == 10
        assert snapshot["gauges"]["population"] == 9
        assert snapshot["histograms"]["wall_seconds"]["count"] == 4


class TestParallelDrivers:
    def test_convergence_driver_matches_sequential(self):
        from repro.experiments.convergence import run_convergence

        sequential = run_convergence(2, trials=2, seed=0, jobs=1)
        parallel = run_convergence(2, trials=2, seed=0, jobs=2)
        assert parallel.samples == sequential.samples

    def test_lemma4_driver_matches_sequential(self):
        from repro.experiments.lemma4 import run_lemma4

        sequential = run_lemma4(1, 2, seed=0, jobs=1)
        parallel = run_lemma4(1, 2, seed=0, jobs=2)
        assert parallel.trials == sequential.trials

    def test_theorem3_driver_matches_sequential(self):
        from repro.experiments.theorem3 import run_theorem3_decisions

        sequential = run_theorem3_decisions(1, seed=0, jobs=1)
        parallel = run_theorem3_decisions(1, seed=0, jobs=2)
        assert parallel == sequential
        assert all(t.correct for t in parallel)

    def test_table1_driver_matches_sequential(self):
        from repro.experiments.table1 import run_table1

        sequential = run_table1(4, jobs=1)
        parallel = run_table1(4, jobs=2)
        assert parallel.rows == sequential.rows
