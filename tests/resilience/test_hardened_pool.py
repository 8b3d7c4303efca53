"""Hardened runtime: worker crashes, hangs, wall-clock deadlines, and
graceful degradation all end in the same verdict the sequential path gives."""

import os
import signal
import time

import pytest

from repro.baselines import binary_threshold_protocol
from repro.core import Multiset, NonConvergenceError, decide, simulate
from repro.core.scheduler import UniformPairScheduler
import repro.runtime.pool as pool
from repro.observability.metrics import MetricsObserver
from repro.runtime.pool import parallel_map

#: Recorded at import: under the default ``fork`` start method workers
#: inherit this value, so ``os.getpid() != PARENT_PID`` identifies "I am
#: a pool worker" inside functions that must misbehave only in workers.
PARENT_PID = os.getpid()

#: The real attempt: degraded attempts run it in the parent.
_ATTEMPT = pool._decide_attempt_worker


def _suicidal_worker(*args, **kwargs):
    """Every pool attempt dies instantly: the BrokenProcessPool path."""
    if os.getpid() != PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ATTEMPT(*args, **kwargs)


def _sleeping_worker(*args, **kwargs):
    """Every pool attempt hangs: the per-attempt timeout path."""
    if os.getpid() != PARENT_PID:
        time.sleep(120)
    return _ATTEMPT(*args, **kwargs)


def _square_unless_worker(x):
    if os.getpid() != PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


@pytest.fixture
def protocol_and_config():
    return binary_threshold_protocol(5), Multiset({"p0": 9})


@pytest.fixture
def sequential_verdict(protocol_and_config):
    pp, config = protocol_and_config
    return decide(pp, config, seed=7, attempts=4, jobs=1)


class TestBrokenPoolRecovery:
    def test_killed_workers_retry_then_degrade_to_sequential(
        self, monkeypatch, protocol_and_config, sequential_verdict
    ):
        pp, config = protocol_and_config
        monkeypatch.setattr(pool, "_decide_attempt_worker", _suicidal_worker)
        stats = {}
        start = time.monotonic()
        verdict = decide(pp, config, seed=7, attempts=4, jobs=2, stats=stats)
        elapsed = time.monotonic() - start
        assert verdict == sequential_verdict
        assert stats["retries"] == 2
        assert stats["degraded"] >= 1
        assert (
            stats["completed"] + stats["cancelled"] + stats["failed"]
            == stats["launched"]
        )
        assert elapsed < 60  # bounded: no unbounded retry storm

    def test_worker_failures_counted_in_metrics(
        self, monkeypatch, protocol_and_config
    ):
        pp, config = protocol_and_config
        monkeypatch.setattr(pool, "_decide_attempt_worker", _suicidal_worker)
        observer = MetricsObserver()
        decide(pp, config, seed=7, attempts=3, jobs=2, observer=observer)
        counters = observer.metrics.to_dict()["counters"]
        assert counters.get("pool.worker_failures", 0) >= 1
        assert counters.get("pool.degraded", 0) >= 1


class TestHungWorkers:
    def test_hung_workers_hit_timeout_and_degrade(
        self, monkeypatch, protocol_and_config, sequential_verdict
    ):
        pp, config = protocol_and_config
        monkeypatch.setattr(pool, "_decide_attempt_worker", _sleeping_worker)
        stats = {}
        start = time.monotonic()
        verdict = decide(
            pp, config, seed=7, attempts=3, jobs=2, stats=stats, timeout=1.0
        )
        elapsed = time.monotonic() - start
        assert verdict == sequential_verdict
        assert stats["degraded"] >= 1
        assert (
            stats["completed"] + stats["cancelled"] + stats["failed"]
            == stats["launched"]
        )
        # One timeout window plus teardown and the sequential replay —
        # nowhere near the worker's 120s sleep.
        assert elapsed < 30

    def test_slow_attempts_time_out_without_degrading(self):
        # Attempts that honour their 0.3s budget are slow, not hung: each
        # times out where it runs, and the pool stays up.
        observer = MetricsObserver()
        stats = {}
        with pytest.raises(NonConvergenceError, match="3 timed out"):
            decide(
                binary_threshold_protocol(5),
                Multiset({"p0": 5_000}),
                seed=0,
                attempts=3,
                jobs=2,
                timeout=0.3,
                observer=observer,
                stats=stats,
                scheduler=UniformPairScheduler(),
                max_interactions=500_000_000,
                convergence_window=400_000_000,
            )
        assert stats["degraded"] == 0
        assert stats["completed"] == 3
        assert "pool.worker_failures" not in observer.metrics.to_dict()["counters"]


class TestParallelMapDegradation:
    def test_broken_pool_falls_back_to_sequential_results(self):
        tasks = [(i,) for i in range(6)]
        assert parallel_map(_square_unless_worker, tasks, jobs=3) == [
            i * i for i in range(6)
        ]


class TestDeadlines:
    def _big_slow_run(self, **kwargs):
        # The legacy uniform scheduler on a large population grinds slowly
        # enough that a millisecond-scale deadline always fires first.
        return simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 5_000}),
            seed=0,
            scheduler=UniformPairScheduler(),
            max_interactions=500_000_000,
            convergence_window=400_000_000,
            **kwargs,
        )

    def test_simulate_deadline_exceeded(self):
        result = self._big_slow_run(deadline=0.05)
        assert result.deadline_exceeded
        assert result.verdict is None

    def test_simulate_env_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "0.05")
        result = self._big_slow_run()
        assert result.deadline_exceeded

    def test_explicit_deadline_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "0.001")
        result = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 9}),
            seed=0,
            deadline=30.0,
        )
        assert not result.deadline_exceeded
        assert result.verdict is True

    def test_garbage_env_deadline_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "soon")
        result = simulate(
            binary_threshold_protocol(5), Multiset({"p0": 9}), seed=0
        )
        assert not result.deadline_exceeded

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            simulate(
                binary_threshold_protocol(5),
                Multiset({"p0": 9}),
                seed=0,
                deadline=0.0,
            )

    def test_decide_deadline_raises_with_message(self):
        with pytest.raises(NonConvergenceError, match="deadline"):
            decide(
                binary_threshold_protocol(5),
                Multiset({"p0": 5_000}),
                seed=0,
                attempts=3,
                deadline=0.05,
                scheduler=UniformPairScheduler(),
                max_interactions=500_000_000,
                convergence_window=400_000_000,
            )

    def test_pooled_decide_deadline_raises(self, protocol_and_config):
        pp = binary_threshold_protocol(5)
        config = Multiset({"p0": 5_000})
        with pytest.raises(NonConvergenceError, match="deadline"):
            decide(
                pp,
                config,
                seed=0,
                attempts=4,
                jobs=2,
                deadline=0.5,
                scheduler=UniformPairScheduler(),
                max_interactions=500_000_000,
                convergence_window=400_000_000,
            )

    def test_deadline_passed_before_first_wait_abandons_workers(self):
        # Forking the workers can outlast a short deadline: the call must
        # raise at once instead of waiting for attempts that run for hours.
        start = time.monotonic()
        with pytest.raises(NonConvergenceError, match="deadline"):
            decide(
                binary_threshold_protocol(5),
                Multiset({"p0": 5_000}),
                seed=0,
                attempts=2,
                jobs=2,
                deadline=1e-9,
                scheduler=UniformPairScheduler(),
                max_interactions=500_000_000,
                convergence_window=400_000_000,
            )
        assert time.monotonic() - start < 30

    def test_per_attempt_timeout_lets_later_attempts_win(self):
        # A tiny per-attempt budget times the slow attempts out, but the
        # overall call keeps going and reports how many timed out.
        with pytest.raises(NonConvergenceError, match="timed out"):
            decide(
                binary_threshold_protocol(5),
                Multiset({"p0": 5_000}),
                seed=0,
                attempts=2,
                timeout=0.05,
                scheduler=UniformPairScheduler(),
                max_interactions=500_000_000,
                convergence_window=400_000_000,
            )


class TestProgramDeadlines:
    def _flapping_program(self):
        # Main flips the output flag forever: never quiet, never hung.
        from repro.programs import SetOutput, procedure, program, while_true

        return program(
            ["x"],
            [procedure("Main", while_true(SetOutput(True), SetOutput(False)))],
        )

    def test_run_program_deadline(self):
        from repro.programs import run_program

        result = run_program(
            self._flapping_program(), {"x": 3}, seed=0,
            max_steps=10**12, deadline=0.05,
        )
        assert result.deadline_exceeded

    def test_decide_program_strict_deadline_message(self):
        from repro.programs import decide_program

        with pytest.raises(NonConvergenceError, match="deadline exceeded"):
            decide_program(
                self._flapping_program(), {"x": 3}, seed=0,
                max_steps=10**12, deadline=0.05,
            )
