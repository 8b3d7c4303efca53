"""Dynamic populations under churn: plan semantics, golden replay per
engine family, the empty-plan identity, EnabledIndex resize invariants,
adversarial windows, and the batched engine's native barrier path."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import binary_threshold_protocol, majority_protocol
from repro.core import Multiset, simulate
from repro.core.batched import BatchedScheduler, _PureSampler
from repro.core.errors import NonConvergenceError
from repro.core.fastpath import (
    EnabledIndex,
    FastEnabledScheduler,
    FastUniformScheduler,
)
from repro.core.scheduler import EnabledTransitionScheduler, UniformPairScheduler
from repro.observability.trace import TraceRecorder
from repro.resilience import (
    AdversarialScheduler,
    ChurnProcess,
    FaultPlan,
    IndexView,
    JoinAgents,
    LeaveAgents,
    expand_churn,
)
from repro.runtime.pool import parallel_map

FAMILIES = [
    ("fast_enabled", FastEnabledScheduler),
    ("fast_uniform", FastUniformScheduler),
    ("legacy_enabled", EnabledTransitionScheduler),
    ("legacy_uniform", UniformPairScheduler),
]

#: Population-only churn (runs natively on every engine incl. batched).
CHURN_PLAN = FaultPlan(
    [
        JoinAgents(at=40, agents=3, state="p0"),
        LeaveAgents(at=120, agents=2),
        ChurnProcess(at=200, length=2_000, join_rate=2e-3, leave_rate=2e-3, state="p0"),
    ]
)

#: Adds a per-interaction kind (adversarial window) on top.
ADVERSARIAL_PLAN = FaultPlan(
    [*CHURN_PLAN, AdversarialScheduler(at=2_500, length=60, fairness=4)]
)


def _run(scheduler_cls, *, seed=11, faults=None, population=24, k=5):
    return simulate(
        binary_threshold_protocol(k),
        Multiset({"p0": population}),
        seed=seed,
        scheduler=scheduler_cls(),
        faults=faults,
        max_interactions=300_000,
    )


def _fingerprint(result):
    return (
        dict(result.final.items()),
        result.verdict,
        result.silent,
        result.interactions,
        result.productive,
        result.output_trace,
    )


def _churned_fingerprint(seed):
    """Module-level so :func:`parallel_map` can ship it to pool workers."""
    return _fingerprint(_run(FastEnabledScheduler, seed=seed, faults=CHURN_PLAN))


class TestChurnPlanSemantics:
    def test_churn_process_validates(self):
        with pytest.raises(ValueError):
            ChurnProcess(at=0, length=0)
        with pytest.raises(ValueError):
            ChurnProcess(at=0, join_rate=-0.1)
        with pytest.raises(ValueError):
            ChurnProcess(at=0, leave_rate=-0.1)
        with pytest.raises(ValueError):
            AdversarialScheduler(at=0, fairness=-1)

    def test_expand_churn_is_deterministic(self):
        proc = ChurnProcess(at=100, length=5_000, join_rate=1e-2, leave_rate=1e-2)
        first = expand_churn(proc, random.Random(42))
        second = expand_churn(proc, random.Random(42))
        assert first == second
        assert all(100 <= f.at < 5_100 for f in first)

    def test_zero_rates_expand_to_nothing(self):
        proc = ChurnProcess(at=100, length=5_000)
        assert expand_churn(proc, random.Random(42)) == []

    def test_bound_plan_tracks_population_only(self):
        assert CHURN_PLAN.bind(3).population_only()
        assert not ADVERSARIAL_PLAN.bind(3).population_only()

    def test_inert_distinguishes_empty_from_pending(self):
        assert FaultPlan().bind(0).inert()
        assert FaultPlan([ChurnProcess(at=10, length=100)]).bind(0).inert()
        assert not CHURN_PLAN.bind(0).inert()


class TestDeterminism:
    @pytest.mark.parametrize("name,scheduler_cls", FAMILIES)
    def test_golden_replay_per_family(self, name, scheduler_cls):
        first = _run(scheduler_cls, faults=ADVERSARIAL_PLAN)
        second = _run(scheduler_cls, faults=ADVERSARIAL_PLAN)
        assert _fingerprint(first) == _fingerprint(second)

    def test_golden_replay_batched(self):
        first = _run(BatchedScheduler, faults=CHURN_PLAN, population=64)
        second = _run(BatchedScheduler, faults=CHURN_PLAN, population=64)
        assert _fingerprint(first) == _fingerprint(second)

    @pytest.mark.parametrize(
        "name,scheduler_cls", FAMILIES + [("batched", BatchedScheduler)]
    )
    def test_empty_churn_plan_is_bit_identical_to_no_plan(
        self, name, scheduler_cls
    ):
        # A zero-rate churn window expands to no events, so the injector
        # must null itself out and leave the uninjected hot path intact.
        plain = _run(scheduler_cls, faults=None)
        zero_rate = _run(
            scheduler_cls,
            faults=FaultPlan([ChurnProcess(at=10, length=1_000)]),
        )
        assert _fingerprint(plain) == _fingerprint(zero_rate)

    def test_empty_churn_plan_is_identity_for_run_program(self):
        # The program interpreter nulls an inert injector by the same
        # rule as simulate.
        from repro.programs import Move, procedure, program, run_program, while_true

        prog = program(
            ["x", "y"], [procedure("Main", Move("x", "y"), while_true())]
        )
        plain = run_program(prog, {"x": 6}, seed=3, max_steps=400)
        zero_rate = run_program(
            prog,
            {"x": 6},
            seed=3,
            faults=FaultPlan([ChurnProcess(at=10, length=1_000)]),
            max_steps=400,
        )
        assert plain == zero_rate

    def test_churn_actually_perturbs_the_run(self):
        plain = _run(FastEnabledScheduler, faults=None)
        churned = _run(FastEnabledScheduler, faults=CHURN_PLAN)
        assert _fingerprint(plain) != _fingerprint(churned)

    def test_jobs_two_matches_jobs_one_under_churn(self):
        tasks = [(seed,) for seed in (1, 2, 3, 4)]
        sequential = parallel_map(_churned_fingerprint, tasks, jobs=1)
        fanned = parallel_map(_churned_fingerprint, tasks, jobs=2)
        assert sequential == fanned

    @pytest.mark.parametrize(
        "name,scheduler_cls", FAMILIES + [("batched", BatchedScheduler)]
    )
    def test_population_accounting(self, name, scheduler_cls):
        result = _run(scheduler_cls, faults=CHURN_PLAN, population=24)
        assert result.population == result.final.size
        assert result.population == 24 + result.joined - result.departed
        # The discrete part of the plan fires unconditionally.
        assert result.joined >= 3
        assert result.departed >= 2


class TestEnabledIndexResize:
    def _materialised(self, index):
        return Multiset(
            {
                state: index.cnt[index.table.sid[state]]
                for state in index.table.states
                if index.cnt[index.table.sid[state]]
            }
        )

    @pytest.mark.parametrize("mode", ["enabled", "uniform"])
    def test_grow_and_shrink_keep_invariants(self, mode):
        pp = majority_protocol()
        index = EnabledIndex(pp, Multiset({"X": 9, "Y": 4}), mode=mode)
        index.grow(index.table.sid["X"], 3)
        index.validate(self._materialised(index))
        index.shrink(index.table.sid["Y"], 4)
        index.validate(self._materialised(index))
        assert index.population == 12

    def test_shrink_below_zero_rejected(self):
        pp = majority_protocol()
        index = EnabledIndex(pp, Multiset({"X": 2, "Y": 1}))
        with pytest.raises(ValueError):
            index.shrink(index.table.sid["X"], 3)

    def test_view_resize_tracks_accepting_and_size(self):
        pp = binary_threshold_protocol(5)
        index = EnabledIndex(pp, Multiset({"p0": 10}))
        view = IndexView(index)
        injector = FaultPlan(
            [JoinAgents(at=0, agents=4, state="p0"), LeaveAgents(at=0, agents=1)]
        ).bind(7)
        injector.fire(0, view)
        assert view.size_delta == 3
        assert injector.joined == 4 and injector.departed == 1
        index.validate(self._materialised(index))

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["X", "Y", "x", "y"]), st.integers(-3, 3)
            ),
            max_size=20,
        )
    )
    def test_resize_invariants_hold_under_any_op_sequence(self, ops):
        pp = majority_protocol()
        index = EnabledIndex(pp, Multiset({"X": 5, "Y": 5}), mode="uniform")
        for state, delta in ops:
            sid = index.table.sid[state]
            if delta >= 0:
                index.grow(sid, delta)
            elif index.cnt[sid] >= -delta:
                index.shrink(sid, -delta)
        index.validate(self._materialised(index))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), rate=st.floats(1e-4, 5e-3))
    def test_churned_fast_run_replays(self, seed, rate):
        plan = FaultPlan(
            [ChurnProcess(at=30, length=1_000, join_rate=rate, leave_rate=rate, state="p0")]
        )
        first = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 16}),
            seed=seed,
            scheduler=FastEnabledScheduler(),
            faults=plan,
            max_interactions=30_000,
        )
        second = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 16}),
            seed=seed,
            scheduler=FastEnabledScheduler(),
            faults=plan,
            max_interactions=30_000,
        )
        assert _fingerprint(first) == _fingerprint(second)
        assert first.population == first.final.size


class TestAdversarialWindow:
    def test_take_adversarial_respects_fairness_budget(self):
        injector = FaultPlan(
            [AdversarialScheduler(at=5, length=100, fairness=2)]
        ).bind(0)
        pp = majority_protocol()
        view = IndexView(EnabledIndex(pp, Multiset({"X": 3, "Y": 2})))
        injector.fire(5, view)
        assert injector.adversarial_active(6)
        assert injector.adversarial_active(105)
        assert not injector.adversarial_active(106)
        # fairness=2: every second pick inside the window is fair-sampled.
        picks = [injector.take_adversarial() for _ in range(4)]
        assert picks == [True, False, True, False]

    def test_fairness_zero_is_pure_adversary(self):
        injector = FaultPlan(
            [AdversarialScheduler(at=5, length=100, fairness=0)]
        ).bind(0)
        pp = majority_protocol()
        view = IndexView(EnabledIndex(pp, Multiset({"X": 3, "Y": 2})))
        injector.fire(5, view)
        assert all(injector.take_adversarial() for _ in range(8))

    @pytest.mark.parametrize("name,scheduler_cls", FAMILIES)
    def test_window_perturbs_but_run_recovers(self, name, scheduler_cls):
        # A bounded adversarial window must not wedge the run: once it
        # closes, fair sampling resumes and the verdict is right (24 >= 5
        # and joins/leaves here are balanced enough to stay above k).
        plan = FaultPlan([AdversarialScheduler(at=10, length=150, fairness=3)])
        result = _run(scheduler_cls, faults=plan)
        assert result.verdict is True
        assert _fingerprint(result) != _fingerprint(_run(scheduler_cls))


class TestBatchedChurn:
    def test_small_population_sampler_rejected_cleanly(self):
        for m in (0, 1):
            with pytest.raises(NonConvergenceError):
                _PureSampler(random.Random(0), 3, m)

    def test_set_population_rejects_small_m(self):
        sampler = _PureSampler(random.Random(0), 3, 8)
        with pytest.raises(NonConvergenceError):
            sampler.set_population(1)

    def test_batch_length_guard(self):
        sampler = _PureSampler(random.Random(0), 3, 8)
        sampler.m = 1  # simulate an unguarded mid-run shrink
        with pytest.raises(NonConvergenceError):
            sampler.batch_length()

    def test_batched_scheduler_single_agent_is_noop(self):
        # n = 1 never reaches the batch law: simulate falls back to the
        # per-step path and the lone agent's output is the verdict.
        result = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 1}),
            seed=0,
            scheduler=BatchedScheduler(),
            max_interactions=1_000,
        )
        assert result.population == 1
        assert result.verdict is False  # 1 < 5

    def test_drain_to_zero_mid_run_finishes_cleanly(self):
        plan = FaultPlan([LeaveAgents(at=50, agents=100)])
        result = _run(BatchedScheduler, faults=plan, population=32)
        assert result.population == 0
        assert result.verdict is None
        assert result.departed == 32

    def test_drain_to_one_then_join_revives(self):
        plan = FaultPlan(
            [
                LeaveAgents(at=50, agents=31),
                JoinAgents(at=400, agents=15, state="p0"),
            ]
        )
        result = _run(BatchedScheduler, faults=plan, population=32)
        assert result.population == 16
        assert result.verdict is True  # populations rejoined above k

    def test_batched_matches_population_arithmetic(self):
        result = _run(BatchedScheduler, faults=CHURN_PLAN, population=64)
        assert result.population == 64 + result.joined - result.departed


class TestFastpathDrain:
    @pytest.mark.parametrize("name,scheduler_cls", FAMILIES)
    def test_drain_to_zero_yields_none_verdict(self, name, scheduler_cls):
        plan = FaultPlan([LeaveAgents(at=20, agents=100)])
        result = _run(scheduler_cls, faults=plan, population=12)
        assert result.population == 0
        assert result.verdict is None


class TestChurnEvents:
    def test_observer_sees_join_leave_and_adversarial_events(self):
        recorder = TraceRecorder()
        result = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 24}),
            seed=11,
            scheduler=FastEnabledScheduler(),
            faults=ADVERSARIAL_PLAN,
            max_interactions=300_000,
            observer=recorder,
        )
        kinds = {
            e.data["fault"] for e in recorder.events if e.kind == "fault"
        }
        assert {"join", "leave", "adversarial"} <= kinds
        assert result.joined > 0 and result.departed > 0

    def test_profiler_aggregates_churn_metrics(self):
        from repro.observability.profile import ProfilingObserver

        profiler = ProfilingObserver()
        result = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 24}),
            seed=11,
            scheduler=FastEnabledScheduler(),
            faults=CHURN_PLAN,
            max_interactions=300_000,
            observer=profiler,
        )
        summary = profiler.summary()
        assert summary["churn.joined"] == result.joined
        assert summary["churn.departed"] == result.departed
        assert summary["churn.agents_joined"] == result.joined
        assert summary["churn.agents_departed"] == result.departed
        assert summary["churn.joins"] >= 1 and summary["churn.leaves"] >= 1
