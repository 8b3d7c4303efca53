"""Deterministic fault injection: plan semantics, per-layer views,
golden replay across every scheduler family, and invariant preservation."""

import random

import pytest

from repro.baselines import binary_threshold_protocol, majority_protocol
from repro.core import Multiset, simulate
from repro.core.fastpath import (
    EnabledIndex,
    FastEnabledScheduler,
    FastUniformScheduler,
)
from repro.core.scheduler import EnabledTransitionScheduler, UniformPairScheduler
from repro.observability.trace import TraceRecorder
from repro.resilience import (
    CorruptAgents,
    DropInteractions,
    DuplicateInteractions,
    FaultInjector,
    FaultPlan,
    IndexView,
    RegisterView,
    ResetAgents,
    UnfairWindow,
    resolve_injector,
)
from tests.core.test_fastpath import CHI2_CRIT_001, two_sample_chi2

FAMILIES = [
    ("fast_enabled", FastEnabledScheduler),
    ("fast_uniform", FastUniformScheduler),
    ("legacy_enabled", EnabledTransitionScheduler),
    ("legacy_uniform", UniformPairScheduler),
]

MIXED_PLAN = FaultPlan(
    [
        CorruptAgents(at=30, agents=2),
        ResetAgents(at=80, agents=1),
        DropInteractions(at=140, count=2),
        DuplicateInteractions(at=200, count=2),
        UnfairWindow(at=260, length=40),
    ]
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


class TestFaultPlan:
    def test_rejects_non_fault_records(self):
        with pytest.raises(TypeError):
            FaultPlan(["corrupt"])

    def test_rejects_negative_trigger(self):
        with pytest.raises(ValueError):
            FaultPlan([CorruptAgents(at=-1)])

    def test_sorted_by_trigger_step(self):
        plan = FaultPlan([ResetAgents(at=50), CorruptAgents(at=10)])
        assert [f.at for f in plan] == [10, 50]

    def test_periodic_corruption_schedule(self):
        plan = FaultPlan.periodic_corruption(start=10, period=5, count=3, agents=2)
        assert [f.at for f in plan] == [10, 15, 20]
        assert all(isinstance(f, CorruptAgents) and f.agents == 2 for f in plan)

    def test_periodic_corruption_rejects_bad_period(self):
        with pytest.raises(ValueError):
            FaultPlan.periodic_corruption(start=0, period=0, count=2)

    def test_resolve_injector_accepts_plan_injector_none(self):
        assert resolve_injector(None, 0) is None
        injector = resolve_injector(MIXED_PLAN, 3)
        assert isinstance(injector, FaultInjector)
        assert resolve_injector(injector, 99) is injector
        with pytest.raises(TypeError):
            resolve_injector("chaos", 0)


class TestDeterminism:
    @pytest.mark.parametrize("name,scheduler_cls", FAMILIES)
    def test_golden_replay_per_family(self, name, scheduler_cls):
        # Same (seed, plan) twice: the faulted run must be bit-identical.
        first = _run(scheduler_cls, faults=MIXED_PLAN)
        second = _run(scheduler_cls, faults=MIXED_PLAN)
        assert _fingerprint(first) == _fingerprint(second)

    @pytest.mark.parametrize("name,scheduler_cls", FAMILIES)
    def test_empty_plan_is_bit_identical_to_no_plan(self, name, scheduler_cls):
        # The fault stream is independent of the simulation stream, so an
        # empty plan must not perturb a seeded run at all.
        plain = _run(scheduler_cls, faults=None)
        empty = _run(scheduler_cls, faults=FaultPlan())
        assert _fingerprint(plain) == _fingerprint(empty)

    def test_faults_actually_perturb_the_run(self):
        plain = _run(FastEnabledScheduler, faults=None)
        faulted = _run(FastEnabledScheduler, faults=MIXED_PLAN)
        assert _fingerprint(plain) != _fingerprint(faulted)

    @pytest.mark.parametrize("name,scheduler_cls", FAMILIES)
    def test_population_preserved_under_faults(self, name, scheduler_cls):
        # Every fault kind is population-preserving: the model has no churn.
        result = _run(scheduler_cls, faults=MIXED_PLAN, population=24)
        assert result.final.size == 24
        assert all(count >= 0 for _, count in result.final.items())


class TestIndexViewInvariants:
    def test_corruption_keeps_enabled_index_exact(self):
        # Fire heavy corruption straight into a live EnabledIndex and
        # brute-force check the weight/active/total invariant afterwards.
        pp = majority_protocol()
        config = Multiset({"X": 9, "Y": 4})
        for mode in ("enabled", "uniform"):
            index = EnabledIndex(pp, config.copy(), mode=mode)
            view = IndexView(index)
            injector = FaultPlan(
                [CorruptAgents(at=0, agents=6), ResetAgents(at=0, agents=3)]
            ).bind(7)
            injector.fire(0, view)
            materialised = Multiset(
                {
                    state: index.cnt[index.table.sid[state]]
                    for state in index.table.states
                    if index.cnt[index.table.sid[state]]
                }
            )
            index.validate(materialised)
            assert materialised.size == 13

    def test_accept_delta_tracks_accepting_count(self):
        pp = binary_threshold_protocol(5)
        config = Multiset({"p0": 10})
        index = EnabledIndex(pp, config.copy(), mode="enabled")
        view = IndexView(index)
        accepting = pp.accepting_states
        before = sum(
            index.cnt[index.table.sid[s]]
            for s in index.table.states
            if s in accepting
        )
        FaultPlan([CorruptAgents(at=0, agents=5)]).bind(3).fire(0, view)
        after = sum(
            index.cnt[index.table.sid[s]]
            for s in index.table.states
            if s in accepting
        )
        assert view.accept_delta == after - before

    @pytest.mark.parametrize(
        "scheduler_cls", [FastEnabledScheduler, FastUniformScheduler]
    )
    def test_faulted_fastpath_final_config_is_consistent(self, scheduler_cls):
        # End-to-end: after a faulted fast run, rebuilding the index from
        # the final configuration must satisfy the invariant (the returned
        # configuration is internally consistent and non-negative).
        result = _run(scheduler_cls, faults=MIXED_PLAN)
        pp = binary_threshold_protocol(5)
        rebuilt = EnabledIndex(pp, result.final.copy(), mode="enabled")
        rebuilt.validate(result.final)


class TestFaultBehaviours:
    def test_dropped_interactions_change_nothing(self):
        # Every step of the run is a drop: the scheduler advances, the
        # configuration does not move.
        config = Multiset({"p0": 8})
        plan = FaultPlan([DropInteractions(at=0, count=10)])
        result = simulate(
            binary_threshold_protocol(5),
            config,
            seed=0,
            scheduler=EnabledTransitionScheduler(),
            faults=plan,
            max_interactions=10,
        )
        assert result.interactions == 10
        assert result.productive == 0
        assert dict(result.final.items()) == {"p0": 8}

    def test_duplicates_count_as_productive_work(self):
        plain = _run(FastEnabledScheduler, seed=5, faults=None)
        doubled = _run(
            FastEnabledScheduler,
            seed=5,
            faults=FaultPlan([DuplicateInteractions(at=0, count=40)]),
        )
        # Re-applied interactions do productive work without consuming
        # scheduler steps, so the productive/interaction ratio goes up.
        assert doubled.productive * plain.interactions > (
            plain.productive * doubled.interactions
        ) or doubled.productive >= plain.productive

    def test_unfair_window_still_recovers(self):
        # A bounded fairness violation must not wedge the run: once the
        # window closes, fair sampling resumes and the verdict is right.
        result = _run(
            FastEnabledScheduler,
            faults=FaultPlan([UnfairWindow(at=10, length=200)]),
            population=24,
        )
        assert result.verdict is True  # 24 >= 5

    def test_reset_to_unknown_state_rejected(self):
        plan = FaultPlan([ResetAgents(at=0, agents=1, state="nope")])
        with pytest.raises(ValueError):
            _run(FastEnabledScheduler, faults=plan)

    def test_injector_exhaustion(self):
        injector = FaultPlan([CorruptAgents(at=5)]).bind(0)
        assert not injector.exhausted()
        assert injector.next_at == 5
        pp = majority_protocol()
        view = IndexView(EnabledIndex(pp, Multiset({"X": 3, "Y": 2})))
        injector.fire(5, view)
        assert injector.exhausted()
        assert injector.next_at == float("inf")


#: Twenty barriers that change nothing, spread over the first 87 steps —
#: all before the last interaction of the uninjected binary(5) run on 24
#: agents with seed 0 (92 interactions).
NOOP_BARRIERS = FaultPlan(
    [CorruptAgents(at=1 + i * 90 // 20, agents=0) for i in range(20)]
)


class TestSegmentedFastPath:
    """The fast path runs its uninjected loops between fault barriers:
    cutting a run at barriers that change nothing must not change it."""

    def test_noop_barriers_leave_the_enabled_run_bit_identical(self):
        # Enabled mode draws nothing at a barrier: a step sampled before
        # one is sampled the same way after it.
        plain = _run(FastEnabledScheduler, seed=0)
        assert max(f.at for f in NOOP_BARRIERS) < plain.interactions
        recorder = TraceRecorder()
        barred = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 24}),
            seed=0,
            scheduler=FastEnabledScheduler(),
            faults=NOOP_BARRIERS,
            max_interactions=300_000,
            observer=recorder,
        )
        assert _fingerprint(barred) == _fingerprint(plain)
        fired = [e.step for e in recorder.events if e.kind == "fault"]
        assert fired == [f.at for f in NOOP_BARRIERS]

    def test_noop_barriers_keep_the_uniform_law(self):
        # Uniform mode re-draws a null run cut at a barrier, so the random
        # stream differs, but the geometric law is memoryless: the run
        # length to detected silence keeps its distribution.  Every run
        # here lasts past the last barrier (the shortest of 250 takes 204
        # interactions), so no run is fast-forwarded.  250 runs per side.
        pp = majority_protocol()
        config = Multiset({"X": 30, "Y": 20})
        bins = [0, 296, 368, 460, 10**9]

        def binned(faults, seed0):
            lengths = [
                simulate(
                    pp,
                    config,
                    seed=seed0 + s,
                    scheduler=FastUniformScheduler(),
                    faults=faults,
                    max_interactions=50_000,
                    convergence_window=10**9,
                    check_silence_every=4,
                ).interactions
                for s in range(250)
            ]
            return [
                sum(1 for v in lengths if lo <= v < hi)
                for lo, hi in zip(bins, bins[1:])
            ]

        plain = binned(None, 0)
        barred = binned(NOOP_BARRIERS, 10_000)
        stat = two_sample_chi2(plain, barred)
        assert stat < CHI2_CRIT_001[len(bins) - 2], (stat, plain, barred)

    @pytest.mark.parametrize(
        "scheduler_cls", [FastEnabledScheduler, FastUniformScheduler]
    )
    def test_deadline_cuts_a_densely_faulted_run(self, scheduler_cls):
        # A trigger every third step: the deadline clock must keep ticking
        # across the short segments between barriers.
        plan = FaultPlan.periodic_corruption(start=1, period=3, count=50_000)
        result = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 4}),
            seed=0,
            scheduler=scheduler_cls(),
            faults=plan,
            max_interactions=150_000,
            convergence_window=10**9,
            deadline=0.01,
        )
        assert result.deadline_exceeded is True
        assert result.verdict is None
        assert result.interactions < 150_000


class TestRegisterView:
    def test_moves_preserve_total(self):
        registers = {"a": 5, "b": 0, "c": 2}
        view = RegisterView(registers)
        FaultPlan([CorruptAgents(at=0, agents=4)]).bind(1).fire(0, view)
        assert sum(registers.values()) == 7
        assert all(v >= 0 for v in registers.values())

    def test_program_faults_replay_deterministically(self):
        from repro.programs import Move, procedure, program, run_program, while_true

        prog = program(
            ["x", "y"], [procedure("Main", Move("x", "y"), while_true())]
        )
        plan = FaultPlan([CorruptAgents(at=20, agents=2)])
        runs = [
            run_program(prog, {"x": 6}, seed=3, faults=plan, max_steps=400)
            for _ in range(2)
        ]
        assert runs[0].registers == runs[1].registers
        assert runs[0].steps == runs[1].steps
        assert sum(runs[0].registers.values()) == 6


class TestFaultEvents:
    def test_observer_sees_one_event_per_fired_fault(self):
        recorder = TraceRecorder()
        _ = simulate(
            binary_threshold_protocol(5),
            Multiset({"p0": 24}),
            seed=11,
            scheduler=FastEnabledScheduler(),
            faults=MIXED_PLAN,
            max_interactions=300_000,
            observer=recorder,
        )
        faults = [e for e in recorder.events if e.kind == "fault"]
        assert len(faults) == len(MIXED_PLAN)
        kinds = {e.data["fault"] for e in faults}
        assert kinds == {
            "corrupt",
            "reset",
            "drop_scheduled",
            "duplicate_scheduled",
            "unfair",
        }
