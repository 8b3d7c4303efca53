"""Experiment X5 — churn recovery: self-stabilisation of the Theorem 3
construction under a *dynamic* population.

Experiment X4 (:mod:`repro.experiments.transient_faults`) corrupts
registers while the total agent count stays fixed.  This experiment
lifts the fixed-``n`` assumption entirely: a seeded
:class:`~repro.resilience.ChurnProcess` lets agents join and leave
mid-run, so the quantity the program is *counting* drifts while the
computation is in flight.  The §5.2 error-checking machinery
(AssertEmpty / AssertProper + restart) detects the resulting
inconsistencies and restarts against the *live* population, converging
to the verdict for the post-churn total; the assertion-stripped variant
(``error_checking=False``) silently carries stale counts and its
recovery rate is measurably lower.  The headline number is
``churn.recovery_gap`` — the difference between the two recovery rates.

Ground truth is judged against the population *after* churn: each trial
compares the stabilised output with ``final_total ≥ threshold(n)``,
where ``final_total`` is read back from the run's final registers
(agent counts are conserved by program steps and by restarts, so the
final total is exactly ``initial + joined − departed``).

A protocol-level probe rides along: the same churn plan applied to the
binary-threshold baseline under every engine family — legacy
schedulers, both fastpath loops, and the batched engine (which runs
population-only plans natively at batch barriers) — demonstrating that
dynamic populations are deterministic and invariant-preserving
end-to-end.  Plain protocols promise nothing under churn, so the probe
reports outcomes rather than asserting recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import render_table
from repro.lipton.canonical import canonical_restart_policy
from repro.lipton.construction import build_threshold_program, suggested_quiet_window
from repro.lipton.levels import threshold
from repro.programs.interpreter import run_program
from repro.resilience import ChurnProcess, FaultPlan


@dataclass
class ChurnTrialOutcome:
    """One churn trial: stabilised verdict vs post-churn ground truth."""

    n: int
    total: int
    final_total: int
    error_checking: bool
    expected: bool
    got: Optional[bool]

    @property
    def correct(self) -> bool:
        return self.got is not None and self.got == self.expected


def default_churn_plan(
    *,
    start: int = 20_000,
    length: int = 200_000,
    join_rate: float = 5e-5,
    leave_rate: float = 5e-5,
    state: str = "x1",
) -> FaultPlan:
    """The standard workload: one sustained churn window with matched
    arrival/departure rates.  Joins land in the input register ``x1``
    (new agents arrive uninitialised-but-counted, exactly like fresh
    input); departures are occupancy-weighted across all registers."""
    return FaultPlan(
        [
            ChurnProcess(
                at=start,
                length=length,
                join_rate=join_rate,
                leave_rate=leave_rate,
                state=state,
            )
        ]
    )


def churn_trial(
    n: int,
    total: int,
    *,
    seed: int,
    error_checking: bool = True,
    churn_plan: Optional[FaultPlan] = None,
    quiet_window: Optional[int] = None,
    max_steps: int = 20_000_000,
    program=None,
) -> ChurnTrialOutcome:
    """Run the n-level program from ``x1 = total`` under sustained churn
    and compare the stabilised output with ``final_total ≥ threshold(n)``.

    Every join/leave event re-opens the interpreter's quiet window, so a
    returned verdict certifies stabilisation *after* churn subsides."""
    if quiet_window is None:
        quiet_window = suggested_quiet_window(n)
    if churn_plan is None:
        churn_plan = default_churn_plan()
    if program is None:
        program = build_threshold_program(n, error_checking=error_checking)

    def stop(state) -> bool:
        return state.quiet_steps >= quiet_window

    result = run_program(
        program,
        {"x1": total},
        seed=seed,
        restart_policy=canonical_restart_policy(n),
        max_steps=max_steps,
        stop_condition=stop,
        faults=churn_plan,
    )
    stabilised = (
        result.hung or result.quiet_steps >= quiet_window or result.main_returned
    )
    return ChurnTrialOutcome(
        n=n,
        total=total,
        final_total=result.total,
        error_checking=error_checking,
        expected=result.total >= threshold(n),
        got=result.output if stabilised else None,
    )


_ARTIFACTS: dict = {}


def _program_for(n: int, error_checking: bool):
    key = (n, error_checking)
    if key not in _ARTIFACTS:
        _ARTIFACTS[key] = build_threshold_program(n, error_checking=error_checking)
    return _ARTIFACTS[key]


def churn_recovery_task(
    n: int,
    total: int,
    error_checking: bool,
    seed: int,
    quiet_window: int,
    max_steps: int,
    plan_args: Dict[str, float],
) -> ChurnTrialOutcome:
    """One trial, module-level so :func:`repro.runtime.pool.parallel_map`
    can pickle it by reference; programs are memoised per worker."""
    return churn_trial(
        n,
        total,
        seed=seed,
        error_checking=error_checking,
        churn_plan=default_churn_plan(**plan_args),
        quiet_window=quiet_window,
        max_steps=max_steps,
        program=_program_for(n, error_checking),
    )


@dataclass
class EngineProbeRow:
    """Protocol-level probe: one engine family under the churn plan."""

    family: str
    verdict: Optional[bool]
    population_before: int
    population_after: int
    joined: int
    departed: int
    interactions: int


@dataclass
class ChurnRecoveryReport:
    """X5 headline numbers (see :meth:`render` for the table shape)."""

    n: int
    with_checks_correct: int
    with_checks_total: int
    without_checks_correct: int
    without_checks_total: int
    probes: List[EngineProbeRow] = field(default_factory=list)

    @property
    def with_checks_rate(self) -> float:
        return self.with_checks_correct / max(1, self.with_checks_total)

    @property
    def without_checks_rate(self) -> float:
        return self.without_checks_correct / max(1, self.without_checks_total)

    @property
    def recovery_gap(self) -> float:
        """How much the error checks buy under churn (rate difference)."""
        return self.with_checks_rate - self.without_checks_rate

    @property
    def checks_help(self) -> bool:
        """Full construction strictly more churn-tolerant than stripped."""
        return self.recovery_gap > 0

    def render(self) -> str:
        header = ["variant", "recovered", "total", "rate"]
        rows = [
            (
                "with error checks",
                self.with_checks_correct,
                self.with_checks_total,
                round(self.with_checks_rate, 3),
            ),
            (
                "without (bare Lipton)",
                self.without_checks_correct,
                self.without_checks_total,
                round(self.without_checks_rate, 3),
            ),
        ]
        table = render_table(header, rows)
        table += f"\n\nrecovery gap: {self.recovery_gap:+.3f}"
        if self.probes:
            header2 = [
                "engine family",
                "verdict",
                "pop before",
                "pop after",
                "joined",
                "departed",
                "interactions",
            ]
            rows2 = [
                (
                    p.family,
                    p.verdict,
                    p.population_before,
                    p.population_after,
                    p.joined,
                    p.departed,
                    p.interactions,
                )
                for p in self.probes
            ]
            table += "\n\nprotocol-level probe (binary threshold, churned):\n"
            table += render_table(header2, rows2)
        return table


def engine_churn_probe(
    *, k: int = 5, population: int = 40, seed: int = 11
) -> List[EngineProbeRow]:
    """Run one churned simulation per engine family on the
    binary-threshold baseline and report the (deterministic) outcomes.

    The plan mixes discrete joins/leaves with a rate-driven churn
    window, so this exercises the resize paths of the legacy loop, both
    fastpath loops (``EnabledIndex.grow``/``shrink``), and the batched
    engine's between-batch barrier firing in a single sweep."""
    from repro.baselines.binary import binary_threshold_protocol
    from repro.core.batched import BatchedScheduler
    from repro.core.fastpath import FastEnabledScheduler, FastUniformScheduler
    from repro.core.multiset import Multiset
    from repro.core.scheduler import (
        EnabledTransitionScheduler,
        UniformPairScheduler,
    )
    from repro.core.simulation import simulate
    from repro.resilience import JoinAgents, LeaveAgents

    protocol = binary_threshold_protocol(k)
    config = Multiset({"p0": population})
    plan = FaultPlan(
        [
            JoinAgents(at=60, agents=3, state="p0"),
            LeaveAgents(at=150, agents=2),
            ChurnProcess(
                at=300,
                length=3_000,
                join_rate=2e-3,
                leave_rate=2e-3,
                state="p0",
            ),
        ]
    )
    families = [
        ("fast_enabled", FastEnabledScheduler()),
        ("fast_uniform", FastUniformScheduler()),
        ("legacy_enabled", EnabledTransitionScheduler()),
        ("legacy_uniform", UniformPairScheduler()),
        ("batched", BatchedScheduler()),
    ]
    rows = []
    for name, scheduler in families:
        result = simulate(
            protocol,
            config,
            seed=seed,
            scheduler=scheduler,
            faults=plan,
            max_interactions=500_000,
        )
        rows.append(
            EngineProbeRow(
                family=name,
                verdict=result.verdict,
                population_before=population,
                population_after=result.population,
                joined=result.joined,
                departed=result.departed,
                interactions=result.interactions,
            )
        )
    return rows


def run_churn_recovery(
    n: int = 2,
    *,
    trials_per_total: int = 3,
    seed: int = 0,
    quiet_window: int = 30_000,
    max_steps: int = 10_000_000,
    churn_start: int = 20_000,
    churn_length: int = 200_000,
    join_rate: float = 5e-5,
    leave_rate: float = 5e-5,
    jobs: Optional[int] = None,
    probe: bool = True,
) -> ChurnRecoveryReport:
    """The X5 driver: boundary totals × both variants × several trials,
    fanned across the pool, plus the protocol-level engine probe.

    Per-trial seeds are pure functions of the (variant, total, trial)
    path, so parallel and sequential runs sample identical trials."""
    from repro.runtime.pool import parallel_map
    from repro.runtime.seeds import derive_seed_path

    k = threshold(n)
    totals = [max(1, k - 3), k - 1, k, k + 2, k + 6]
    plan_args = {
        "start": churn_start,
        "length": churn_length,
        "join_rate": join_rate,
        "leave_rate": leave_rate,
    }
    tasks = []
    for error_checking in (True, False):
        for total in totals:
            for trial in range(trials_per_total):
                tasks.append(
                    (
                        n,
                        total,
                        error_checking,
                        derive_seed_path(
                            seed, "churn", int(error_checking), total, trial
                        ),
                        quiet_window,
                        max_steps,
                        plan_args,
                    )
                )
    outcomes: List[ChurnTrialOutcome] = parallel_map(churn_recovery_task, tasks, jobs=jobs)
    tallies: Dict[bool, Tuple[int, int]] = {True: (0, 0), False: (0, 0)}
    for outcome in outcomes:
        correct, total_count = tallies[outcome.error_checking]
        tallies[outcome.error_checking] = (
            correct + outcome.correct,
            total_count + 1,
        )
    return ChurnRecoveryReport(
        n=n,
        with_checks_correct=tallies[True][0],
        with_checks_total=tallies[True][1],
        without_checks_correct=tallies[False][0],
        without_checks_total=tallies[False][1],
        probes=engine_churn_probe() if probe else [],
    )


if __name__ == "__main__":
    report = run_churn_recovery()
    print(report.render())
    print("error checking helps under churn:", report.checks_help)
