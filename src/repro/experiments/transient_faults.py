"""Experiment X4 — transient faults: recovery of the Theorem 3
construction under mid-run corruption.

Experiment X2 (:mod:`repro.experiments.ablation`) shows the §5.2
error-checking machinery (AssertEmpty / AssertProper + restart) rescues
the construction from *adversarial initialisation*.  This experiment
probes the complementary self-stabilisation claim: start from a *good*
configuration (``x1 = total``), let the run make progress, then corrupt
the registers mid-flight with a deterministic
:class:`~repro.resilience.FaultPlan`.  The full construction detects the
inconsistency and restarts its way back to the correct verdict; the
assertion-stripped variant (``error_checking=False``) silently carries
the corrupted counter to a wrong — but perfectly quiet — answer, so its
failure rate is measurably higher.

A protocol-level probe rides along: the same fault plan applied to the
binary-threshold baseline under every scheduler family (legacy and
fastpath), primarily demonstrating that injection is deterministic and
invariant-preserving end-to-end.  Protocol-level corruption *may*
legitimately flip a verdict — plain protocols promise nothing under
faults — so the probe reports outcomes rather than asserting recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import render_table
from repro.lipton.canonical import canonical_restart_policy
from repro.lipton.construction import build_threshold_program, suggested_quiet_window
from repro.lipton.levels import threshold
from repro.programs.interpreter import decide_program
from repro.resilience import FaultPlan


@dataclass
class FaultTrialOutcome:
    """One transient-fault trial: sampled verdict vs ground truth."""

    n: int
    total: int
    error_checking: bool
    expected: bool
    got: Optional[bool]

    @property
    def correct(self) -> bool:
        return self.got is not None and self.got == self.expected


def default_fault_plan(
    *, start: int = 40_000, period: int = 120_000, count: int = 3, agents: int = 2
) -> FaultPlan:
    """The standard workload: a few small corruption bursts, spaced far
    enough apart for the restart machinery to recover between hits."""
    return FaultPlan.periodic_corruption(
        start=start, period=period, count=count, agents=agents
    )


def transient_fault_trial(
    n: int,
    total: int,
    *,
    seed: int,
    error_checking: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    quiet_window: Optional[int] = None,
    max_steps: int = 20_000_000,
    program=None,
) -> FaultTrialOutcome:
    """Run the n-level program from the *good* configuration
    ``x1 = total`` with mid-run register corruption, and compare the
    stabilised output with ``total ≥ threshold(n)``.

    Each fault re-opens the interpreter's quiet window, so a returned
    verdict certifies stabilisation *after* the final corruption."""
    if quiet_window is None:
        quiet_window = suggested_quiet_window(n)
    if fault_plan is None:
        fault_plan = default_fault_plan()
    if program is None:
        program = build_threshold_program(n, error_checking=error_checking)
    got = decide_program(
        program,
        {"x1": total},
        seed=seed,
        restart_policy=canonical_restart_policy(n),
        quiet_window=quiet_window,
        max_steps=max_steps,
        strict=False,
        faults=fault_plan,
    )
    return FaultTrialOutcome(
        n=n,
        total=total,
        error_checking=error_checking,
        expected=total >= threshold(n),
        got=got,
    )


_ARTIFACTS: dict = {}


def _program_for(n: int, error_checking: bool):
    key = (n, error_checking)
    if key not in _ARTIFACTS:
        _ARTIFACTS[key] = build_threshold_program(n, error_checking=error_checking)
    return _ARTIFACTS[key]


def transient_fault_task(
    n: int,
    total: int,
    error_checking: bool,
    seed: int,
    quiet_window: int,
    max_steps: int,
    plan_args: Dict[str, int],
) -> FaultTrialOutcome:
    """One trial, module-level so :func:`repro.runtime.pool.parallel_map`
    can pickle it by reference; programs are memoised per worker."""
    return transient_fault_trial(
        n,
        total,
        seed=seed,
        error_checking=error_checking,
        fault_plan=default_fault_plan(**plan_args),
        quiet_window=quiet_window,
        max_steps=max_steps,
        program=_program_for(n, error_checking),
    )


@dataclass
class SchedulerProbeRow:
    """Protocol-level probe: one scheduler family under the fault plan."""

    family: str
    verdict: Optional[bool]
    expected: bool
    interactions: int
    faults: int


@dataclass
class TransientFaultReport:
    """X4 headline numbers (see :meth:`render` for the table shape)."""

    n: int
    with_checks_correct: int
    with_checks_total: int
    without_checks_correct: int
    without_checks_total: int
    probes: List[SchedulerProbeRow] = field(default_factory=list)

    @property
    def with_checks_rate(self) -> float:
        return self.with_checks_correct / max(1, self.with_checks_total)

    @property
    def without_checks_rate(self) -> float:
        return self.without_checks_correct / max(1, self.without_checks_total)

    @property
    def checks_help(self) -> bool:
        """Full construction strictly more fault-tolerant than stripped."""
        return self.with_checks_rate > self.without_checks_rate

    def render(self) -> str:
        header = ["variant", "correct", "total", "rate"]
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
        if self.probes:
            header2 = ["scheduler family", "verdict", "expected", "interactions", "faults"]
            rows2 = [
                (p.family, p.verdict, p.expected, p.interactions, p.faults)
                for p in self.probes
            ]
            table += "\n\nprotocol-level probe (binary threshold):\n"
            table += render_table(header2, rows2)
        return table


def scheduler_family_probe(
    *, k: int = 5, population: int = 40, seed: int = 11
) -> List[SchedulerProbeRow]:
    """Run one faulted simulation per scheduler family on the
    binary-threshold baseline and report the (deterministic) outcomes.

    The plan mixes every fault kind, so this exercises the corrupt /
    reset / drop / duplicate / unfair paths of both the legacy loop and
    the fastpath loops in a single sweep."""
    from repro.baselines.binary import binary_threshold_protocol
    from repro.core.fastpath import FastEnabledScheduler, FastUniformScheduler
    from repro.core.multiset import Multiset
    from repro.core.scheduler import (
        EnabledTransitionScheduler,
        UniformPairScheduler,
    )
    from repro.core.simulation import simulate
    from repro.resilience import (
        CorruptAgents,
        DropInteractions,
        DuplicateInteractions,
        ResetAgents,
        UnfairWindow,
    )

    protocol = binary_threshold_protocol(k)
    config = Multiset({"p0": population})
    plan = FaultPlan(
        [
            CorruptAgents(at=30, agents=2),
            ResetAgents(at=80, agents=1),
            DropInteractions(at=140, count=2),
            DuplicateInteractions(at=200, count=2),
            UnfairWindow(at=260, length=40),
        ]
    )
    families = [
        ("fast_enabled", FastEnabledScheduler()),
        ("fast_uniform", FastUniformScheduler()),
        ("legacy_enabled", EnabledTransitionScheduler()),
        ("legacy_uniform", UniformPairScheduler()),
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
            SchedulerProbeRow(
                family=name,
                verdict=result.verdict,
                expected=population >= k,
                interactions=result.interactions,
                faults=len(plan),
            )
        )
    return rows


def run_transient_faults(
    n: int = 2,
    *,
    trials_per_total: int = 3,
    seed: int = 0,
    quiet_window: int = 30_000,
    max_steps: int = 10_000_000,
    fault_start: int = 40_000,
    fault_period: int = 120_000,
    fault_count: int = 3,
    fault_agents: int = 2,
    jobs: Optional[int] = None,
    probe: bool = True,
) -> TransientFaultReport:
    """The X4 driver: boundary totals × both variants × several trials,
    fanned across the pool, plus the protocol-level scheduler probe.

    Per-trial seeds are pure functions of the (variant, total, trial)
    path, so parallel and sequential runs sample identical trials."""
    from repro.runtime.pool import parallel_map
    from repro.runtime.seeds import derive_seed_path

    k = threshold(n)
    totals = [max(1, k - 3), k - 1, k, k + 2, k + 6]
    plan_args = {
        "start": fault_start,
        "period": fault_period,
        "count": fault_count,
        "agents": fault_agents,
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
                            seed, "transient", int(error_checking), total, trial
                        ),
                        quiet_window,
                        max_steps,
                        plan_args,
                    )
                )
    outcomes: List[FaultTrialOutcome] = parallel_map(transient_fault_task, tasks, jobs=jobs)
    tallies: Dict[bool, Tuple[int, int]] = {True: (0, 0), False: (0, 0)}
    for outcome in outcomes:
        correct, total_count = tallies[outcome.error_checking]
        tallies[outcome.error_checking] = (
            correct + outcome.correct,
            total_count + 1,
        )
    return TransientFaultReport(
        n=n,
        with_checks_correct=tallies[True][0],
        with_checks_total=tallies[True][1],
        without_checks_correct=tallies[False][0],
        without_checks_total=tallies[False][1],
        probes=scheduler_family_probe() if probe else [],
    )


if __name__ == "__main__":
    report = run_transient_faults()
    print(report.render())
    print("error checking helps under transient faults:", report.checks_help)
