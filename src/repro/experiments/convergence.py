"""Experiment X3 — convergence cost of the construction.

The paper leaves runtime out of scope ("standard techniques could be used
to avoid restarts … beyond the scope of this paper"); this experiment
quantifies what that costs in the vanilla construction: interpreter steps
and restart counts until stabilisation, per level count n and input m,
under canonical restart sampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.report import render_table
from repro.lipton.canonical import canonical_restart_policy, good_configuration
from repro.lipton.construction import build_threshold_program
from repro.lipton.levels import threshold
from repro.programs.interpreter import run_program
from repro.runtime.pool import parallel_map
from repro.runtime.seeds import derive_seed_path


@dataclass
class ConvergenceSample:
    n: int
    m: int
    accepting: bool
    steps_to_stabilise: Optional[int]
    restarts: int


@dataclass
class ConvergenceReport:
    samples: List[ConvergenceSample]

    def render(self) -> str:
        header = ["n", "m", "accepting", "steps", "restarts"]
        rows = [
            (s.n, s.m, s.accepting, s.steps_to_stabilise, s.restarts)
            for s in self.samples
        ]
        return render_table(header, rows)

    def median_steps(self, n: int, accepting: bool) -> Optional[int]:
        values = sorted(
            s.steps_to_stabilise
            for s in self.samples
            if s.n == n and s.accepting == accepting
            and s.steps_to_stabilise is not None
        )
        if not values:
            return None
        return values[len(values) // 2]


def measure_convergence(
    n: int,
    m: int,
    *,
    seed: int = 0,
    max_steps: int = 20_000_000,
) -> ConvergenceSample:
    """Steps until the output flag reaches (and keeps) its final value.

    For accepting inputs we measure the first step at which OF became true
    (it never reverts without a restart, and we verify no restart follows);
    for rejecting inputs stabilisation is immediate modulo restarts, so we
    measure the step of the last restart.
    """
    from repro.lipton.construction import suggested_quiet_window

    program = build_threshold_program(n)
    policy = canonical_restart_policy(n)
    accepting = m >= threshold(n)
    window = suggested_quiet_window(n)

    def stop(state) -> bool:
        if accepting:
            return state.output  # stop at OF := true
        return state.quiet_steps >= window

    result = run_program(
        program,
        good_configuration(n, m),
        seed=seed,
        restart_policy=policy,
        max_steps=max_steps,
        stop_condition=stop,
    )
    if accepting:
        steps = result.steps if result.output else None
    else:
        steps = result.restart_steps[-1] if result.restart_steps else 0
    return ConvergenceSample(
        n=n,
        m=m,
        accepting=accepting,
        steps_to_stabilise=steps,
        restarts=result.restarts,
    )


def run_convergence(
    max_n: int = 3,
    *,
    trials: int = 3,
    seed: int = 0,
    max_steps: int = 20_000_000,
    jobs: int | None = None,
) -> ConvergenceReport:
    """Sweep (n, m, trial); ``jobs`` fans the samples across a process
    pool (identical results to sequential for the same seed — each
    sample's seed is a pure function of its (n, m, trial) path).

    The old per-sample scheme ``seed + 1000*n + 10*trial`` was
    collision-prone (any ``trials > 10`` reused neighbouring streams,
    and every (n, m) pair at the same n shared them); seeds now come
    from the :mod:`repro.runtime.seeds` tree.
    """
    grid = [
        (n, m, trial)
        for n in range(1, max_n + 1)
        for m in ((threshold(n) - 1), threshold(n), threshold(n) + 3)
        for trial in range(trials)
    ]
    tasks = [
        (n, m, derive_seed_path(seed, "convergence", n, m, trial), max_steps)
        for n, m, trial in grid
    ]
    samples: List[ConvergenceSample] = parallel_map(
        measure_convergence_task,
        tasks,
        jobs=jobs,
    )
    return ConvergenceReport(samples)


def measure_convergence_task(
    n: int, m: int, seed: int, max_steps: int
) -> ConvergenceSample:
    """Module-level task wrapper so the pool can pickle it by reference."""
    return measure_convergence(n, m, seed=seed, max_steps=max_steps)


if __name__ == "__main__":
    report = run_convergence()
    print(report.render())
    for n in (1, 2, 3):
        print(f"n={n}: median accept steps {report.median_steps(n, True)}")
