"""Experiment TH3 — Theorem 3: population programs of size O(n) decide
``m ≥ k_n`` with ``k_n ≥ 2^(2^(n-1))``.

Size side: the |Q| + L + S decomposition per n.  Behaviour side: sampled
program-level decisions across the threshold boundary (n ≤ 3 by default —
see DESIGN.md's simulation-scale notes)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.report import render_table
from repro.lipton.canonical import canonical_restart_policy
from repro.lipton.construction import build_threshold_program
from repro.lipton.construction import suggested_quiet_window
from repro.lipton.levels import double_exponential_lower_bound, threshold
from repro.programs.interpreter import decide_program
from repro.programs.size import ProgramSize, program_size


@dataclass
class Theorem3SizeRow:
    n: int
    k: int
    size: ProgramSize
    bound: int

    @property
    def bound_met(self) -> bool:
        return self.k >= self.bound


@dataclass
class Theorem3Report:
    rows: List[Theorem3SizeRow]

    def linear_size(self) -> bool:
        """O(n): the per-level size increment becomes exactly constant."""
        totals = [row.size.total for row in self.rows]
        increments = [b - a for a, b in zip(totals, totals[1:])]
        return len(set(increments[2:])) <= 1

    def render(self) -> str:
        header = ["n", "k", "|Q|", "L", "S", "total", "2^(2^(n-1))", "k >= bound"]
        rows = [
            (
                row.n,
                row.k,
                row.size.registers,
                row.size.instructions,
                row.size.swap_size,
                row.size.total,
                row.bound,
                row.bound_met,
            )
            for row in self.rows
        ]
        return render_table(header, rows)


def run_theorem3_sizes(max_n: int = 10) -> Theorem3Report:
    rows = []
    for n in range(1, max_n + 1):
        rows.append(
            Theorem3SizeRow(
                n=n,
                k=threshold(n),
                size=program_size(build_threshold_program(n)),
                bound=double_exponential_lower_bound(n),
            )
        )
    return Theorem3Report(rows)


@dataclass
class DecisionTrial:
    n: int
    total: int
    expected: bool
    got: bool

    @property
    def correct(self) -> bool:
        return self.expected == self.got


def run_theorem3_decisions(
    n: int,
    totals: Optional[List[int]] = None,
    *,
    seed: int = 0,
    quiet_window: int | None = None,
    max_steps: int = 50_000_000,
    jobs: int | None = None,
) -> List[DecisionTrial]:
    """Sample program decisions around the threshold boundary.

    ``jobs`` fans the per-total decisions across a process pool; each
    decision's seed is a pure function of its (n, total) path (replacing
    the collision-prone ``seed + index``), so parallel and sequential
    runs sample identical decisions.
    """
    from repro.runtime.pool import parallel_map
    from repro.runtime.seeds import derive_seed_path

    if quiet_window is None:
        quiet_window = suggested_quiet_window(n)
    k = threshold(n)
    if totals is None:
        totals = [max(1, k - 2), k - 1, k, k + 1, k + 5]
    tasks = [
        (
            n,
            total,
            derive_seed_path(seed, "theorem3", n, total),
            quiet_window,
            max_steps,
        )
        for total in totals
    ]
    return parallel_map(
        decide_threshold_task,
        tasks,
        jobs=jobs,
    )


def decide_threshold_task(
    n: int, total: int, seed: int, quiet_window: int, max_steps: int
) -> DecisionTrial:
    """One boundary decision (module-level so the pool can pickle it by
    reference).  The program and restart policy are rebuilt per process —
    the canonical policy closes over a local chooser and cannot cross a
    pickle boundary — and memoised for the worker's lifetime."""
    program, policy = _threshold_artifacts(n)
    got = decide_program(
        program,
        {"x1": total},
        seed=seed,
        restart_policy=policy,
        quiet_window=quiet_window,
        max_steps=max_steps,
    )
    return DecisionTrial(n=n, total=total, expected=total >= threshold(n), got=got)


_ARTIFACTS: dict = {}


def _threshold_artifacts(n: int):
    if n not in _ARTIFACTS:
        _ARTIFACTS[n] = (build_threshold_program(n), canonical_restart_policy(n))
    return _ARTIFACTS[n]


if __name__ == "__main__":
    print(run_theorem3_sizes().render())
    for n in (1, 2, 3):
        trials = run_theorem3_decisions(n)
        status = "OK" if all(t.correct for t in trials) else "MISMATCH"
        print(f"n={n}: {[(t.total, t.got) for t in trials]} -> {status}")
