"""Experiment T1 — regenerate Table 1 (state complexity of thresholds).

The paper's Table 1 lists asymptotic bounds; the reproduction reports the
*measured* state counts of the four constructions on the threshold family
``k_n = threshold(n)``, verifying the claimed ordering

    classic Θ(k)  ≫  binary Θ(log k)  ≫  this paper Θ(log log k)

and that the leaderless Theorem 1 protocol matches the leader-assisted
size up to a constant factor (the paper's headline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.state_complexity import Table1Row
from repro.experiments.report import render_table


@dataclass
class Table1Report:
    rows: List[Table1Row]

    def ordering_holds(self) -> bool:
        """For every row large enough to compare: unary > binary >
        this-paper growth (the latter checked as states ∈ O(n) via a
        per-level constant)."""
        counts = [row.this_paper_states for row in self.rows]
        increments = [b - a for a, b in zip(counts, counts[1:])]
        linear = len(set(increments[2:])) <= 1
        ordered = all(
            row.unary_states is None or row.unary_states > row.binary_states
            for row in self.rows
            if row.n >= 3
        )
        return linear and ordered

    def render(self) -> str:
        header = [
            "n",
            "k",
            "|phi|",
            "classic unary",
            "binary (BEJ)",
            "leader (bare Lipton)",
            "this paper (Thm 1)",
        ]
        rows = [
            (
                row.n,
                row.k,
                row.formula_size,
                row.unary_states,
                row.binary_states,
                row.leader_states,
                row.this_paper_states,
            )
            for row in self.rows
        ]
        return render_table(header, rows)


def run_table1(max_n: int = 6, *, jobs: int | None = None) -> Table1Report:
    """Regenerate Table 1; ``jobs`` fans the per-``n`` row constructions
    (each a full build-and-count of four protocol families) across a
    process pool.  Rows are deterministic, so parallel output is
    identical to sequential."""
    from repro.analysis.state_complexity import table1_row
    from repro.observability import spans as _spans
    from repro.runtime.pool import parallel_map

    with _spans.span("table1", max_n=max_n):
        rows = parallel_map(
            table1_row,
            [(n,) for n in range(1, max_n + 1)],
            jobs=jobs,
            span_labels=[f"row:n{n}" for n in range(1, max_n + 1)],
        )
    return Table1Report(rows=rows)


if __name__ == "__main__":
    report = run_table1()
    print(report.render())
    print("\nasymptotic ordering holds:", report.ordering_holds())
