"""Experiment TH1 — Theorem 1: O(n) states decide k ≥ 2^(2^(n-1)).

Two parts: (a) the *size* side — build the full pipeline for a sweep of n
and verify states grow linearly while k grows double-exponentially;
(b) the *behaviour* side — for small n, sample end-to-end decisions of the
final broadcast protocol around its threshold ``k_n + |F|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.state_complexity import Theorem1Datum, theorem1_data
from repro.core.multiset import Multiset
from repro.core.simulation import simulate
from repro.experiments.report import render_table
from repro.lipton.levels import threshold
from repro.conversion.pipeline import PipelineResult


@dataclass
class Theorem1Report:
    data: List[Theorem1Datum]

    def linear_states(self) -> bool:
        """O(n) growth: the per-level state increment becomes constant."""
        counts = [d.states for d in self.data]
        increments = [b - a for a, b in zip(counts, counts[1:])]
        return len(set(increments[2:])) <= 1

    def double_exponential(self) -> bool:
        return all(d.bound_met for d in self.data)

    def render(self) -> str:
        header = ["n", "k", "states |Q'|", "states/n", "2^(2^(n-1))", "k >= bound"]
        rows = [
            (d.n, d.k, d.states, d.states_per_level, d.double_exponential_bound, d.bound_met)
            for d in self.data
        ]
        return render_table(header, rows)


def run_theorem1_sizes(max_n: int = 8) -> Theorem1Report:
    return Theorem1Report(data=theorem1_data(max_n))


@dataclass
class EndToEndTrial:
    population: int
    expected: bool
    verdict: Optional[bool]
    interactions: int


def run_theorem1_end_to_end(
    *,
    seed: int = 0,
    max_interactions: int = 30_000_000,
    convergence_window: int = 300_000,
    pipeline: Optional[PipelineResult] = None,
    offsets: tuple = (-1, 0),
    jobs: int | None = None,
) -> List[EndToEndTrial]:
    """Sample the n=1 protocol's decisions just below / at its shifted
    threshold ``k_1 + |F|``.

    ``jobs`` fans the per-offset runs across a process pool (the compiled
    protocol ships to workers stripped of its transition table, which
    they recover from the artifact cache rather than recompiling).

    Budget note: under true pairwise scheduling the detect primitive
    answers *false* with probability ≈ (m-1)/m per encounter, so accepting
    runs need hundreds of thousands of interactions (measured ~260-400k);
    the convergence window must exceed the longest all-false stretch."""
    if pipeline is None:
        from repro.runtime.cache import cached_compile_threshold_protocol

        pipeline = cached_compile_threshold_protocol(1)
    shift = pipeline.shift
    k = threshold(1)
    initial_state = next(iter(pipeline.protocol.input_states))
    from repro.runtime.pool import parallel_map

    tasks = [
        (
            pipeline.protocol,
            initial_state,
            shift + k + offset,
            shift,
            k,
            seed + offset,
            max_interactions,
            convergence_window,
        )
        for offset in offsets
    ]
    return parallel_map(
        end_to_end_task,
        tasks,
        jobs=jobs,
    )


def end_to_end_task(
    protocol,
    initial_state,
    population: int,
    shift: int,
    k: int,
    seed: int,
    max_interactions: int,
    convergence_window: int,
) -> EndToEndTrial:
    """One end-to-end simulation (module-level so the pool can pickle it
    by reference)."""
    result = simulate(
        protocol,
        Multiset({initial_state: population}),
        seed=seed,
        max_interactions=max_interactions,
        convergence_window=convergence_window,
    )
    return EndToEndTrial(
        population=population,
        expected=population - shift >= k,
        verdict=result.verdict,
        interactions=result.interactions,
    )


if __name__ == "__main__":
    report = run_theorem1_sizes()
    print(report.render())
    print("linear state growth:", report.linear_states())
    print("double-exponential thresholds:", report.double_exponential())
