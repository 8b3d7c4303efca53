"""Experiment L4 — Lemma 4: Main's trichotomy.

For every register configuration of a small total ``m`` (or a sample of
them), classify it per Appendix A (j-low & (j+1)-empty / n-proper /
otherwise) and check that a sampled run of Main exhibits the predicted
behaviour: stabilise false / stabilise true / restart."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional

from repro.core.simulation import derive_seed
from repro.experiments.report import render_table
from repro.observability import spans as _spans
from repro.lipton.classify import MainBehaviour, classify
from repro.lipton.construction import build_threshold_program
from repro.lipton.levels import all_registers
from repro.programs.ast import PopulationProgram
from repro.programs.interpreter import run_program
from repro.programs.restart import UniformRestart
from repro.runtime.pool import parallel_map
from repro.runtime.seeds import derive_seed_path


def enumerate_register_configurations(
    n: int, total: int
) -> Iterator[Dict[str, int]]:
    """All register configurations with the given total (stars and bars)."""
    registers = all_registers(n)
    k = len(registers)
    for dividers in combinations(range(total + k - 1), k - 1):
        config: Dict[str, int] = {}
        previous = -1
        for name, divider in zip(registers, dividers):
            value = divider - previous - 1
            if value:
                config[name] = value
            previous = divider
        last = total + k - 2 - previous
        if last:
            config[registers[-1]] = last
        yield config


def observe_main_behaviour(
    program: PopulationProgram,
    config: Dict[str, int],
    *,
    seed: int = 0,
    quiet_window: int = 20_000,
    max_steps: int = 2_000_000,
) -> Optional[MainBehaviour]:
    """Run Main once; report RESTART if a restart fires, else the quiet
    output, else ``None`` (budget exhausted — treated as inconclusive)."""

    def stop(state) -> bool:
        return state.restarts >= 1 or state.quiet_steps >= quiet_window

    result = run_program(
        program,
        config,
        seed=seed,
        restart_policy=UniformRestart(),
        max_steps=max_steps,
        stop_condition=stop,
    )
    if result.restarts >= 1:
        return MainBehaviour.RESTART
    if result.hung or result.quiet_steps >= quiet_window:
        return (
            MainBehaviour.STABILISE_TRUE
            if result.output
            else MainBehaviour.STABILISE_FALSE
        )
    return None


def check_lemma4_case(
    program: PopulationProgram,
    config: Dict[str, int],
    predicted: MainBehaviour,
    *,
    base_seed: int = 0,
    attempts: int = 10,
    quiet_window: int = 20_000,
    max_steps: int = 2_000_000,
) -> Optional[MainBehaviour]:
    """Sample runs until the Lemma 4 verdict is settled.

    Lemma 4's (a)/(b) cases are *may*-statements: a good configuration may
    stabilise, but it may also restart first (e.g. AssertEmpty spotting the
    legitimate surplus in R); only "otherwise" configurations must *always*
    restart.  So:

    * ``predicted = RESTART``: any observed stabilisation refutes the lemma;
      an observed restart confirms it.
    * ``predicted = STABILISE_b``: an observed stabilisation to ``¬b``
      refutes it; restarts are retried (with the same initial
      configuration) until a stabilisation to ``b`` is found.

    Returns the settled observation (equal to ``predicted`` when
    consistent) or the refuting/inconclusive observation.
    """
    last: Optional[MainBehaviour] = None
    for attempt in range(attempts):
        # Per-attempt seeds are hash-derived (like decide's): the old
        # ``base_seed + attempt`` made adjacent base seeds share streams.
        observed = observe_main_behaviour(
            program,
            config,
            seed=derive_seed(base_seed, attempt),
            quiet_window=quiet_window,
            max_steps=max_steps,
        )
        last = observed
        if predicted == MainBehaviour.RESTART:
            return observed  # first observation settles it either way
        if observed == predicted:
            return observed
        if observed in (MainBehaviour.STABILISE_TRUE, MainBehaviour.STABILISE_FALSE):
            return observed  # stabilised to the wrong value: refuted
        # observed RESTART on a good configuration: legal, retry.
    return last


@dataclass
class Lemma4Trial:
    config: Dict[str, int]
    predicted: MainBehaviour
    observed: Optional[MainBehaviour]

    @property
    def consistent(self) -> bool:
        return self.observed is not None and self.observed == self.predicted


@dataclass
class Lemma4Report:
    n: int
    total: int
    trials: List[Lemma4Trial]

    @property
    def consistent(self) -> int:
        return sum(t.consistent for t in self.trials)

    def render(self) -> str:
        header = ["configuration", "predicted", "observed", "consistent"]
        rows = [
            (
                str(t.config),
                t.predicted.value,
                t.observed.value if t.observed else "-",
                t.consistent,
            )
            for t in self.trials
        ]
        return render_table(header, rows)


def run_lemma4(
    n: int = 1,
    total: int = 3,
    *,
    sample: Optional[int] = None,
    seed: int = 0,
    quiet_window: int = 20_000,
    max_steps: int = 2_000_000,
    jobs: Optional[int] = None,
) -> Lemma4Report:
    """Check Lemma 4 on all (or ``sample`` random) configurations of the
    given total.

    ``jobs`` fans the per-configuration checks across a process pool.
    Each check's base seed is derived from its configuration index via
    the seed tree (replacing the collision-prone ``seed + 100 * index``),
    so parallel and sequential runs observe identical samples.
    """
    program = build_threshold_program(n)
    configs = list(enumerate_register_configurations(n, total))
    rng = random.Random(seed)
    if sample is not None and sample < len(configs):
        configs = rng.sample(configs, sample)
    tasks = [
        (
            program,
            config,
            classify(config, n).behaviour,
            derive_seed_path(seed, "lemma4", index),
            quiet_window,
            max_steps,
        )
        for index, config in enumerate(configs)
    ]
    with _spans.span("lemma4", n=n, total=total, configs=len(configs)):
        trials = parallel_map(
            check_lemma4_task,
            tasks,
            jobs=jobs,
            span_labels=[f"config:{index}" for index in range(len(configs))],
        )
    return Lemma4Report(n=n, total=total, trials=trials)


def check_lemma4_task(
    program: PopulationProgram,
    config: Dict[str, int],
    predicted: MainBehaviour,
    base_seed: int,
    quiet_window: int,
    max_steps: int,
) -> Lemma4Trial:
    """Module-level task wrapper so the pool can pickle it by reference."""
    observed = check_lemma4_case(
        program,
        config,
        predicted,
        base_seed=base_seed,
        quiet_window=quiet_window,
        max_steps=max_steps,
    )
    return Lemma4Trial(config=config, predicted=predicted, observed=observed)


if __name__ == "__main__":
    for total in (1, 2, 3, 4):
        report = run_lemma4(1, total)
        print(f"n=1 m={total}: {report.consistent}/{len(report.trials)} consistent")
