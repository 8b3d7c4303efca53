"""Simulation driver: sample a (probabilistically fair) run of a protocol.

Stabilisation in the paper is a property of infinite runs; a simulation can
only ever observe a finite prefix.  The driver therefore reports a verdict
based on two signals:

* **silence** — no enabled transition changes the configuration any more;
  the run has provably stabilised (the remainder of the run is constant);
* **a convergence window** — the configuration has had a constant, defined
  output for ``convergence_window`` consecutive productive interactions.
  This is a heuristic (the standard one for population-protocol
  simulation); exact verification on small instances lives in
  :mod:`repro.core.stability`.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.batched import BatchedScheduler, run_batched_simulation
from repro.core.errors import NonConvergenceError
from repro.core.fastpath import (
    FastEnabledScheduler,
    FastUniformScheduler,
    run_fast_simulation,
)
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol
from repro.core.scheduler import EnabledTransitionScheduler, UniformPairScheduler
from repro.core.semantics import apply_transition_inplace, is_silent
from repro.observability.events import LAYER_PROTOCOL
from repro.observability.observer import Observer, live
from repro.observability import spans as _spans


@dataclass
class SimulationResult:
    """Outcome of :func:`simulate`.

    ``verdict`` is the stabilised output (``True``/``False``) or ``None``
    if the budget ran out first.  ``silent`` records whether the final
    configuration was provably terminal.  ``interactions`` counts scheduler
    steps (including null steps for the uniform scheduler); ``productive``
    counts steps that changed the configuration.

    ``population`` is the *final* population size — under a churn plan
    (:mod:`repro.resilience.churn`) joins and leaves resize the run, and
    ``joined``/``departed`` record the totals (both 0 for fixed-``n``
    runs, where ``population`` equals the initial size as always).
    """

    final: Multiset
    verdict: Optional[bool]
    silent: bool
    interactions: int
    productive: int
    population: int
    output_trace: List[Tuple[int, Optional[bool]]] = field(default_factory=list)
    #: True when the run was cut short by a wall-clock ``deadline`` —
    #: the verdict is then ``None`` regardless of the trajectory so far.
    deadline_exceeded: bool = False
    #: Total agents added / removed by churn faults during the run.
    joined: int = 0
    departed: int = 0

    @property
    def parallel_time(self) -> float:
        """Interactions divided by population size — the usual notion of
        parallel time for population protocols."""
        if self.population == 0:
            return 0.0
        return self.interactions / self.population


def resolve_deadline(deadline: float | None) -> float | None:
    """Normalise a wall-clock ``deadline`` argument (seconds).

    An explicit value wins (and must be positive); ``None`` falls back to
    the ``REPRO_DEADLINE`` environment variable, so whole experiment
    sweeps and CI jobs can be time-bounded without touching call sites.
    Unset/garbage/non-positive env values mean "no deadline".
    """
    if deadline is not None:
        if deadline <= 0:
            raise ValueError("deadline must be positive (seconds)")
        return float(deadline)
    raw = os.environ.get("REPRO_DEADLINE", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


#: The selectable engine families, in increasing order of throughput (and
#: decreasing granularity): per-step legacy schedulers (bit-exact archive
#: replay), the incremental fast path, and the batched multinomial engine.
#: ``auto`` — the default — picks fast below the population-size
#: crossover and batched above it.
_ENGINES = ("auto", "legacy", "fast", "batched")

#: Default population-size crossover for ``engine="auto"``.  BENCH shows
#: the batched engine's per-batch setup makes it ~14× *slower* than the
#: fastpath at n = 10³ (``batched.crossover.smalln_ratio``) while being
#: ≥ 50× faster at n = 10⁶ — the crossover sits between; 50k keeps every
#: interactive-scale run on the fastpath and every bulk run batched.
AUTO_CROSSOVER_DEFAULT = 50_000


def auto_crossover() -> int:
    """The ``engine="auto"`` population crossover (``REPRO_AUTO_CROSSOVER``
    overrides the default — unset/garbage/non-positive means default)."""
    raw = os.environ.get("REPRO_AUTO_CROSSOVER", "").strip()
    try:
        value = int(raw) if raw else AUTO_CROSSOVER_DEFAULT
    except ValueError:
        return AUTO_CROSSOVER_DEFAULT
    return value if value > 0 else AUTO_CROSSOVER_DEFAULT


def resolve_engine(engine: str | None) -> str | None:
    """Normalise an ``engine`` argument
    (``"auto"``/``"legacy"``/``"fast"``/``"batched"``).

    An explicit value wins and must be one of the known names; ``None``
    falls back to the ``REPRO_ENGINE`` environment variable (so whole
    experiment sweeps and CI jobs can switch engines without touching
    call sites).  Unset/garbage env values mean "no preference" —
    returned as ``None``, which downstream treats exactly like
    ``"auto"``: fastpath below the population crossover, batched above.
    """
    if engine is not None:
        name = engine.strip().lower()
        if name not in _ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {_ENGINES}"
            )
        return name
    raw = os.environ.get("REPRO_ENGINE", "").strip().lower()
    return raw if raw in _ENGINES else None


def scheduler_for_engine(engine: str | None, population: int | None = None):
    """The default scheduler of an engine family.

    ``None``/``"auto"`` select by population size: the batched
    multinomial engine at or above :func:`auto_crossover` agents, the
    incremental fastpath below (and whenever the population is unknown).
    """
    if engine == "batched":
        return BatchedScheduler()
    if engine == "legacy":
        return EnabledTransitionScheduler()
    if engine in (None, "auto") and population is not None:
        if population >= auto_crossover():
            return BatchedScheduler()
    return FastEnabledScheduler()


def engine_label(
    scheduler, engine: str | None = None, population: int | None = None
) -> str:
    """The engine family a run will execute under — for span attributes
    and provenance manifests.  An explicit scheduler decides; otherwise
    the resolved ``engine`` preference does (``auto``/default resolving
    by ``population`` like :func:`scheduler_for_engine`)."""
    if scheduler is None:
        resolved = resolve_engine(engine)
        if resolved in (None, "auto"):
            if population is not None and population >= auto_crossover():
                return "batched"
            return "fast"
        return resolved
    if isinstance(scheduler, BatchedScheduler):
        return "batched"
    if isinstance(scheduler, (FastEnabledScheduler, FastUniformScheduler)):
        return "fast"
    return "legacy"


def _execution_scheduler(scheduler, injector, population: int):
    """The scheduler a run actually executes on — the one routing rule
    behind both the dispatch in :func:`_simulate` and the ``engine``
    attribute of the ``simulate`` span.

    Faults are injected by the fast path alone, so a faulted run on a
    legacy scheduler executes on its fast twin.  A batched run executes
    natively only when its plan just resizes the population (joins and
    leaves fire at batch barriers) and it has a pair to sample;
    otherwise it needs per-step granularity and runs on the fast
    uniform loop, which has the same uniform-pair semantics.
    """
    if injector is None or isinstance(
        scheduler, (FastEnabledScheduler, FastUniformScheduler)
    ):
        return scheduler
    if isinstance(scheduler, BatchedScheduler):
        if population >= 2 and injector.population_only():
            return scheduler
    if isinstance(scheduler, UniformPairScheduler):
        return FastUniformScheduler(tie_break=scheduler.tie_break)
    return FastEnabledScheduler()


def simulate(
    protocol: PopulationProtocol,
    config: Multiset,
    *,
    seed: int | None = None,
    rng: random.Random | None = None,
    scheduler=None,
    engine: str | None = None,
    max_interactions: int = 1_000_000,
    convergence_window: int = 2_000,
    check_silence_every: int = 512,
    observer: Observer | None = None,
    faults=None,
    deadline: float | None = None,
) -> SimulationResult:
    """Sample one run of ``protocol`` from ``config``.

    The run stops when the configuration is silent, when the output has been
    constant and defined for ``convergence_window`` productive steps, or
    when ``max_interactions`` scheduler steps have elapsed.

    ``observer`` (see :mod:`repro.observability`) receives structured
    events: per-interaction steps, output flips, silence checks, sampled
    configuration snapshots and a run summary.  Observation never touches
    the random stream, so an observed run is bit-identical to an
    unobserved run with the same seed.

    ``faults`` (a :class:`repro.resilience.FaultPlan`, or an already-bound
    :class:`~repro.resilience.FaultInjector`) injects deterministic mid-run
    perturbations; a plan is bound to ``seed`` (its fault stream is
    derived independently of the simulation stream, so an *empty* plan
    leaves the run bit-identical to an uninjected one).  A faulted run
    executes on the fast path: a legacy scheduler is swapped for its
    fast twin, and a batched run whose plan does more than resize the
    population for the fast uniform loop.  ``deadline`` bounds the run
    in wall-clock seconds (``REPRO_DEADLINE`` supplies a default); past
    it the result carries ``verdict=None`` and ``deadline_exceeded=True``.

    ``engine`` selects the execution family when no explicit scheduler is
    given: ``"legacy"`` (per-step reference schedulers, bit-exact
    archive replay), ``"fast"`` (the incremental fast path),
    ``"batched"`` (the bulk multinomial engine of
    :mod:`repro.core.batched`, for very large populations) or ``"auto"``
    — the default — which picks fast below the
    :func:`auto_crossover` population size and batched at or above it.
    ``None`` defers to ``REPRO_ENGINE``, then behaves like ``"auto"``;
    an explicit ``scheduler`` always wins.
    Pass ``scheduler=EnabledTransitionScheduler()`` (or
    ``UniformPairScheduler()``) to reproduce uninjected runs recorded
    with the legacy per-step schedulers bit-exactly under the same seed.

    When a span tracer is active (:func:`repro.observability.spans.activate`)
    the whole run is wrapped in a ``simulate`` span (annotated with the
    engine family that executes it); without one the only cost is a
    single contextvar read.
    """
    if scheduler is None:
        scheduler = scheduler_for_engine(resolve_engine(engine), config.size)
    injector = None
    if faults is not None:
        from repro.resilience.faults import resolve_injector

        injector = resolve_injector(faults, seed)
    scheduler = _execution_scheduler(scheduler, injector, config.size)
    tracer = _spans.current()
    if tracer is None:
        return _simulate(
            protocol,
            config,
            seed=seed,
            rng=rng,
            scheduler=scheduler,
            injector=injector,
            max_interactions=max_interactions,
            convergence_window=convergence_window,
            check_silence_every=check_silence_every,
            observer=observer,
            deadline=deadline,
        )
    with tracer.span(
        "simulate",
        protocol=protocol.name,
        population=config.size,
        seed=seed,
        engine=engine_label(scheduler),
    ) as sp:
        result = _simulate(
            protocol,
            config,
            seed=seed,
            rng=rng,
            scheduler=scheduler,
            injector=injector,
            max_interactions=max_interactions,
            convergence_window=convergence_window,
            check_silence_every=check_silence_every,
            observer=observer,
            deadline=deadline,
        )
        sp.attrs["verdict"] = result.verdict
        sp.attrs["interactions"] = result.interactions
        # Final size: under churn it differs from the start-of-run
        # ``population`` attribute recorded above.
        sp.attrs["population.size"] = result.population
        if result.joined or result.departed:
            sp.attrs["churn.joined"] = result.joined
            sp.attrs["churn.departed"] = result.departed
        return result


def _simulate(
    protocol: PopulationProtocol,
    config: Multiset,
    *,
    seed: int | None,
    rng: random.Random | None,
    scheduler,
    injector,
    max_interactions: int,
    convergence_window: int,
    check_silence_every: int,
    observer: Observer | None,
    deadline: float | None,
) -> SimulationResult:
    """The body of :func:`simulate`, on the scheduler the run executes on
    (see :func:`_execution_scheduler`) and the resolved injector."""
    protocol.check_configuration(config)
    if rng is None:
        rng = random.Random(seed)
    deadline = resolve_deadline(deadline)
    deadline_at = time.monotonic() + deadline if deadline is not None else None
    obs = live(observer)
    snapshot_every = obs.snapshot_interval if obs is not None else None
    current = config.copy()
    population = current.size
    interactions = 0
    productive = 0
    stable_output: Optional[bool] = protocol.output(current)
    stable_since = 0
    trace: List[Tuple[int, Optional[bool]]] = [(0, stable_output)]
    if obs is not None:
        obs.on_run_start(
            LAYER_PROTOCOL,
            protocol=protocol.name,
            population=population,
            states=protocol.state_count,
            scheduler=type(scheduler).__name__,
        )

    if isinstance(scheduler, BatchedScheduler) and population >= 2:
        return run_batched_simulation(
            protocol,
            current,
            population=population,
            rng=rng,
            scheduler=scheduler,
            max_interactions=max_interactions,
            convergence_window=convergence_window,
            check_silence_every=check_silence_every,
            obs=obs,
            trace=trace,
            stable_output=stable_output,
            injector=injector,
            deadline_at=deadline_at,
        )

    if isinstance(scheduler, (FastEnabledScheduler, FastUniformScheduler)) and (
        population >= 2 or injector is not None
    ):
        return run_fast_simulation(
            protocol,
            current,
            population=population,
            rng=rng,
            scheduler=scheduler,
            max_interactions=max_interactions,
            convergence_window=convergence_window,
            check_silence_every=check_silence_every,
            obs=obs,
            trace=trace,
            stable_output=stable_output,
            injector=injector,
            deadline_at=deadline_at,
        )

    # The per-step legacy loop: uninjected runs only.
    def finish(
        verdict: Optional[bool], silent: bool, deadline_exceeded: bool = False
    ) -> SimulationResult:
        if obs is not None:
            obs.on_run_end(
                interactions,
                LAYER_PROTOCOL,
                verdict=verdict,
                silent=silent,
                interactions=interactions,
                productive=productive,
                population=current.size,
                deadline_exceeded=deadline_exceeded,
                joined=0,
                departed=0,
            )
        return SimulationResult(
            final=current,
            verdict=verdict,
            silent=silent,
            interactions=interactions,
            productive=productive,
            population=current.size,
            output_trace=trace,
            deadline_exceeded=deadline_exceeded,
        )

    ticks = 0
    while interactions < max_interactions:
        if deadline_at is not None:
            ticks += 1
            if not ticks & 255 and time.monotonic() >= deadline_at:
                return finish(None, False, deadline_exceeded=True)
        if obs is None:
            step = scheduler.select(protocol, current, rng)
        else:
            step = scheduler.select(
                protocol, current, rng, observer=obs, step=interactions + 1
            )
        interactions += 1
        if step.transition is None:
            if obs is not None:
                obs.on_interaction(interactions, None, step.pair, False)
            if isinstance(scheduler, EnabledTransitionScheduler):
                # No productive transition exists at all: provably silent.
                if obs is not None:
                    obs.on_silence_check(interactions, True)
                break
            if interactions % check_silence_every == 0:
                silent_now = is_silent(protocol, current)
                if obs is not None:
                    obs.on_silence_check(interactions, silent_now)
                if silent_now:
                    break
            continue
        before = (
            current[step.transition.q],
            current[step.transition.r],
            current[step.transition.q2],
            current[step.transition.r2],
        )
        apply_transition_inplace(current, step.transition)
        after = (
            current[step.transition.q],
            current[step.transition.r],
            current[step.transition.q2],
            current[step.transition.r2],
        )
        changed = before != after
        if changed:
            productive += 1
        if obs is not None:
            obs.on_interaction(interactions, step.transition, step.pair, changed)
            if snapshot_every and interactions % snapshot_every == 0:
                obs.on_snapshot(interactions, current.to_dict(), LAYER_PROTOCOL)
        output = protocol.output(current)
        if output != stable_output:
            stable_output = output
            stable_since = productive
            trace.append((interactions, output))
            if obs is not None:
                obs.on_output_flip(interactions, output, LAYER_PROTOCOL)
        if (
            stable_output is not None
            and productive - stable_since >= convergence_window
        ):
            return finish(stable_output, False)

    silent = is_silent(protocol, current)
    # An empty population is trivially silent but has no output to report.
    verdict = protocol.output(current) if silent and current.size else None
    return finish(verdict, silent)


def derive_seed(base: int, attempt: int) -> int:
    """A per-attempt seed that is independent across *both* arguments.

    The old scheme (``base + attempt``) made adjacent base seeds share
    runs across calls (``seed=1, attempt=1`` collided with ``seed=2,
    attempt=0``), silently correlating what should be independent
    experiments.  Hashing the pair keeps determinism per ``(base,
    attempt)`` while decorrelating neighbours.
    """
    digest = hashlib.blake2b(
        f"{base}:{attempt}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def decide(
    protocol: PopulationProtocol,
    config: Multiset,
    *,
    seed: int | None = None,
    attempts: int = 3,
    observer: Observer | None = None,
    jobs: int | str | None = None,
    deadline: float | None = None,
    timeout: float | None = None,
    **kwargs,
) -> bool:
    """Run :func:`simulate` until a verdict is reached, retrying with fresh
    seeds up to ``attempts`` times (see :func:`_decide` for the full
    contract; this wrapper forwards every argument verbatim).

    When a span tracer is active the call is wrapped in a ``decide`` span
    with one ``attempt:<i>`` child per attempt — and the transition table
    is warmed through :func:`~repro.runtime.cache.cached_transition_table`
    up front (compilation touches no randomness, so warmed and unwarmed
    runs sample identically), which makes the compile/cache cost a visible
    child span instead of latency silently folded into the first attempt.
    """
    tracer = _spans.current()
    if tracer is None:
        return _decide(
            protocol,
            config,
            seed=seed,
            attempts=attempts,
            observer=observer,
            jobs=jobs,
            deadline=deadline,
            timeout=timeout,
            **kwargs,
        )
    with tracer.span(
        "decide",
        protocol=protocol.name,
        population=config.size,
        seed=seed,
        attempts=attempts,
    ):
        scheduler = kwargs.get("scheduler")
        if scheduler is None or isinstance(
            scheduler,
            (FastEnabledScheduler, FastUniformScheduler, BatchedScheduler),
        ):
            from repro.runtime.cache import cached_transition_table

            cached_transition_table(protocol)
        return _decide(
            protocol,
            config,
            seed=seed,
            attempts=attempts,
            observer=observer,
            jobs=jobs,
            deadline=deadline,
            timeout=timeout,
            **kwargs,
        )


def _decide(
    protocol: PopulationProtocol,
    config: Multiset,
    *,
    seed: int | None = None,
    attempts: int = 3,
    observer: Observer | None = None,
    jobs: int | str | None = None,
    deadline: float | None = None,
    timeout: float | None = None,
    **kwargs,
) -> bool:
    """Run :func:`simulate` until a verdict is reached, retrying with fresh
    seeds up to ``attempts`` times.  Raises :class:`NonConvergenceError` if
    no attempt stabilises.

    ``jobs`` fans the attempts out across a process pool (see
    :mod:`repro.runtime`): per-attempt seeds are unchanged and the verdict
    is the lowest-indexed stabilising attempt's, so the result is
    identical to sequential execution for every seed.  ``jobs=1`` (the
    default) runs the sequential loop below, bit-identical to previous
    behaviour; ``jobs=None`` defers to the ``REPRO_JOBS`` environment
    variable.  A ``"host:port"`` string (argument or environment) shards
    the attempts across the distributed cluster at that address instead
    (:func:`repro.runtime.distributed.decide_distributed`) — same seeds,
    same verdict.

    ``deadline`` bounds the *whole* call in wall-clock seconds
    (``REPRO_DEADLINE`` supplies a default); ``timeout`` bounds each
    attempt.  Hitting either raises :class:`NonConvergenceError` with a
    "deadline exceeded" message — a time bound is a budget exhaustion,
    not a verdict.
    """
    base = seed if seed is not None else random.Random().randrange(2**31)
    obs = live(observer)
    from repro.runtime.pool import decide_parallel, resolve_dispatch

    deadline = resolve_deadline(deadline)
    mode, target = resolve_dispatch(jobs)
    if mode == "distributed" and attempts > 1:
        from repro.runtime.distributed import decide_distributed

        return decide_distributed(
            protocol,
            config,
            base=base,
            attempts=attempts,
            addr=target,
            observer=obs,
            deadline=deadline,
            timeout=timeout,
            **kwargs,
        )
    n_jobs = target if mode == "local" else 1
    if n_jobs > 1 and attempts > 1:
        return decide_parallel(
            protocol,
            config,
            base=base,
            attempts=attempts,
            jobs=n_jobs,
            observer=obs,
            deadline=deadline,
            timeout=timeout,
            **kwargs,
        )
    deadline_at = time.monotonic() + deadline if deadline is not None else None
    timed_out = 0
    for attempt in range(attempts):
        budget = timeout
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise NonConvergenceError(
                    f"protocol {protocol.name!r} did not stabilise on "
                    f"|C|={config.size}: wall-clock deadline of {deadline:g}s "
                    f"exceeded after {attempt} of {attempts} attempts"
                )
            budget = remaining if budget is None else min(budget, remaining)
        attempt_seed = derive_seed(base, attempt)
        if obs is not None:
            obs.on_attempt(attempt, attempt_seed)
        with _spans.span(f"attempt:{attempt}", seed=attempt_seed):
            result = simulate(
                protocol,
                config,
                seed=attempt_seed,
                observer=obs,
                deadline=budget,
                **kwargs,
            )
        if result.verdict is not None:
            return result.verdict
        if result.deadline_exceeded:
            timed_out += 1
            # A per-attempt timeout lets the next attempt (fresh seed)
            # try again; the overall deadline does not.
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise NonConvergenceError(
                    f"protocol {protocol.name!r} did not stabilise on "
                    f"|C|={config.size}: wall-clock deadline exceeded during "
                    f"attempt {attempt + 1} of {attempts}"
                )
    detail = f", {timed_out} timed out" if timed_out else ""
    raise NonConvergenceError(
        f"protocol {protocol.name!r} did not stabilise on |C|={config.size} "
        f"within the budget ({attempts} attempts{detail})"
    )


def uniform_scheduler() -> UniformPairScheduler:
    """Convenience factory for the paper's uniform random scheduler."""
    return UniformPairScheduler()
