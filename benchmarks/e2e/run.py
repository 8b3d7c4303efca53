#!/usr/bin/env python3
"""End-to-end benchmark of the paper's path: program → machine → protocol →
transition table → decide, with per-layer timings from a traced run.

Run from the repository root (the runner finds ``src/`` itself)::

    python3 benchmarks/e2e/run.py --workload paper-path --seed 1
    python3 benchmarks/e2e/run.py --workload all --trace 1 --out runs.json
    python3 benchmarks/e2e/run.py --workload all --smoke

Each workload runs in one fresh process with ``jobs=1`` and no worker
pool: it sets up its protocol (several times where that is cheap, and
reports the median), then repeats its cycle of calls until ``--seconds``
have passed, always finishing the cycle it is in.  Every call's output is
checked against ground truth; a call that raises or returns a wrong
answer counts as failed.  ``--trace 1`` instead sets up once under a
:class:`~repro.observability.spans.SpanTracer`, runs the calls untraced
for half the time, then replays exactly those calls traced (spans plus a
``ProfilingObserver``) and reports the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name → value and unit).  See README.md for
what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional

from summary import self_times, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Run artefacts (span trees, the large-n cache, per-workload records).
SCRATCH = ROOT / ".e2e_bench"

RUN_SECONDS = 10
SMOKE_SCALE = 1 / 50

#: Environment that would change what a run measures: worker pools,
#: engine choice, deadlines, the auto crossover, a shared disk cache and
#: the numpy sampler switch.
UNSET_ENV = (
    "REPRO_JOBS",
    "REPRO_ENGINE",
    "REPRO_DEADLINE",
    "REPRO_AUTO_CROSSOVER",
    "REPRO_CACHE_DIR",
    "REPRO_NO_NUMPY",
)
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: A convergence window no fixed-budget call can reach (duplicated
#: interactions can push ``productive`` past the budget itself).
NO_WINDOW = 10**15

END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "programs.build_s": "s",
    "machines.lower_s": "s",
    "conversion.convert_s": "s",
    "conversion.broadcast_s": "s",
    "fastpath.table_s": "s",
    "conversion.states": "count",
    "conversion.transitions": "count",
    "fastpath.keys": "count",
    "runtime.cache.bytes": "B",
    "fastpath.index_build_s": "s",
    "fastpath.srecs_mean": "count",
    "fastpath.candidates_mean": "count",
    "fastpath.enabled_keys_mean": "count",
    "fastpath.index_churn_per_call": "count",
    "fastpath.steps_per_s": "1/s",
    "fastpath.steps_per_s.n1e6": "1/s",
    "simulation.productive_share": "ratio",
    "simulation.silent_exit_share": "ratio",
    "simulation.window_exit_share": "ratio",
    "simulation.interactions_per_call": "count",
    "decide.attempts_per_call": "count",
    "decide.self_share": "ratio",
    "batched.steps_per_s.n1e5": "1/s",
    "batched.steps_per_s.n1e6": "1/s",
    "batched.steps_per_s.n1e8": "1/s",
    "batched.interactions_per_batch": "count",
    "batched.collisions_per_call": "count",
    "resilience.steps_per_s.fast_enabled": "1/s",
    "resilience.steps_per_s.fast_uniform": "1/s",
    "resilience.steps_per_s.batched": "1/s",
    "resilience.faults_per_call": "count",
    "churn.joined_per_call": "count",
    "churn.departed_per_call": "count",
    "trace.overhead_ratio": "ratio",
    "self_s.bench.call": "s",
    "self_s.simulate": "s",
}


class WrongOutput(Exception):
    """A call's output contradicts ground truth or breaks an accounting
    invariant."""


def pin_environment() -> None:
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    for name in THREAD_ENV:
        os.environ[name] = "1"


def import_repro() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e: no repro package under {src}")
    sys.path.insert(0, str(src))


def provenance(seed: int) -> dict:
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "env": {name: os.environ.get(name) for name in UNSET_ENV + THREAD_ENV},
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Built:
    """A runnable protocol with its transition table compiled."""

    protocol: object
    init: object
    #: The protocol accepts ``x`` agents in ``init`` iff ``x >= threshold``
    #: (Theorem 5: ``k + |F|``).
    threshold: int


@dataclass
class Program:
    name: str
    make: Callable[[], object]
    k: int


def lipton_program() -> Program:
    from repro.lipton.construction import build_threshold_program
    from repro.lipton.levels import threshold

    return Program("lipton-n1", lambda: build_threshold_program(1), threshold(1))


def thr2_program() -> Program:
    from repro.programs import simple_threshold_program

    return Program("thr2", lambda: simple_threshold_program(2), 2)


def cold_setup(prog: Program) -> Built:
    """Build, lower, convert, broadcast and compile the table, one public
    call per layer, each in its own ``bench.*`` span."""
    from repro.conversion.broadcast import with_output_broadcast
    from repro.conversion.protocol_from_machine import convert_machine
    from repro.core.fastpath import get_table
    from repro.machines.lowering import lower_program
    from repro.observability import spans

    with spans.span("bench.cold"):
        with spans.span("bench.build"):
            program = prog.make()
        with spans.span("bench.lower"):
            machine = lower_program(program, name=f"{prog.name}-machine")
        with spans.span("bench.convert"):
            conversion = convert_machine(machine, name=f"{prog.name}-inner")
        with spans.span("bench.broadcast"):
            protocol = with_output_broadcast(
                conversion.protocol, name=f"{prog.name}-protocol"
            )
        with spans.span("bench.table"):
            get_table(protocol)
    return Built(
        protocol, next(iter(protocol.input_states)), prog.k + conversion.shift
    )


# ----------------------------------------------------------------------
# Calls
# ----------------------------------------------------------------------
@dataclass
class Call:
    """One measured operation.

    ``run(observer)`` performs it, raises :class:`WrongOutput` on a wrong
    answer, and returns the interactions it took when the API reports
    them (``decide`` does not).
    """

    kind: str
    api: str  # "simulate" | "decide"
    engine: str  # "fast_enabled" | "fast_uniform" | "batched"
    faulted: bool
    population: int
    run: Callable[[object], Optional[int]]


def check_accounting(result, initial: int, budget: int, exact: bool) -> None:
    """``final.size == population == initial + joined − departed`` and
    ``interactions <= budget`` (``== budget`` when ``exact``)."""
    expected = initial + result.joined - result.departed
    if result.population != expected or result.final.size != result.population:
        raise WrongOutput(
            f"population {result.population}, final size {result.final.size}, "
            f"expected {expected}"
        )
    if result.interactions > budget or (exact and result.interactions != budget):
        raise WrongOutput(f"{result.interactions} interactions for budget {budget}")


def simulate_call(kind, built, x, seed, *, budget, window=NO_WINDOW,
                  expect=None, exact=False, faults=None, scheduler=None,
                  engine="fast_enabled"):
    """A ``simulate`` call on ``x`` agents in the input state.

    ``expect`` is the verdict a decision must return; fixed-budget calls
    (``expect=None``) are checked for accounting only, and a silent end
    must then carry the protocol's true verdict.
    """
    from repro.core.multiset import Multiset
    from repro.core.simulation import simulate

    def run(observer):
        result = simulate(
            built.protocol,
            Multiset({built.init: x}),
            seed=seed,
            scheduler=scheduler,
            max_interactions=budget,
            convergence_window=window,
            faults=faults,
            observer=observer,
        )
        if expect is not None:
            if result.verdict is not expect:
                raise WrongOutput(f"x={x}: verdict {result.verdict}, expected {expect}")
        else:
            check_accounting(result, x, budget, exact and not result.silent)
            if result.silent and result.verdict is not (x >= built.threshold):
                raise WrongOutput(f"x={x}: silent with verdict {result.verdict}")
        return result.interactions

    return Call(kind, "simulate", engine, faults is not None, x, run)


def decide_call(kind, built, x, seed, *, window):
    from repro.core.multiset import Multiset
    from repro.core.simulation import decide

    expect = x >= built.threshold

    def run(observer):
        verdict = decide(
            built.protocol,
            Multiset({built.init: x}),
            seed=seed,
            attempts=3,
            jobs=1,
            convergence_window=window,
            observer=observer,
        )
        if verdict is not expect:
            raise WrongOutput(f"x={x}: decide returned {verdict}, expected {expect}")
        return None

    return Call(kind, "decide", "fast_enabled", False, x, run)


def call_seed(seed: int, workload: str, cycle: int, label) -> int:
    from repro.runtime.seeds import derive_seed_path

    return derive_seed_path(seed, workload, cycle, label)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 3

    def __init__(self, seed: int, scale: float, smoke: bool):
        self.seed = seed
        self.scale = scale
        if smoke:
            self.setups = 1

    def scaled(self, n: int) -> int:
        return max(1, int(n * self.scale))

    def prepare(self, traced: bool) -> None:
        """Untimed work before the set-ups."""

    def setup(self) -> Built:
        return cold_setup(thr2_program())

    def cycle(self, built: Built, index: int) -> List[Call]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what :meth:`prepare` left on disk."""


class PaperPath(Workload):
    """Theorem 1's protocol (Lipton, n=1) from a cold start, then one
    decision just below the threshold and one fixed-budget run at it."""

    name = "paper-path"
    #: One cold set-up takes ~16 s; a second would double the run.
    setups = 1

    def __init__(self, seed, scale, smoke):
        super().__init__(seed, scale, smoke)
        # Smoke runs swap in the small threshold program: same layers,
        # an eighth of the states.
        self.program = thr2_program() if smoke else lipton_program()
        self.window = self.scaled(1_000)

    def setup(self):
        return cold_setup(self.program)

    def cycle(self, built, index):
        below, at = built.threshold - 1, built.threshold
        return [
            # Below the threshold the output never leaves False, so the
            # decision costs exactly ``window`` productive steps.
            simulate_call(
                f"reject-x{below}", built, below,
                call_seed(self.seed, self.name, index, "reject"),
                budget=10 * self.window, window=self.window, expect=False,
            ),
            simulate_call(
                f"budget-x{at}", built, at,
                call_seed(self.seed, self.name, index, "accept"),
                budget=self.window, exact=True,
            ),
        ]


class CompiledSweep(Workload):
    """The small threshold program compiled cold, then ``decide`` on both
    sides of its threshold ``k + |F| = 11``."""

    name = "compiled-sweep"
    #: Offsets from the threshold.  -3 is below |F| (a silent exit);
    #: +0 and +1 are left out because their accept time has a tail past
    #: any window a run can afford (x=11: 2 of 150 runs still False after
    #: 15k steps), so a window verdict there is not ground truth.  Four
    #: kinds leave five or so samples of each per run for the medians.
    offsets = (-3, -1, 2, 4)
    window = 10_000

    def cycle(self, built, index):
        return [
            decide_call(
                f"decide-x{built.threshold + off}", built, built.threshold + off,
                call_seed(self.seed, self.name, index, off), window=self.window,
            )
            for off in self.offsets
        ]


class LargeN(Workload):
    """Warm-load the compiled protocol from a primed disk cache, then
    fixed-budget runs on the default engine (batched above 50k agents)
    at n = 10^5, 10^6, 10^8, plus a fast-uniform reference at 10^6."""

    name = "large-n"

    def __init__(self, seed, scale, smoke):
        super().__init__(seed, scale, smoke)
        self.cache_dir: Optional[Path] = None
        self.cache_bytes = 0

    def prepare(self, traced):
        from repro.runtime.cache import (
            ArtifactCache,
            cached_compile_program,
            cached_transition_table,
        )
        from repro.observability import spans

        if traced:
            # The per-layer compile timings come from a cold set-up, like
            # every other workload's; untraced runs do not need it.
            cold_setup(thr2_program())
        SCRATCH.mkdir(exist_ok=True)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=SCRATCH))
        cache = ArtifactCache(self.cache_dir)
        prog = thr2_program()
        with spans.span("bench.publish"):
            pipeline = cached_compile_program(prog.make(), prog.name, cache=cache)
            cached_transition_table(pipeline.protocol, cache=cache)
        self.cache_bytes = sum(p.stat().st_size for p in self.cache_dir.iterdir())

    def setup(self):
        from repro.observability import spans
        from repro.runtime.cache import (
            ArtifactCache,
            cached_compile_program,
            cached_transition_table,
        )

        # A fresh cache object has an empty memory layer: both lookups
        # must come from disk.
        cache = ArtifactCache(self.cache_dir)
        prog = thr2_program()
        with spans.span("bench.warm"):
            with spans.span("bench.build"):
                program = prog.make()
            pipeline = cached_compile_program(program, prog.name, cache=cache)
            cached_transition_table(pipeline.protocol, cache=cache)
        if cache.disk_hits != 2 or cache.misses:
            raise WrongOutput(f"warm load was not served from disk: {cache.stats()}")
        protocol = pipeline.protocol
        return Built(protocol, next(iter(protocol.input_states)), prog.k + pipeline.shift)

    def cycle(self, built, index):
        from repro.core.fastpath import FastUniformScheduler

        calls = [
            simulate_call(
                f"batched-n1e{exp}", built, 10**exp,
                call_seed(self.seed, self.name, index, exp),
                budget=self.scaled(budget), exact=True, engine="batched",
            )
            for exp, budget in ((5, 500_000), (6, 1_500_000), (8, 10_000_000))
        ]
        calls.append(
            simulate_call(
                "fast-uniform-n1e6", built, 10**6,
                call_seed(self.seed, self.name, index, "reference"),
                budget=self.scaled(10_000), exact=True,
                scheduler=FastUniformScheduler(), engine="fast_uniform",
            )
        )
        return calls

    def close(self):
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def dense_plan(rng: random.Random, budget: int, state):
    """Barrier events (corrupt/reset/join/leave) every ``budget/40`` steps,
    each followed half a period later by a short per-step window
    (drop/duplicate/unfair/adversarial), over a churn process spanning
    the whole budget."""
    from repro.resilience import (
        AdversarialScheduler,
        ChurnProcess,
        CorruptAgents,
        DropInteractions,
        DuplicateInteractions,
        FaultPlan,
        JoinAgents,
        LeaveAgents,
        ResetAgents,
        UnfairWindow,
    )

    barriers = (
        lambda at: CorruptAgents(at, agents=rng.randint(1, 4)),
        lambda at: ResetAgents(at, agents=rng.randint(1, 3), state=state),
        lambda at: JoinAgents(at, agents=rng.randint(1, 4), state=state),
        lambda at: LeaveAgents(at, agents=rng.randint(1, 3)),
    )
    windows = (
        lambda at: DropInteractions(at, count=rng.randint(5, 30)),
        lambda at: DuplicateInteractions(at, count=rng.randint(5, 30)),
        lambda at: UnfairWindow(at, length=rng.randint(5, 30)),
        lambda at: AdversarialScheduler(at, length=rng.randint(5, 30), fairness=4),
    )
    period = max(2, budget // 40)
    shift_b, shift_w = rng.randrange(4), rng.randrange(4)
    faults = []
    for j, at in enumerate(range(period, budget, period)):
        faults.append(barriers[(j + shift_b) % 4](at))
        faults.append(windows[(j + shift_w) % 4](at + period // 2))
    faults.append(
        ChurnProcess(at=0, length=budget, join_rate=0.002, leave_rate=0.002, state=state)
    )
    return FaultPlan(faults)


def population_plan(rng: random.Random, budget: int, state):
    """Joins and leaves only (the batched engine runs these natively)."""
    from repro.resilience import ChurnProcess, FaultPlan, JoinAgents, LeaveAgents

    period = max(2, budget // 20)
    faults = [
        JoinAgents(at, agents=rng.randint(20, 60), state=state)
        if j % 2 == 0
        else LeaveAgents(at, agents=rng.randint(20, 60))
        for j, at in enumerate(range(period, budget, period))
    ]
    faults.append(
        ChurnProcess(at=0, length=budget, join_rate=1e-5, leave_rate=1e-5, state=state)
    )
    return FaultPlan(faults)


class Faulted(Workload):
    """The small threshold program compiled cold, then fixed-budget runs
    under dense fault plans on both fast engines and a population-only
    plan on the batched engine."""

    name = "faulted"

    def cycle(self, built, index):
        from repro.core.batched import BatchedScheduler
        from repro.core.fastpath import FastEnabledScheduler, FastUniformScheduler

        rng = random.Random(call_seed(self.seed, self.name, index, "plans"))
        calls = []
        for engine, scheduler, budget in (
            ("fast_enabled", FastEnabledScheduler(), self.scaled(20_000)),
            ("fast_uniform", FastUniformScheduler(), self.scaled(40_000)),
        ):
            calls.append(
                simulate_call(
                    f"faulted-{engine}", built, 2_000,
                    call_seed(self.seed, self.name, index, engine),
                    budget=budget, faults=dense_plan(rng, budget, built.init),
                    scheduler=scheduler, engine=engine,
                )
            )
        budget = self.scaled(1_000_000)
        calls.append(
            simulate_call(
                "faulted-batched", built, 100_000,
                call_seed(self.seed, self.name, index, "batched"),
                budget=budget, faults=population_plan(rng, budget, built.init),
                scheduler=BatchedScheduler(), engine="batched",
            )
        )
        return calls


WORKLOADS = {w.name: w for w in (PaperPath, CompiledSweep, LargeN, Faulted)}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Sample:
    call: Call
    seconds: float
    interactions: Optional[int]
    ok: bool


def run_call(call: Call, observer=None) -> Sample:
    start = time.perf_counter()
    try:
        interactions = call.run(observer)
        ok = True
    except Exception:  # a failed call is counted, and the run goes on
        print(f"# call {call.kind} failed:", file=sys.stderr)
        traceback.print_exc()
        interactions, ok = None, False
    return Sample(call, time.perf_counter() - start, interactions, ok)


def call_loop(wl: Workload, built: Built, seconds: float) -> List[Sample]:
    """Whole cycles of calls until ``seconds`` have passed (at least one)."""
    samples: List[Sample] = []
    start = time.perf_counter()
    index = 0
    while True:
        samples.extend(run_call(call) for call in wl.cycle(built, index))
        index += 1
        if time.perf_counter() - start >= seconds:
            return samples


def by_kind(samples: List[Sample]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for s in samples:
        if s.ok:
            out.setdefault(s.call.kind, []).append(s.seconds)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(wl: Workload, seconds: float) -> dict:
    wl.prepare(traced=False)
    setup_times = []
    built = None
    for _ in range(wl.setups):
        built = None  # let the previous protocol go before timing the next
        gc.collect()
        start = time.perf_counter()
        built = wl.setup()
        setup_times.append(time.perf_counter() - start)
    samples = call_loop(wl, built, seconds)
    kinds = by_kind(samples)
    metrics = {
        "setup_s": median(setup_times),
        # One pass over the workload's call list, as the sum of each
        # call kind's median: kinds differ in cost by design, and a
        # median over the mixture would jump between them.
        "cycle_s": sum(median(v) for v in kinds.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "detail": {"setup_s": setup_times, "calls": kinds},
    }


def make_profiler():
    """A ``ProfilingObserver`` that also keeps each run's ``run_end``
    summary (interactions, productive, silent, verdict, batches,
    collisions, churn totals) in ``.runs``."""
    from repro.observability.profile import ProfilingObserver

    class RunProfiler(ProfilingObserver):
        def __init__(self):
            super().__init__()
            self.runs: List[dict] = []

        def on_run_end(self, step, layer, **data):
            super().on_run_end(step, layer, **data)
            self.runs.append(data)

    return RunProfiler()


def measure_traced(wl: Workload, seconds: float, seed: int) -> dict:
    from repro.core.fastpath import EnabledIndex, get_table
    from repro.core.multiset import Multiset
    from repro.observability import spans
    from repro.observability.spans import SpanTracer

    tracer = SpanTracer()
    with spans.activate(tracer):
        with spans.span("bench.prepare"):
            wl.prepare(traced=True)
        with spans.span("bench.setup"):
            built = wl.setup()

    untraced = call_loop(wl, built, seconds / 2)

    first_fast = next(s.call for s in untraced if s.call.engine.startswith("fast"))
    config = Multiset({built.init: first_fast.population})
    builds = []
    for _ in range(5):
        start = time.perf_counter()
        index = EnabledIndex(built.protocol, config)
        builds.append(time.perf_counter() - start)

    profiler = make_profiler()
    replay = []
    with spans.activate(tracer):
        for s in untraced:
            before = len(profiler.runs)
            with spans.span("bench.call", kind=s.call.kind):
                traced = run_call(s.call, profiler)
            runs = profiler.runs[before:]
            interactions = sum(r.get("interactions", 0) for r in runs)
            if traced.ok and s.interactions is not None and s.interactions != interactions:
                print(
                    f"# call {s.call.kind}: traced replay took {interactions} "
                    f"interactions, untraced {s.interactions}",
                    file=sys.stderr,
                )
                traced.ok = False
            replay.append((s, traced, runs, interactions))

    payload = tracer.to_payload()
    own = self_times(payload)
    SCRATCH.mkdir(exist_ok=True)
    (SCRATCH / f"{wl.name}.spans.json").write_text(
        json.dumps(
            {"workload": wl.name, "seed": seed, "self_s": own, "tree": tracer.tree()},
            indent=1,
            default=repr,
        )
        + "\n"
    )

    cold = {
        s["name"]: s["end"] - s["start"]
        for s in payload
        if "bench.cold" in s["path"][:-1]
    }
    table = get_table(built.protocol)
    calls = len(replay)
    all_runs = [r for _, _, runs, _ in replay for r in runs]
    total_interactions = sum(r.get("interactions", 0) for r in all_runs)
    registry = profiler.metrics

    def rate(pred):
        chosen = [(s, n) for s, _, _, n in replay if pred(s.call)]
        secs = sum(s.seconds for s, _ in chosen)
        return sum(n for _, n in chosen) / secs if secs else 0.0

    def share(count, whole):
        return count / whole if whole else 0.0

    batched_runs = [r for r in all_runs if r.get("engine") == "batched"]
    decides = [s for s, _, _, _ in replay if s.call.api == "decide"]
    decide_total = sum(s["end"] - s["start"] for s in payload if s["name"] == "decide")
    untraced_secs = sum(s.seconds for s, _, _, _ in replay)
    traced_secs = sum(t.seconds for _, t, _, _ in replay)

    metrics = {
        "programs.build_s": cold["bench.build"],
        "machines.lower_s": cold["bench.lower"],
        "conversion.convert_s": cold["bench.convert"],
        "conversion.broadcast_s": cold["bench.broadcast"],
        "fastpath.table_s": cold["bench.table"],
        "conversion.states": built.protocol.state_count,
        "conversion.transitions": len(built.protocol.transitions),
        "fastpath.keys": len(table.enabled.keys),
        "runtime.cache.bytes": getattr(wl, "cache_bytes", 0),
        "fastpath.index_build_s": median(builds),
        "fastpath.srecs_mean": sum(map(len, index.srecs)) / len(index.srecs),
        "fastpath.candidates_mean": (
            registry.histogram("sim.enabled_candidates").mean or 0.0
        ),
        "fastpath.enabled_keys_mean": registry.histogram("sim.enabled_keys").mean or 0.0,
        "fastpath.index_churn_per_call": share(
            registry.counter("sim.index_churn_total").value, calls
        ),
        "fastpath.steps_per_s": rate(lambda c: c.engine.startswith("fast")),
        "fastpath.steps_per_s.n1e6": rate(
            lambda c: c.engine == "fast_uniform" and not c.faulted
            and c.population == 10**6
        ),
        "simulation.productive_share": share(
            sum(r.get("productive", 0) for r in all_runs), total_interactions
        ),
        "simulation.silent_exit_share": share(
            sum(bool(r.get("silent")) for r in all_runs), len(all_runs)
        ),
        "simulation.window_exit_share": share(
            sum(r.get("verdict") is not None and not r.get("silent") for r in all_runs),
            len(all_runs),
        ),
        "simulation.interactions_per_call": share(total_interactions, calls),
        "decide.attempts_per_call": share(
            registry.counter("sim.attempts").value, len(decides)
        ),
        "decide.self_share": share(own.get("decide", 0.0) + own.get("attempt", 0.0),
                                   decide_total),
        "batched.interactions_per_batch": share(
            sum(r.get("interactions", 0) for r in batched_runs),
            sum(r.get("batches", 0) for r in batched_runs),
        ),
        "batched.collisions_per_call": share(
            sum(r.get("collisions", 0) for r in batched_runs), calls
        ),
        "resilience.faults_per_call": share(
            registry.counter("sim.faults").value, calls
        ),
        "churn.joined_per_call": share(sum(r.get("joined", 0) for r in all_runs), calls),
        "churn.departed_per_call": share(
            sum(r.get("departed", 0) for r in all_runs), calls
        ),
        "trace.overhead_ratio": share(traced_secs, untraced_secs),
        "self_s.bench.call": share(own.get("bench.call", 0.0), calls),
        "self_s.simulate": share(own.get("simulate", 0.0), calls),
    }
    for exp in (5, 6, 8):
        metrics[f"batched.steps_per_s.n1e{exp}"] = rate(
            lambda c, n=10**exp: c.engine == "batched" and not c.faulted
            and c.population == n
        )
    for engine in ("fast_enabled", "fast_uniform", "batched"):
        metrics[f"resilience.steps_per_s.{engine}"] = rate(
            lambda c, e=engine: c.faulted and c.engine == e
        )
    attempted = 2 * len(untraced)
    failed = sum(not s.ok for s in untraced) + sum(not t.ok for _, t, _, _ in replay)
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "attempted": attempted,
        "failed": failed,
        "detail": {"self_s": own, "calls": by_kind(untraced)},
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_one(args) -> dict:
    pin_environment()
    import_repro()
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS * scale
    wl = WORKLOADS[args.workload](args.seed, scale, args.smoke)
    started_at = time.time()  # lets compare.py check the run order
    started = time.perf_counter()
    try:
        if args.trace:
            measured = measure_traced(wl, seconds, args.seed)
        else:
            measured = measure_untraced(wl, seconds)
    finally:
        wl.close()
    units = measured["units"]
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            name: {"value": measured["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    tails = {}
    for kind, values in measured["detail"]["calls"].items():
        tail = tail_percentile(values)
        tails[kind] = {
            "n": len(values),
            "p50": median(values),
            "tail": None if tail is None else {"p": tail[0], "value": tail[1],
                                               "beyond": tail[2]},
        }
    return {
        "schema": "repro-e2e-v1",
        "workload": wl.name,
        "seed": args.seed,
        "seconds": seconds,
        "trace": int(args.trace),
        "smoke": bool(args.smoke),
        "started_at": started_at,
        "run_s": time.perf_counter() - started,
        "provenance": provenance(args.seed),
        "calls": tails,
        "detail": measured["detail"],
        "result": result,
    }


def print_record(record: dict) -> None:
    print(f"# e2e {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']} "
          f"run_s={record['run_s']:.2f}")
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for kind, info in sorted(record["calls"].items()):
        tail = info["tail"]
        tail_text = (
            f"p{tail['p']:g}={tail['value']:.4f}s ({tail['beyond']} beyond)"
            if tail else "no percentile above p50 has 10 samples beyond"
        )
        print(f"# call {kind}: n={info['n']} p50={info['p50']:.4f}s {tail_text}")
    res = record["result"]
    for name, metric in res["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"# correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    SCRATCH.mkdir(exist_ok=True)
    records = []
    for name in WORKLOADS:
        out = SCRATCH / f"{name}.record.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(int(args.trace)),
               "--out", str(out)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"e2e: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        records.extend(json.loads(out.read_text())["runs"])
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    combined = {
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": {
            f"{r['workload']}/{name}": metric
            for r in records
            for name, metric in r["result"]["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per run (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=None, help="write the run record(s) here")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/50 of the work, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = run_one(args)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": [record]}, indent=1) + "\n")
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
