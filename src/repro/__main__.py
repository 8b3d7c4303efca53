"""Command-line entry point: regenerate the paper's tables and figures,
and observe instrumented runs.

Usage::

    python -m repro                 # quick sweep (structural experiments)
    python -m repro --full          # include the behavioural experiments
    python -m repro table1 figure2  # run selected experiments by id
    python -m repro --full --jobs 4 # fan Monte Carlo drivers across a pool

    python -m repro trace theorem3 --n 2       # JSONL trace + run digest
    python -m repro stats theorem3 --n 2       # metrics digest only
    python -m repro trace --list               # list traceable targets

    python -m repro bench                      # run the simulator bench suite
    python -m repro bench --out BENCH.json     # write the metrics elsewhere
    python -m repro bench --check              # fail on throughput regression
    python -m repro bench --suite batched      # batched-engine throughput

    python -m repro --engine batched ...       # bulk multinomial engine
    python -m repro trace protocol --engine legacy  # bit-exact replay engine

    python -m repro check baselines            # static checks on named targets
    python -m repro check all --json           # machine-readable diagnostics
    python -m repro check --list               # list check targets
    python -m repro lint                       # determinism/fork-safety lint

    python -m repro chaos                      # X4 transient-fault experiment
    python -m repro chaos --smoke              # quick resilience smoke check
    python -m repro chaos --churn              # X5 churn-recovery experiment
    python -m repro chaos --churn --smoke      # quick churn smoke check

``trace``/``stats`` targets are the observed reference workloads of
:mod:`repro.observability.runners` (the Theorem 3 program, a baseline
protocol simulation, a multi-attempt ``decide``, the lowered machine,
the compilation pipeline).
``trace`` additionally writes the run's span tree (``*.spans.json``) and
provenance manifest (``*.manifest.json``) next to the JSONL.
``bench`` drives the pytest-benchmark suites under ``benchmarks/`` and,
with ``--check``, compares every ``*.ops_per_second`` gauge of the fresh
run against a baseline JSON (default: the committed
``BENCH_simulator.json``), failing if any regressed by more than the
tolerance (``--tolerance`` / ``REPRO_BENCH_TOLERANCE``, default 30%).

``check`` runs the static verification layer
(:mod:`repro.analysis.statics`) over named artifact targets and ``lint``
runs the determinism/fork-safety source lint (:mod:`repro.lint`) over
``src/repro``.  Both share the exit-code contract **0** = clean at the
chosen severity threshold, **1** = findings, **2** = usage error, and
both emit JSON with ``--json`` (diagnostics list + severity summary).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Tuple


def _table1() -> str:
    from repro.experiments import run_table1

    report = run_table1(6)
    return report.render() + f"\nasymptotic ordering holds: {report.ordering_holds()}"


def _theorem1() -> str:
    from repro.experiments import run_theorem1_sizes

    report = run_theorem1_sizes(8)
    return (
        report.render()
        + f"\nlinear states: {report.linear_states()}"
        + f"\ndouble-exponential thresholds: {report.double_exponential()}"
    )


def _theorem3() -> str:
    from repro.experiments import run_theorem3_sizes

    return run_theorem3_sizes(8).render()


def _theorem3_decisions() -> str:
    from repro.experiments import run_theorem3_decisions

    lines = []
    for n in (1, 2):
        trials = run_theorem3_decisions(n)
        status = "OK" if all(t.correct for t in trials) else "MISMATCH"
        lines.append(f"n={n}: {[(t.total, t.got) for t in trials]} -> {status}")
    return "\n".join(lines)


def _theorem5() -> str:
    from repro.experiments import conversion_rows, render_conversion

    return render_conversion(conversion_rows())


def _theorem2() -> str:
    from repro.experiments import run_program_selfstab

    report = run_program_selfstab(2, trials_per_total=2)
    return report.render() + f"\ncorrect: {report.correct}/{report.total}"


def _lemma4() -> str:
    from repro.experiments import run_lemma4

    lines = []
    for total in (1, 2, 3):
        report = run_lemma4(1, total)
        lines.append(
            f"n=1 m={total}: {report.consistent}/{len(report.trials)} consistent"
        )
    return "\n".join(lines)


def _lemma15() -> str:
    from repro.experiments import run_lemma15

    report = run_lemma15()
    return report.render() + f"\nrecovered: {report.recovered}/{len(report.trials)}"


def _figure1() -> str:
    from repro.experiments import run_figure1

    report = run_figure1()
    return report.render() + f"\ncorrect: {report.correct}/{len(report.trials)}"


def _figure2() -> str:
    from repro.experiments import run_figure2

    report = run_figure2()
    return report.render() + f"\nall match: {report.all_match}"


def _figures_lowering() -> str:
    from repro.experiments import run_figures_lowering

    lines = []
    for g in run_figures_lowering():
        lines.append(
            f"{g.name}: L={g.length} detects={g.detects} moves={g.moves} "
            f"map-assigns={g.register_map_assignments} "
            f"restart-helper={'yes' if g.restart_entry else 'no'}"
        )
    return "\n".join(lines)


def _figure4() -> str:
    from repro.experiments import run_figure4

    report = run_figure4()
    lines = [f"transitions per instruction: {report.per_instruction_counts}"]
    lines += [f"{name}: {value}" for name, value in report.facts.items()]
    return "\n".join(lines)


def _awareness() -> str:
    from repro.experiments import run_awareness

    report = run_awareness(poison_state_count=3)
    return (
        f"baselines 1-aware: {report.baselines_are_aware}\n"
        f"unary poisonable: {report.baseline_poisonable}\n"
        f"construction resists poisoning: {report.construction_resists_poisoning}"
    )


def _ablation() -> str:
    from repro.experiments import run_ablation

    report = run_ablation(2, trials_per_total=2)
    return report.render() + f"\nerror checking helps: {report.checks_help}"


def _convergence() -> str:
    from repro.experiments import run_convergence

    report = run_convergence(3, trials=2)
    return report.render()


QUICK: Dict[str, Callable[[], str]] = {
    "table1": _table1,
    "theorem1": _theorem1,
    "theorem3": _theorem3,
    "theorem5": _theorem5,
    "figure2": _figure2,
    "figures-lowering": _figures_lowering,
    "figure4": _figure4,
}

FULL: Dict[str, Callable[[], str]] = {
    **QUICK,
    "theorem3-decisions": _theorem3_decisions,
    "theorem2": _theorem2,
    "lemma4": _lemma4,
    "lemma15": _lemma15,
    "figure1": _figure1,
    "awareness": _awareness,
    "ablation": _ablation,
    "convergence": _convergence,
}


def _run_chaos(argv: Tuple[str, ...]) -> int:
    """X4/X5 — fault and churn recovery (``python -m repro chaos``).

    Default mode runs the transient-fault experiment (X4) end-to-end: the
    Theorem 3 program with and without §5.2 error checks under mid-run
    register corruption, plus the protocol-level scheduler-family probe.
    ``--churn`` switches to the dynamic-population experiment (X5): agents
    join and leave mid-run via a seeded ChurnProcess, and recovery is
    judged against the *post-churn* population.  Headline rates are merged
    into the bench metrics JSON as ``chaos.*`` / ``churn.*`` gauges
    (read-modify-write, so the throughput gauges recorded by ``bench``
    survive).
    """
    repo_root = Path(__file__).resolve().parents[2]
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Transient-fault (X4) / churn-recovery (X5) experiments.",
    )
    parser.add_argument("--n", type=int, default=2, help="construction levels n")
    parser.add_argument(
        "--trials", type=int, default=3, help="trials per boundary total"
    )
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    parser.add_argument(
        "--churn",
        action="store_true",
        help="run the churn-recovery experiment (X5: dynamic population) "
        "instead of transient faults",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick mode: fewer trials, no metrics JSON update (CI smoke)",
    )
    parser.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the protocol-level scheduler/engine-family probe",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="process-pool width for the trial fan-out (0 = all cores)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="metrics JSON to merge the chaos.*/churn.* gauges into "
        "(default: BENCH_simulator.json at the repo root; smoke skips this)",
    )
    args = parser.parse_args(argv)

    from repro.experiments import run_churn_recovery, run_transient_faults

    trials = 1 if args.smoke else args.trials
    start = time.time()
    if args.churn:
        report = run_churn_recovery(
            args.n,
            trials_per_total=trials,
            seed=args.seed,
            jobs=args.jobs,
            probe=not args.no_probe,
        )
        regime = "churn"
    else:
        report = run_transient_faults(
            args.n,
            trials_per_total=trials,
            seed=args.seed,
            jobs=args.jobs,
            probe=not args.no_probe,
        )
        regime = "transient faults"
    elapsed = time.time() - start
    print(report.render())
    print(
        f"\nwith checks: {report.with_checks_correct}/{report.with_checks_total}"
        f"  without: {report.without_checks_correct}/{report.without_checks_total}"
        f"  gap: {report.with_checks_rate - report.without_checks_rate:+.3f}"
    )
    print(f"error checking helps under {regime}: {report.checks_help}")
    print(f"done in {elapsed:.1f}s")

    if not args.smoke:
        out = Path(args.out) if args.out else repo_root / "BENCH_simulator.json"
        payload = {}
        if out.exists():
            try:
                payload = json.loads(out.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                print(f"chaos: could not parse {out}; rewriting", file=sys.stderr)
        gauges = payload.setdefault("gauges", {})
        if args.churn:
            gauges["churn.recovery.with_checks_rate"] = report.with_checks_rate
            gauges["churn.recovery.without_checks_rate"] = (
                report.without_checks_rate
            )
            gauges["churn.recovery_gap"] = report.recovery_gap
        else:
            gauges["chaos.transient.with_checks_rate"] = report.with_checks_rate
            gauges["chaos.transient.without_checks_rate"] = (
                report.without_checks_rate
            )
            gauges["chaos.transient.rate_gap"] = (
                report.with_checks_rate - report.without_checks_rate
            )
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        kind = "churn.*" if args.churn else "chaos.*"
        print(f"merged {kind} gauges into {out}")

    # Smoke is a health check: insist the resilience signal is present.
    if report.checks_help or report.with_checks_correct == report.with_checks_total:
        return 0
    print("chaos: error-checked variant did not outperform the bare one",
          file=sys.stderr)
    return 1


def _observe_parser(command: str) -> argparse.ArgumentParser:
    from repro.observability.runners import TARGETS

    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}",
        description=(
            "Trace an instrumented run as JSONL + digest"
            if command == "trace"
            else "Collect metrics for an instrumented run"
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=sorted(TARGETS),
        help="workload to observe",
    )
    parser.add_argument("--list", action="store_true", help="list targets and exit")
    parser.add_argument("--n", type=int, default=None, help="construction levels n")
    parser.add_argument(
        "--total", type=int, default=None, help="input total m (register x1 / agents)"
    )
    parser.add_argument("--seed", type=int, default=None, help="rng seed")
    parser.add_argument(
        "--max-steps", type=int, default=None, help="step/interaction budget"
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=2_000,
        help="sampled configuration history interval (trace only)",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=2_000_000,
        help="cap on stored trace events (trace only)",
    )
    parser.add_argument(
        "--no-hot-events",
        action="store_true",
        help="drop per-step interaction/statement/instruction events",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (trace: JSONL, default trace_<target>.jsonl; "
        "stats: metrics JSON, printed digest otherwise)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="process-pool width for parallelisable targets (sets "
        "REPRO_JOBS; 0 = all cores, default 1 = sequential)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds per simulation/program run "
        "(sets REPRO_DEADLINE; runs report deadline_exceeded instead of "
        "spinning forever)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "legacy", "fast", "batched"),
        default=None,
        help="simulation engine family for protocol-level runs (sets "
        "REPRO_ENGINE; default: auto — fast below the population "
        "crossover, batched above)",
    )
    return parser


def _run_observe(command: str, argv: Tuple[str, ...]) -> int:
    from repro.observability import ALL_KINDS, HOT_KINDS, TraceRecorder
    from repro.observability.metrics import MetricsObserver
    from repro.observability.spans import SpanTracer, activate

    from repro.observability.runners import TARGETS

    parser = _observe_parser(command)
    args = parser.parse_args(argv)
    if args.list or args.target is None:
        for name, fn in sorted(TARGETS.items()):
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<10} {doc}")
        return 0

    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.deadline is not None:
        os.environ["REPRO_DEADLINE"] = str(args.deadline)
    if args.engine is not None:
        os.environ["REPRO_ENGINE"] = args.engine

    kwargs = {}
    for key in ("n", "total", "seed", "max_steps"):
        value = getattr(args, key)
        if value is not None:
            kwargs[key] = value

    recorder = None
    if command == "trace":
        recorder = TraceRecorder(
            snapshot_every=args.snapshot_every,
            max_events=args.max_events,
            kinds=(ALL_KINDS - HOT_KINDS) if args.no_hot_events else None,
        )
    metrics = MetricsObserver()
    tracer = SpanTracer(metrics=metrics.metrics)
    start = time.time()
    with activate(tracer):
        run = TARGETS[args.target](recorder=recorder, metrics=metrics, **kwargs)
    elapsed = time.time() - start

    print(run.outcome)
    print(run.digest())
    if command == "trace":
        out = args.out or f"trace_{args.target}.jsonl"
        path = recorder.write_jsonl(out)
        print(f"\nwrote {len(recorder.events)} events to {path} in {elapsed:.1f}s")
        spans_path = tracer.write_json(Path(path).with_suffix(".spans.json"))
        print(f"wrote {len(tracer)} spans to {spans_path}")
        if run.manifest is not None:
            manifest_path = run.manifest.write_json(
                Path(path).with_suffix(".manifest.json")
            )
            print(f"wrote provenance manifest to {manifest_path}")
    elif args.out:
        path = metrics.metrics.write_json(args.out, extra={"target": args.target})
        print(f"\nwrote metrics to {path} in {elapsed:.1f}s")
    return 0


def _emit_diagnostics(diagnostics, *, as_json: bool, fail_on: str, **extra) -> int:
    """Shared tail of ``check``/``lint``: print findings (text or JSON)
    and map them to the exit-code contract — 0 when nothing at or above
    ``fail_on`` severity, 1 otherwise."""
    from repro.core.diagnostics import (
        at_or_above,
        count_by_severity,
        diagnostics_to_json,
        render_diagnostics,
    )

    failing = at_or_above(diagnostics, fail_on)
    if as_json:
        print(diagnostics_to_json(diagnostics, fail_on=fail_on, **extra))
    else:
        if diagnostics:
            print(render_diagnostics(diagnostics))
        counts = count_by_severity(diagnostics)
        print(
            f"{'clean' if not failing else 'FINDINGS'}: "
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info (failing at or above: {fail_on})"
        )
    return 1 if failing else 0


def _run_check(argv: Tuple[str, ...]) -> int:
    """``python -m repro check`` — static verification of named targets.

    Exit codes: 0 = no diagnostic at or above ``--fail-on`` severity,
    1 = findings, 2 = usage error (argparse or unknown target).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Run the static verification layer over named "
        "protocol/program/machine targets.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="check targets (see --list); 'all' runs every registered one",
    )
    parser.add_argument("--list", action="store_true", help="list targets and exit")
    parser.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )
    parser.add_argument(
        "--fail-on",
        choices=("info", "warning", "error"),
        default="warning",
        help="lowest severity that makes the exit status 1 (default: warning)",
    )
    args = parser.parse_args(argv)

    from repro.analysis.statics import TARGETS as CHECK_TARGETS
    from repro.analysis.statics import run_target

    if args.list or not args.targets:
        for name, (description, _runner) in sorted(CHECK_TARGETS.items()):
            print(f"{name:<10} {description}")
        print(f"{'all':<10} every target above")
        return 0

    unknown = [t for t in args.targets if t != "all" and t not in CHECK_TARGETS]
    if unknown:
        parser.error(f"unknown check targets: {unknown}")

    diagnostics = []
    for target in args.targets:
        diagnostics.extend(run_target(target))
    return _emit_diagnostics(
        diagnostics,
        as_json=args.json,
        fail_on=args.fail_on,
        targets=list(args.targets),
    )


def _run_lint(argv: Tuple[str, ...]) -> int:
    """``python -m repro lint`` — determinism & fork-safety source lint.

    Exit codes: 0 = no finding at or above ``--fail-on`` (default: any
    warning), 1 = findings, 2 = usage error.
    """
    repo_root = Path(__file__).resolve().parents[2]
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Lint the source tree for determinism and fork-safety "
        "invariants (LNT001-LNT007; waive a line with `# lint-ok: CODE`).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )
    parser.add_argument(
        "--fail-on",
        choices=("info", "warning", "error"),
        default="warning",
        help="lowest severity that makes the exit status 1 (default: warning)",
    )
    args = parser.parse_args(argv)

    from repro.lint import lint_paths

    paths = [Path(p) for p in args.paths] if args.paths else [repo_root / "src" / "repro"]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such file or directory: {missing}")
    diagnostics = lint_paths(paths)
    return _emit_diagnostics(
        diagnostics,
        as_json=args.json,
        fail_on=args.fail_on,
        paths=[str(p) for p in paths],
    )


#: Benchmark suites runnable via ``python -m repro bench --suite NAME``.
#: Each entry is the list of paths (relative to ``benchmarks/``) pytest
#: collects; ``core`` is what CI gates on — the simulator micro-benchmarks
#: plus the parallel-runtime multi-run suite, written into one JSON.
BENCH_SUITES: Dict[str, Tuple[str, ...]] = {
    "simulator": ("bench_simulator_performance.py",),
    "parallel": ("bench_parallel_runtime.py",),
    "chaos": ("bench_transient_faults.py",),
    "churn": ("bench_churn_recovery.py",),
    "observability": ("bench_observability.py",),
    "batched": ("bench_batched_engine.py",),
    "statics": ("bench_statics.py",),
    "core": (
        "bench_simulator_performance.py",
        "bench_parallel_runtime.py",
        "bench_batched_engine.py",
        "bench_statics.py",
        "bench_churn_recovery.py",
    ),
    "all": (".",),
}


def _compare_bench(new_path: Path, baseline_path: Path, tolerance: float, suite: str) -> int:
    """Exit status of the regression gate: compare every
    ``*.ops_per_second`` gauge in ``new_path`` against ``baseline_path``.

    A gauge fails when the fresh value drops below ``baseline × (1 −
    tolerance)``.  The ``core`` and ``all`` suites must record every
    baseline gauge: one missing from the fresh run fails (a silently
    skipped benchmark must not read as a pass).  Any other suite runs
    part of the baseline, so it is compared on the baseline gauges it
    recorded, and fails when it recorded none.  Gauges new in the fresh
    run are reported but never fail.
    """
    new = json.loads(new_path.read_text(encoding="utf-8")).get("gauges", {})
    base = json.loads(baseline_path.read_text(encoding="utf-8")).get("gauges", {})
    complete = suite in ("core", "all")
    failures = []
    compared = 0
    for name in sorted(base):
        if not name.endswith(".ops_per_second") or base[name] in (None, 0):
            continue
        fresh = new.get(name)
        if fresh is None:
            if complete:
                failures.append(f"{name}: missing from fresh run")
                print(f"FAIL {name}: baseline {base[name]:.1f}, missing from fresh run")
            continue
        compared += 1
        ratio = fresh / base[name]
        status = "ok" if ratio >= 1.0 - tolerance else "FAIL"
        print(
            f"{status:>4} {name}: {fresh:.1f} vs baseline {base[name]:.1f} "
            f"({ratio:.1%} of baseline)"
        )
        if status == "FAIL":
            failures.append(f"{name}: {ratio:.1%} of baseline")
    for name in sorted(set(new) - set(base)):
        if name.endswith(".ops_per_second") and new[name] is not None:
            print(f" new {name}: {new[name]:.1f} (no baseline)")
    if not complete and not compared:
        failures.append(f"suite {suite!r} recorded no baseline gauge")
        print(f"FAIL suite {suite!r}: recorded none of the baseline gauges")
    if failures:
        print(
            f"\nbench check FAILED ({len(failures)} gauge(s) regressed beyond "
            f"{tolerance:.0%} tolerance)"
        )
        return 1
    print(f"\nbench check passed (tolerance {tolerance:.0%})")
    return 0


def _run_bench(argv: Tuple[str, ...]) -> int:
    repo_root = Path(__file__).resolve().parents[2]
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run a pytest-benchmark suite and record BENCH_*.json.",
    )
    parser.add_argument(
        "--suite",
        default="simulator",
        choices=sorted(BENCH_SUITES),
        help="benchmark suite to run (default: simulator)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="metrics JSON output path (default: BENCH_simulator.json at the "
        "repo root, i.e. the committed baseline is overwritten in place)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="after running, compare *.ops_per_second gauges against the "
        "baseline and exit non-zero on regression",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON for --check (default: BENCH_simulator.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.30")),
        help="allowed fractional throughput drop before --check fails "
        "(default: 0.30, or REPRO_BENCH_TOLERANCE)",
    )
    parser.add_argument(
        "--pytest-args",
        default="",
        help="extra arguments passed through to pytest (one string)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="process-pool width for the parallel-runtime benchmarks "
        "(sets REPRO_JOBS in the pytest subprocess; 0 = all cores)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds per simulation/program run "
        "(sets REPRO_DEADLINE in the pytest subprocess)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "legacy", "fast", "batched"),
        default=None,
        help="simulation engine family for protocol-level runs (sets "
        "REPRO_ENGINE in the pytest subprocess)",
    )
    args = parser.parse_args(argv)

    baseline = Path(args.baseline) if args.baseline else repo_root / "BENCH_simulator.json"
    out = Path(args.out) if args.out else repo_root / "BENCH_simulator.json"
    if args.check and not baseline.exists():
        print(f"bench: baseline {baseline} does not exist", file=sys.stderr)
        return 2
    if args.check and out.resolve() == baseline.resolve():
        print(
            "bench: --check needs --out different from the baseline "
            "(the fresh run would overwrite what it is compared against)",
            file=sys.stderr,
        )
        return 2

    targets = [str(repo_root / "benchmarks" / name) for name in BENCH_SUITES[args.suite]]
    cmd = [sys.executable, "-m", "pytest", *targets, "-q"]
    if args.pytest_args:
        cmd += args.pytest_args.split()
    env = dict(os.environ)
    env["REPRO_BENCH_OUT"] = str(out)
    if args.jobs is not None:
        env["REPRO_JOBS"] = str(args.jobs)
    if args.engine is not None:
        env["REPRO_ENGINE"] = args.engine
    if args.deadline is not None:
        env["REPRO_DEADLINE"] = str(args.deadline)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    status = subprocess.call(cmd, cwd=repo_root, env=env)
    if status != 0:
        return status
    if not out.exists():
        print(f"bench: suite wrote no metrics to {out}", file=sys.stderr)
        return 2
    print(f"\nwrote {out}")
    if args.check:
        return _compare_bench(out, baseline, args.tolerance, args.suite)
    return 0


def main(argv: Tuple[str, ...] = tuple(sys.argv[1:])) -> int:
    if argv and argv[0] in ("trace", "stats"):
        return _run_observe(argv[0], tuple(argv[1:]))
    if argv and argv[0] == "bench":
        return _run_bench(tuple(argv[1:]))
    if argv and argv[0] == "check":
        return _run_check(tuple(argv[1:]))
    if argv and argv[0] == "lint":
        return _run_lint(tuple(argv[1:]))
    if argv and argv[0] == "chaos":
        return _run_chaos(tuple(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids to run (default: quick set); known: "
        f"{', '.join(sorted(FULL))}",
    )
    parser.add_argument(
        "--full", action="store_true", help="run the behavioural experiments too"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="process-pool width for parallelisable experiments (sets "
        "REPRO_JOBS; 0 = all cores, default 1 = sequential)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds per simulation/program run "
        "(sets REPRO_DEADLINE)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "legacy", "fast", "batched"),
        default=None,
        help="simulation engine family for protocol-level runs (sets "
        "REPRO_ENGINE; default: auto — fast below the population "
        "crossover, batched above)",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.engine is not None:
        os.environ["REPRO_ENGINE"] = args.engine
    if args.deadline is not None:
        os.environ["REPRO_DEADLINE"] = str(args.deadline)

    if args.experiments:
        unknown = [e for e in args.experiments if e not in FULL]
        if unknown:
            parser.error(f"unknown experiments: {unknown}")
        selected = {name: FULL[name] for name in args.experiments}
    else:
        selected = FULL if args.full else QUICK

    for name, runner in selected.items():
        print(f"\n=== {name} " + "=" * max(0, 60 - len(name)))
        start = time.time()
        print(runner())
        print(f"--- {name} done in {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
