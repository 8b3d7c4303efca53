"""Process-pool execution engine for independent simulation tasks.

Three layers, all sharing the same determinism contract (task results
depend only on the task's own inputs and its seed-tree seed, never on
worker scheduling):

* :func:`resolve_jobs` — the single interpretation of a ``jobs``
  argument.  ``jobs=1`` is *the sequential path*: no pool, no pickling,
  bit-identical to the pre-parallel code.  ``jobs=None`` defers to the
  ``REPRO_JOBS`` environment variable (default 1) so whole experiment
  sweeps — and the test suite — can be switched to parallel execution
  without touching call sites.  ``jobs=0`` means "all cores".
* :func:`parallel_map` — deterministic fan-out of ``fn(*task)`` over a
  task list; results are assembled in task order, so the output is
  exactly ``[fn(*t) for t in tasks]`` regardless of completion order.
* :func:`decide_parallel` — the parallel core of
  :func:`repro.core.simulation.decide`: all attempts launch concurrently,
  the verdict is the *lowest-indexed* attempt that stabilised (the same
  attempt sequential execution would have returned, preserving
  ``jobs=1``/``jobs=N`` result equality), and once that attempt resolves
  every not-yet-started attempt is cancelled.

Workers run with their own :class:`~repro.observability.metrics.Metrics`
registry; completed attempts ship it back (as a plain dict) and the
parent merges it into any :class:`MetricsObserver` reachable from the
caller's observer, so ``python -m repro stats`` and the benchmark JSON
report the work that actually happened, wherever it happened.

The pool is *hardened* (see :mod:`repro.resilience` for the fault side
of the story): crashed workers trigger bounded retries with exponential
backoff and deterministic jitter, hung workers are SIGTERM'd after a
caller-chosen ``timeout``, and when the pool cannot be trusted at all
execution degrades to the sequential in-process path — identical seeds,
identical verdict, just slower.  A wall-clock ``deadline`` bounds whole
calls; crossing it raises :class:`~repro.core.errors.NonConvergenceError`.

Start method: ``fork`` where the platform offers it (workers inherit the
parent's warmed :mod:`~repro.runtime.cache` for free), else the platform
default; override with ``REPRO_START_METHOD``.  Workers pin their own
``REPRO_JOBS`` to 1, so a parallelised driver calling another
parallelisable function never fans out a pool inside a pool.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import NonConvergenceError
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol
from repro.core.simulation import derive_seed, simulate
from repro.observability import spans as _spans
from repro.observability.observer import CompositeObserver, Observer, live
from repro.runtime.cache import artifact_cache, cached_transition_table
from repro.runtime.ledger import TaskLedger, resolve_ledger, task_key
from repro.runtime.seeds import derive_child


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a ``jobs`` argument to a worker count ≥ 1 (see module
    docstring for the ``None``/``0`` conventions)."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_dispatch(jobs: Any = None) -> Tuple[str, Any]:
    """Interpret a ``jobs`` argument as an execution target.

    Returns ``("local", n)`` for an in-process pool of ``n`` workers, or
    ``("distributed", "host:port")`` when ``jobs`` (or the ``REPRO_JOBS``
    environment variable) names a coordinator address — the one switch
    that turns every ``--jobs``-aware entry point into a distributed one
    without touching call sites.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if ":" in raw:
            return ("distributed", raw)
        return ("local", resolve_jobs(None))
    if isinstance(jobs, str):
        text = jobs.strip()
        if ":" in text:
            return ("distributed", text)
        try:
            return ("local", resolve_jobs(int(text) if text else None))
        except ValueError:
            return ("local", 1)
    return ("local", resolve_jobs(jobs))


def _start_method() -> str:
    preferred = os.environ.get("REPRO_START_METHOD")
    available = multiprocessing.get_all_start_methods()
    if preferred and preferred in available:
        return preferred
    return "fork" if "fork" in available else available[0]


def _worker_init() -> None:
    # A worker is a leaf of the fan-out tree: anything it calls that
    # consults REPRO_JOBS must run sequentially rather than nest pools.
    os.environ["REPRO_JOBS"] = "1"


def _executor(jobs: int, tasks: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=max(1, min(jobs, tasks)),
        mp_context=multiprocessing.get_context(_start_method()),
        initializer=_worker_init,
    )


def _terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Abandon a pool whose workers can no longer be trusted (crashed or
    hung): cancel everything pending without waiting, then SIGTERM any
    worker still alive so a wedged child cannot outlive the call."""
    # Snapshot the workers first: shutdown() nulls out ``_processes`` even
    # with ``wait=False`` (and a broken pool may have nulled it already).
    procs = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=1.0)
        except Exception:
            pass
    # SIGTERM may be masked or ignored (dispositions survive fork); a
    # worker that shrugged it off gets the non-negotiable SIGKILL.
    for proc in procs:
        try:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        except Exception:
            pass


_UNSET = object()

#: Sentinel: "journalling already handled upstream — do not re-resolve
#: REPRO_LEDGER_DIR" (used by the ledgered path's inner pooled call).
_LEDGER_OFF = object()


def _traced_task(fn: Callable[..., Any], label: str, args: Tuple[Any, ...]) -> Dict[str, Any]:
    """Run one task under a fresh span tracer and ship the spans with the
    result.  Module-level so it is picklable; also used for the in-process
    degraded rerun so every traced result has the same envelope."""
    tracer = _spans.SpanTracer()
    with _spans.activate(tracer):
        with tracer.span(label):
            result = fn(*args)
    return {"__spans__": tracer.to_payload(), "result": result}


def parallel_map(
    fn: Callable[..., Any],
    tasks: Iterable[Sequence[Any]],
    *,
    jobs: Any = None,
    timeout: Optional[float] = None,
    span_labels: Optional[Sequence[str]] = None,
    paths: Optional[Sequence[Sequence[Any]]] = None,
    ledger: Optional[TaskLedger] = None,
) -> List[Any]:
    """``[fn(*t) for t in tasks]``, fanned across a process pool.

    ``fn`` must be a module-level callable and every task argument (and
    result) picklable.  With ``jobs=1`` (or a single task) no pool is
    created and the comprehension runs verbatim in-process.  When
    ``jobs`` (or ``REPRO_JOBS``) is a ``"host:port"`` string the whole
    call routes to :func:`repro.runtime.distributed.distributed_map` on
    the cluster at that address — same results, different hardware.

    When a span tracer is active in the caller, every task runs under its
    own span — ``span_labels[i]`` or ``task:<i>`` — and spans created in
    workers are shipped back and adopted in task order, so the merged
    span tree is identical for ``jobs=1`` and ``jobs=N``.  Without an
    active tracer nothing changes (workers run ``fn`` directly).

    ``paths`` names each task by its deterministic seed-tree path (for
    ledger keys and distributed re-dispatch).  A :class:`TaskLedger` —
    explicit, or opened under ``REPRO_LEDGER_DIR`` — makes the call
    resumable: journalled tasks return their recorded results without
    re-execution, fresh completions are journalled as they land.

    The fan-out degrades rather than fails: if the pool breaks (a worker
    crashed) or a task exceeds ``timeout`` seconds, surviving results are
    harvested, the pool is torn down, and every unfinished task runs
    sequentially in-process — same results, just slower.  Exceptions
    *raised by* ``fn`` are not failures of the pool and propagate as
    usual.
    """
    tasks = [tuple(t) for t in tasks]
    if paths is not None:
        paths = [tuple(p) for p in paths]
        if len(paths) != len(tasks):
            raise ValueError("paths must match tasks in length")
    mode, target = resolve_dispatch(jobs)
    if mode == "distributed":
        from repro.runtime.distributed import distributed_map

        return distributed_map(
            fn, tasks, addr=target, span_labels=span_labels, paths=paths, ledger=ledger
        )
    jobs = target
    tracer = _spans.current()
    labels = None
    if tracer is not None:
        labels = (
            [str(l) for l in span_labels]
            if span_labels is not None
            else [f"task:{i}" for i in range(len(tasks))]
        )
        if len(labels) != len(tasks):
            raise ValueError("span_labels must match tasks in length")
    if ledger is _LEDGER_OFF:
        ledger = None
    else:
        ledger = resolve_ledger(
            fn,
            paths if paths is not None else [("task", i) for i in range(len(tasks))],
            tasks,
            ledger=ledger,
        )
    if ledger is not None:
        return _ledgered_map(
            fn,
            tasks,
            paths=paths,
            jobs=jobs,
            timeout=timeout,
            tracer=tracer,
            labels=labels,
            ledger=ledger,
        )
    if jobs <= 1 or len(tasks) <= 1:
        if labels is None:
            return [fn(*t) for t in tasks]
        out: List[Any] = []
        for label, t in zip(labels, tasks):
            with tracer.span(label):
                out.append(fn(*t))
        return out

    def _run(i: int) -> Any:
        """In-process execution of task ``i`` (sequential / degraded)."""
        if labels is None:
            return fn(*tasks[i])
        return _traced_task(fn, labels[i], tasks[i])

    def _submit(executor: ProcessPoolExecutor, i: int) -> Any:
        if labels is None:
            return executor.submit(fn, *tasks[i])
        return executor.submit(_traced_task, fn, labels[i], tasks[i])

    results: List[Any] = [_UNSET] * len(tasks)
    executor = _executor(jobs, len(tasks))
    degraded = False
    try:
        futures = [_submit(executor, i) for i in range(len(tasks))]
        for i, future in enumerate(futures):
            try:
                results[i] = future.result(timeout=timeout)
            except (BrokenProcessPool, FuturesTimeout):
                degraded = True
                break
        if degraded:
            _terminate_pool(executor)
            for i, future in enumerate(futures):
                if results[i] is _UNSET and future.done() and not future.cancelled():
                    try:
                        if future.exception(timeout=0) is None:
                            results[i] = future.result()
                    except Exception:
                        pass
            for i in range(len(tasks)):
                if results[i] is _UNSET:
                    results[i] = _run(i)
    finally:
        if not degraded:
            executor.shutdown()
    if labels is not None:
        # Unwrap the traced envelopes in task order, adopting each task's
        # spans under the caller's current span path — deterministic
        # regardless of which worker ran what, when.
        for i, envelope in enumerate(results):
            tracer.adopt(envelope["__spans__"])
            results[i] = envelope["result"]
    return results


def _ledgered_map(
    fn: Callable[..., Any],
    tasks: List[Tuple[Any, ...]],
    *,
    paths: Optional[List[Tuple[Any, ...]]],
    jobs: int,
    timeout: Optional[float],
    tracer: Optional[Any],
    labels: Optional[List[str]],
    ledger: TaskLedger,
) -> List[Any]:
    """The resumable variant of :func:`parallel_map`: journalled tasks
    are answered from the ledger, the rest execute and are journalled.

    Sequentially (``jobs=1``) each completion is flushed before the next
    task starts, so a crash loses at most the task in flight — the
    property the resume tests pin.  With a pool, completions journal as
    they are harvested in task order.
    """
    keys = [
        task_key(p)
        for p in (paths if paths is not None else [("task", i) for i in range(len(tasks))])
    ]
    todo = [i for i, key in enumerate(keys) if key not in ledger]
    results: List[Any] = [ledger.get(key) for key in keys]
    if not todo:
        return results
    if jobs <= 1 or len(todo) <= 1:
        for i in todo:
            if tracer is None:
                value = fn(*tasks[i])
            else:
                with tracer.span(labels[i]):
                    value = fn(*tasks[i])
            ledger.record(keys[i], value)
            results[i] = value
        return results
    fresh = parallel_map(
        fn,
        [tasks[i] for i in todo],
        jobs=jobs,
        timeout=timeout,
        span_labels=[labels[i] for i in todo] if labels is not None else None,
        ledger=_LEDGER_OFF,
    )
    for i, value in zip(todo, fresh):
        ledger.record(keys[i], value)
        results[i] = value
    return results


# ----------------------------------------------------------------------
# Observability merge
# ----------------------------------------------------------------------
def _metrics_registries(observer: Optional[Observer]) -> List[Any]:
    """Every :class:`Metrics` registry reachable from ``observer``."""
    from repro.observability.metrics import MetricsObserver

    obs = live(observer)
    if obs is None:
        return []
    if isinstance(obs, MetricsObserver):
        return [obs.metrics]
    if isinstance(obs, CompositeObserver):
        registries: List[Any] = []
        for child in obs.observers:
            registries.extend(_metrics_registries(child))
        return registries
    return []


def merge_worker_metrics(observer: Optional[Observer], payload: Dict[str, Any]) -> None:
    """Fold a worker's exported metrics dict (``Metrics.to_dict()``) into
    every metrics registry behind the parent's observer.  A no-op when the
    observer carries no registry."""
    for registry in _metrics_registries(observer):
        registry.merge(payload)


def _bump(observer: Optional[Observer], name: str, amount: int = 1) -> None:
    """Increment a counter on every metrics registry behind ``observer``."""
    for registry in _metrics_registries(observer):
        registry.counter(name).inc(amount)


# ----------------------------------------------------------------------
# Parallel decide
# ----------------------------------------------------------------------
def _decide_attempt_worker(
    protocol: PopulationProtocol,
    config: Multiset,
    seed: int,
    sim_kwargs: Dict[str, Any],
    attempt: int = 0,
) -> Dict[str, Any]:
    """One decide attempt, run inside a worker process.

    Collects the attempt's metrics — and its span subtree, rooted at
    ``attempt:<i>`` to mirror the sequential path — locally and returns
    them with the verdict; observation never touches the random stream, so
    the sampled run is identical to an unobserved sequential attempt with
    this seed.  The cache warm-up runs *before* the tracer is installed:
    under ``fork`` it is an attribute-read no-op, and either way the
    coordinator (which warmed the cache up front) owns the cache span.
    """
    from repro.observability.metrics import MetricsObserver

    cached_transition_table(protocol)  # fork-inherited or disk cache hit
    metrics = MetricsObserver()
    tracer = _spans.SpanTracer()
    with _spans.activate(tracer):
        with tracer.span(f"attempt:{attempt}", seed=seed):
            result = simulate(
                protocol, config, seed=seed, observer=metrics, **sim_kwargs
            )
    return {
        "verdict": result.verdict,
        "silent": result.silent,
        "interactions": result.interactions,
        "productive": result.productive,
        "deadline_exceeded": result.deadline_exceeded,
        "metrics": metrics.metrics.to_dict(),
        "spans": tracer.to_payload(),
    }


def decide_parallel(
    protocol: PopulationProtocol,
    config: Multiset,
    *,
    base: int,
    attempts: int,
    jobs: int,
    observer: Optional[Observer] = None,
    stats: Optional[Dict[str, int]] = None,
    deadline: Optional[float] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    **sim_kwargs: Any,
) -> bool:
    """Run all decide attempts concurrently; first verdict (in attempt
    order) wins and cancels the not-yet-started rest.

    Per-attempt seeds are ``derive_seed(base, attempt)`` — the exact
    seeds sequential :func:`~repro.core.simulation.decide` uses — and the
    returned verdict is the lowest-indexed attempt with one, so the
    result is identical to ``jobs=1`` for every base seed.  Attempts that
    were already running when the verdict landed are drained (their
    metrics still merge: the registry reports work actually done); pending
    ones are cancelled before they consume a core.

    Hardening (the resilience contract — same verdict, degraded speed):

    * a *crashed* worker (``BrokenProcessPool``) triggers up to
      ``max_retries`` pool rebuilds with exponential backoff
      (``backoff_base · 2^i`` plus a deterministic seed-derived jitter);
      results that survived the crash are harvested first, so only
      unfinished attempts rerun — on identical seeds, so the verdict is
      unchanged;
    * a *hung* worker (``timeout`` seconds without a result) gets its
      pool torn down — SIGTERM, no waiting — and execution degrades to
      the sequential path in-process;
    * once retries are exhausted the same sequential degradation applies,
      so a persistently broken pool yields exactly the ``jobs=1`` answer;
    * ``deadline`` bounds the whole call in wall-clock seconds; crossing
      it raises :class:`NonConvergenceError` (unless a verdict is already
      in hand, which is returned).

    ``stats``, when passed, receives ``launched`` / ``completed`` /
    ``cancelled`` / ``failed`` counts (every launched attempt lands in
    exactly one of the latter three) plus ``retries`` (pool rebuilds) and
    ``degraded`` (attempts that fell back to in-process execution).
    Matching ``pool.worker_failures`` / ``pool.retries`` /
    ``pool.degraded`` counters land on any metrics registry behind
    ``observer``.

    Raises :class:`NonConvergenceError` when no attempt stabilises, like
    the sequential path.
    """
    obs = live(observer)
    seeds = [derive_seed(base, attempt) for attempt in range(attempts)]
    # Warm the compile caches *before* the pool exists so fork-started
    # workers inherit the table instead of recompiling it per attempt.
    cached_transition_table(protocol)
    deadline_at = time.monotonic() + deadline if deadline is not None else None

    launched = attempts
    completed = cancelled = failed = retries = degraded = timed_out = 0
    seq_mode = False
    pool_alive = True
    verdict: Optional[bool] = None

    def _budget() -> Optional[float]:
        """Seconds this attempt may wait (``None`` = unbounded); raises
        once the overall deadline has passed."""
        b = timeout
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise NonConvergenceError(
                    f"protocol {protocol.name!r} did not stabilise on "
                    f"|C|={config.size}: wall-clock deadline of {deadline:g}s "
                    f"exceeded"
                )
            b = remaining if b is None else min(b, remaining)
        return b

    def _sequential_attempt(attempt: int) -> Dict[str, Any]:
        """Degraded mode: the attempt runs in-process on its own seed —
        identical verdict semantics, bounded by the remaining budget."""
        from repro.observability.metrics import MetricsObserver

        kwargs = dict(sim_kwargs)
        b = _budget()
        if b is not None:
            kwargs["deadline"] = b
        metrics = MetricsObserver()
        # Runs in the coordinator, where any span tracer is ambient: the
        # attempt span records directly, so no "spans" payload (adoption
        # would double-count it).
        with _spans.span(f"attempt:{attempt}", seed=seeds[attempt]):
            result = simulate(
                protocol, config, seed=seeds[attempt], observer=metrics, **kwargs
            )
        return {
            "verdict": result.verdict,
            "silent": result.silent,
            "interactions": result.interactions,
            "productive": result.productive,
            "deadline_exceeded": result.deadline_exceeded,
            "metrics": metrics.metrics.to_dict(),
        }

    executor = _executor(jobs, attempts)
    futures: Dict[int, Any] = {}
    payloads: Dict[int, Dict[str, Any]] = {}  # harvested ahead of their turn

    def _harvest(start: int) -> None:
        """Salvage results that finished before the pool broke so retries
        only redo genuinely unfinished attempts."""
        for b_, fut in futures.items():
            if b_ >= start and b_ not in payloads and fut.done() and not fut.cancelled():
                try:
                    if fut.exception(timeout=0) is None:
                        payloads[b_] = fut.result()
                except Exception:
                    continue

    try:
        futures = {
            a: executor.submit(
                _decide_attempt_worker, protocol, config, seeds[a], sim_kwargs, a
            )
            for a in range(attempts)
        }
        a = 0
        while a < attempts:
            if a in payloads:
                payload = payloads.pop(a)
            elif seq_mode:
                degraded += 1
                payload = _sequential_attempt(a)
            else:
                try:
                    payload = futures[a].result(timeout=_budget())
                except FuturesTimeout:
                    # Hung worker: the pool cannot be waited on safely.
                    _bump(obs, "pool.worker_failures")
                    _harvest(a)
                    _terminate_pool(executor)
                    pool_alive = False
                    seq_mode = True
                    _bump(obs, "pool.degraded")
                    continue  # rerun attempt `a` in-process
                except BrokenProcessPool:
                    _bump(obs, "pool.worker_failures")
                    _harvest(a)
                    _terminate_pool(executor)
                    pool_alive = False
                    if retries < max_retries:
                        retries += 1
                        _bump(obs, "pool.retries")
                        delay = backoff_base * (2 ** (retries - 1))
                        delay += random.Random(
                            derive_child(base, f"pool-retry-{retries}")
                        ).uniform(0.0, backoff_base)
                        if deadline_at is not None:
                            delay = min(
                                delay, max(0.0, deadline_at - time.monotonic())
                            )
                        time.sleep(delay)
                        executor = _executor(jobs, attempts - a)
                        pool_alive = True
                        for b_ in range(a, attempts):
                            if b_ not in payloads:
                                futures[b_] = executor.submit(
                                    _decide_attempt_worker,
                                    protocol,
                                    config,
                                    seeds[b_],
                                    sim_kwargs,
                                    b_,
                                )
                        continue  # retry attempt `a` on the fresh pool
                    seq_mode = True
                    _bump(obs, "pool.degraded")
                    continue
                except NonConvergenceError:
                    raise
                except Exception:
                    # The attempt itself raised (bad kwargs, protocol bug):
                    # that is the caller's exception, not a pool fault.
                    failed += 1
                    _terminate_pool(executor)
                    pool_alive = False
                    raise
            completed += 1
            if obs is not None:
                obs.on_attempt(a, seeds[a])
            merge_worker_metrics(obs, payload["metrics"])
            # Adopt the attempt's span subtree in attempt order — but only
            # for attempts the sequential path would also have run (up to
            # and including the verdict attempt).  Drained stragglers
            # below merge metrics, never spans, so the jobs=N span tree
            # structurally equals the jobs=1 tree.
            _spans.adopt(payload.get("spans"))
            if payload["verdict"] is not None:
                verdict = payload["verdict"]
                a += 1
                break
            if payload.get("deadline_exceeded"):
                timed_out += 1
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    raise NonConvergenceError(
                        f"protocol {protocol.name!r} did not stabilise on "
                        f"|C|={config.size}: wall-clock deadline exceeded "
                        f"during attempt {a + 1} of {attempts}"
                    )
            a += 1

        if verdict is not None:
            # First verdict wins: sweep-cancel everything still pending in
            # one fast pass *before* any blocking drain — waiting first
            # would let pending attempts start and dodge their cancel.
            draining = []
            for b_ in range(a, attempts):
                if b_ in payloads:
                    completed += 1
                    merge_worker_metrics(obs, payloads.pop(b_)["metrics"])
                elif seq_mode or b_ not in futures:
                    cancelled += 1
                elif futures[b_].cancel():
                    cancelled += 1
                else:
                    draining.append(futures[b_])
            # Then drain the stragglers (bounded — a hung one cannot hold
            # the verdict hostage) and merge their metrics truthfully.
            broken = False
            for fut in draining:
                if broken:
                    if fut.cancelled() or fut.cancel():
                        cancelled += 1
                    else:
                        failed += 1
                    continue
                drain_budget = timeout
                if deadline_at is not None:
                    remaining = max(0.0, deadline_at - time.monotonic())
                    drain_budget = (
                        remaining
                        if drain_budget is None
                        else min(drain_budget, remaining)
                    )
                try:
                    payload = fut.result(timeout=drain_budget)
                except BaseException:
                    # A drained attempt's failure cannot unwind a verdict.
                    failed += 1
                    _bump(obs, "pool.worker_failures")
                    _terminate_pool(executor)
                    pool_alive = False
                    broken = True
                else:
                    completed += 1
                    merge_worker_metrics(obs, payload["metrics"])
    except NonConvergenceError:
        # The deadline passed, possibly before the first wait: attempts
        # may still be running, and a waiting shutdown would block on them.
        if pool_alive:
            _terminate_pool(executor)
            pool_alive = False
        raise
    finally:
        if pool_alive:
            executor.shutdown()
        # Snapshot the coordinator's artifact-cache counters as gauges so
        # a parallel run's digest (and its provenance manifest) shows how
        # much compilation the cache absorbed.
        for registry in _metrics_registries(obs):
            for key, value in artifact_cache().stats().items():
                registry.gauge(f"cache.{key}").set(value)
        if stats is not None:
            # Attempts abandoned by an exception unwind never got a
            # disposition; they were implicitly cancelled with the pool.
            accounted = completed + cancelled + failed
            if accounted < launched:
                cancelled += launched - accounted
            stats.update(
                launched=launched,
                completed=completed,
                cancelled=cancelled,
                failed=failed,
                retries=retries,
                degraded=degraded,
            )
    if verdict is None:
        detail = f", {timed_out} timed out" if timed_out else ""
        raise NonConvergenceError(
            f"protocol {protocol.name!r} did not stabilise on |C|={config.size} "
            f"within the budget ({attempts} attempts{detail})"
        )
    return verdict
