"""Executors for independent tasks, and the fan-out built on them.

Every fan-out in this repository — :func:`parallel_map` over an
experiment grid, :func:`repro.core.simulation.decide` over its seeded
attempts — hands a task list to one *executor* method::

    run(fn, tasks, *, labels, trace=False, early_stop=None,
        deadline=None, lease_timeout=None) -> [TaskRecord]

and reads the outcome off the returned records, in task order.  Two
executors implement it, both under the same determinism contract (a
task's result depends only on its own arguments, never on where or
when it ran):

* :class:`InProcess` — the tasks run one after another in the caller's
  process and context: no pickling, the caller's tracer and observer
  see everything.  This is ``jobs=1``, the reference path;
* :class:`ProcessPool` — forked workers on this host, hardened against
  crashed and hung workers (below).

:func:`resolve_dispatch` picks one from a ``jobs`` argument (see
:func:`resolve_jobs` for ``None``/``0``).  A single task always runs
in-process, whatever the width: a pool could not overlap it with
anything.

A task that runs in a worker comes back in one envelope, built by
:func:`run_task`: ``{"result", "spans"}`` or ``{"error",
"error_text"}``.  With ``trace`` the task runs under its own span
tracer and the caller adopts its spans in task order, so ``jobs=N``
span trees equal ``jobs=1`` trees.

Time bounds mean the same on both executors.  ``deadline`` bounds the
run: in-process, no task starts after it; in the pool, a task still
running :data:`OVERRUN_GRACE` seconds past it is abandoned.  Abandoned
and early-stopped tasks come back ``CANCELLED``.  ``lease_timeout`` is a
task's own budget: the pool treats a task that overruns it by the grace
as hung.

The pool degrades rather than fails: a crashed worker
(``BrokenProcessPool``) costs up to :data:`MAX_RETRIES` pool rebuilds
with jittered backoff, after the results that survived the crash are
salvaged; a hung worker, or a crash once the retries are spent, sends
the unfinished tasks to the in-process executor — same results, just
slower.  ``pool.worker_failures`` / ``pool.retries`` /
``pool.degraded`` count these on the pool's :attr:`ProcessPool.metrics`.

Workers start by :data:`START_METHOD`, and pin their own ``REPRO_JOBS``
to 1, so a parallelised driver calling another parallelisable function
never fans out a pool inside a pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol
from repro.core.simulation import simulate
from repro.observability import spans as _spans
from repro.observability.metrics import Metrics, MetricsObserver
from repro.observability.observer import CompositeObserver, Observer, live
from repro.runtime.cache import artifact_cache, cached_transition_table
from repro.runtime.seeds import derive_seed_path

#: Seconds a task may run past its budget — its ``lease_timeout``, or the
#: run's ``deadline`` — before an executor gives up on it.  A task that
#: honours its budget returns within it; only one that ignores it is hung.
OVERRUN_GRACE = 2.0
#: Pool rebuilds after crashed workers, and the base of their backoff
#: (``BACKOFF_BASE · 2^i`` plus a seeded jitter below it).
MAX_RETRIES = 2
BACKOFF_BASE = 0.05
#: ``fork`` where the platform offers it (workers inherit the parent's
#: warmed :mod:`~repro.runtime.cache` for free), else the platform default.
START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else multiprocessing.get_all_start_methods()[0]
)


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


def resolve_dispatch(jobs: Optional[int], tasks: int) -> Any:
    """The executor that runs ``tasks`` tasks for a ``jobs`` argument: a
    process pool when :func:`resolve_jobs` gives more than one worker,
    the in-process executor otherwise and for any run of a single task.
    """
    if tasks <= 1:
        return InProcess()
    count = resolve_jobs(jobs)
    return ProcessPool(count) if count > 1 else InProcess()


# ----------------------------------------------------------------------
# Task records and envelopes
# ----------------------------------------------------------------------
PENDING, DONE, CANCELLED = "pending", "done", "cancelled"


class RemoteTaskError(RuntimeError):
    """A task raised in a worker with an exception that could not travel
    back; carries the worker's traceback text."""


class TaskRecord:
    """One task of a run and its lifecycle.  A finished run leaves every
    record ``DONE`` — ``envelope`` holds the result or the error, and
    ``source`` says where it ran (``"pool"`` or ``"local"``) — or
    ``CANCELLED``."""

    __slots__ = ("index", "args", "label", "state", "envelope", "source")

    def __init__(self, index: int, args: Tuple, label: str):
        self.index = index
        self.args = args
        self.label = label
        self.state = PENDING
        self.envelope: Optional[Dict[str, Any]] = None
        self.source: Optional[str] = None

    def settle(self, envelope: Dict[str, Any], source: str) -> None:
        """Mark the task done with ``envelope``, which ran at ``source``."""
        self.state, self.envelope, self.source = DONE, envelope, source


def make_records(
    tasks: Sequence[Sequence[Any]], labels: Sequence[str]
) -> List[TaskRecord]:
    return [
        TaskRecord(index, tuple(task), label)
        for index, (task, label) in enumerate(zip(tasks, labels))
    ]


def run_task(
    fn: Callable[..., Any], args: Tuple, label: str = "task", trace: bool = False
) -> Dict[str, Any]:
    """Run ``fn(*args)`` in a worker and wrap the outcome in the result
    envelope.  With ``trace`` the task runs inside a ``label`` span of
    its own tracer, whose spans travel in the envelope.  Module-level so
    pools can pickle it; an exception that cannot be pickled travels as
    its ``repr``."""
    try:
        if not trace:
            return {"result": fn(*args), "spans": None}
        tracer = _spans.SpanTracer()
        with _spans.activate(tracer), tracer.span(label):
            result = fn(*args)
        return {"result": result, "spans": tracer.to_payload()}
    except Exception as exc:
        error: Any = exc
        try:
            pickle.dumps(exc)
        except Exception:
            error = repr(exc)
        return {"error": error, "error_text": traceback.format_exc()}


def task_error(envelope: Dict[str, Any]) -> BaseException:
    """The exception a failed task's envelope stands for."""
    error = envelope["error"]
    if isinstance(error, BaseException):
        return error
    return RemoteTaskError(str(envelope.get("error_text") or error))


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def run_here(
    fn: Callable[..., Any],
    todo: List[TaskRecord],
    records: List[TaskRecord],
    *,
    trace: bool,
    early_stop: Optional[Callable[[List[TaskRecord]], bool]],
    deadline_at: Optional[float],
) -> None:
    """Run ``todo`` in order in the caller's process and context.  Once
    ``early_stop(records)`` holds or ``deadline_at`` has passed, the rest
    are cancelled; an exception from ``fn`` propagates at once."""
    tracer = _spans.current() if trace else None
    for position, record in enumerate(todo):
        if (early_stop is not None and early_stop(records)) or (
            deadline_at is not None and time.monotonic() >= deadline_at
        ):
            for rest in todo[position:]:
                rest.state = CANCELLED
            return
        if tracer is None:
            result = fn(*record.args)
        else:
            with tracer.span(record.label):
                result = fn(*record.args)
        record.settle({"result": result, "spans": None}, "local")


def _deadline_at(deadline: Optional[float]) -> Optional[float]:
    return time.monotonic() + deadline if deadline is not None else None


class InProcess:
    """The in-process executor (``jobs=1``): see :func:`run_here`."""

    def __init__(self) -> None:
        self.metrics = Metrics()

    def run(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Sequence[Any]],
        *,
        labels: Sequence[str],
        trace: bool = False,
        early_stop: Optional[Callable[[List[TaskRecord]], bool]] = None,
        deadline: Optional[float] = None,
        lease_timeout: Optional[float] = None,
    ) -> List[TaskRecord]:
        records = make_records(tasks, labels)
        run_here(
            fn,
            records,
            records,
            trace=trace,
            early_stop=early_stop,
            deadline_at=_deadline_at(deadline),
        )
        return records


def _worker_init() -> None:
    # A worker is a leaf of the fan-out tree: anything it calls that
    # consults REPRO_JOBS must run sequentially rather than nest pools.
    os.environ["REPRO_JOBS"] = "1"


def _executor(jobs: int, tasks: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=max(1, min(jobs, tasks)),
        mp_context=multiprocessing.get_context(START_METHOD),
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


class ProcessPool:
    """The process-pool executor: up to ``jobs`` workers on this host."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.metrics = Metrics()

    def run(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Sequence[Any]],
        *,
        labels: Sequence[str],
        trace: bool = False,
        early_stop: Optional[Callable[[List[TaskRecord]], bool]] = None,
        deadline: Optional[float] = None,
        lease_timeout: Optional[float] = None,
    ) -> List[TaskRecord]:
        """Submit every task at once, then harvest the results in task
        order (see the module docstring for the hardening)."""
        records = make_records(tasks, labels)
        deadline_at = _deadline_at(deadline)
        give_up_at = deadline_at + OVERRUN_GRACE if deadline_at is not None else None

        def wait() -> Optional[float]:
            """How long to wait for one task: its lease, then the run's."""
            bound = lease_timeout + OVERRUN_GRACE if lease_timeout is not None else None
            if give_up_at is not None:
                left = max(0.0, give_up_at - time.monotonic())
                bound = left if bound is None else min(bound, left)
            return bound

        def unfinished() -> List[TaskRecord]:
            return [r for r in records if r.state == PENDING]

        def submit() -> Dict[int, Any]:
            return {
                r.index: executor.submit(run_task, fn, r.args, r.label, trace)
                for r in unfinished()
            }

        def salvage() -> None:
            """Keep what finished before the pool broke, so only truly
            unfinished tasks run again."""
            for r in unfinished():
                future = futures[r.index]
                if future.done() and not future.cancelled():
                    if future.exception(timeout=0) is None:
                        r.settle(future.result(), "pool")

        executor = _executor(self.jobs, len(records))
        retries = 0
        try:
            futures = submit()
            position = 0
            while position < len(records):
                record = records[position]
                if record.state == PENDING:
                    try:
                        envelope = futures[record.index].result(timeout=wait())
                    except (FuturesTimeout, BrokenProcessPool) as exc:
                        salvage()
                        _terminate_pool(executor)
                        if give_up_at is not None and time.monotonic() >= give_up_at:
                            for r in unfinished():
                                r.state = CANCELLED
                            return records
                        self.metrics.counter("pool.worker_failures").inc()
                        if isinstance(exc, BrokenProcessPool) and retries < MAX_RETRIES:
                            retries += 1
                            self.metrics.counter("pool.retries").inc()
                            delay = BACKOFF_BASE * 2 ** (retries - 1) + random.Random(
                                derive_seed_path(0, "pool-retry", retries)
                            ).uniform(0.0, BACKOFF_BASE)
                            if deadline_at is not None:
                                delay = min(delay, max(0.0, deadline_at - time.monotonic()))
                            time.sleep(delay)
                            executor = _executor(self.jobs, len(unfinished()))
                            futures = submit()
                            continue
                        # Hung, or crashed past the retries: the rest runs here.
                        self.metrics.counter("pool.degraded").inc()
                        run_here(
                            fn,
                            unfinished(),
                            records,
                            trace=trace,
                            early_stop=early_stop,
                            deadline_at=deadline_at,
                        )
                        return records
                    record.settle(envelope, "pool")
                position += 1
                if early_stop is not None and early_stop(records):
                    self._stop(unfinished(), futures, executor, wait)
                    return records
        except BaseException:
            _terminate_pool(executor)
            raise
        finally:
            executor.shutdown()  # a no-op once the pool was terminated
        return records

    def _stop(self, rest, futures, executor, wait) -> None:
        """Early stop: cancel every pending task in one fast pass — a
        blocking wait first would let them start and dodge the cancel —
        then drain the running ones under a bounded wait, so their
        results still count."""
        running = []
        for record in rest:
            if futures[record.index].cancel():
                record.state = CANCELLED
            else:
                running.append(record)
        for record in running:
            try:
                record.settle(futures[record.index].result(timeout=wait()), "pool")
            except (FuturesTimeout, BrokenProcessPool):
                # A straggler that hangs or crashes cannot unwind the
                # run: it and everything still running are cut loose.
                self.metrics.counter("pool.worker_failures").inc()
                _terminate_pool(executor)
                for r in running:
                    if r.state != DONE:
                        r.state = CANCELLED
                return


# ----------------------------------------------------------------------
# parallel_map
# ----------------------------------------------------------------------
def parallel_map(
    fn: Callable[..., Any],
    tasks: Iterable[Sequence[Any]],
    *,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    span_labels: Optional[Sequence[str]] = None,
) -> List[Any]:
    """``[fn(*t) for t in tasks]``, on the executor ``jobs`` names
    (:func:`resolve_dispatch`).

    Results come back in task order whatever the executor; the first
    failed task's exception is raised.  ``fn`` and every task argument
    and result must be picklable unless the tasks run in-process.
    ``timeout`` is each task's lease (see the module docstring).

    When a span tracer is active, every task runs under its own span —
    ``span_labels[i]`` or ``task:<i>`` — and spans made elsewhere are
    adopted in task order, so the merged span tree is identical for
    every executor.
    """
    tasks = [tuple(t) for t in tasks]
    labels = (
        [str(l) for l in span_labels]
        if span_labels is not None
        else [f"task:{i}" for i in range(len(tasks))]
    )
    if len(labels) != len(tasks):
        raise ValueError("span_labels must match tasks in length")
    records = resolve_dispatch(jobs, len(tasks)).run(
        fn,
        tasks,
        labels=labels,
        trace=_spans.current() is not None,
        lease_timeout=timeout,
    )
    results = []
    for record in records:
        if "error" in record.envelope:
            raise task_error(record.envelope)
        _spans.adopt(record.envelope["spans"])
        results.append(record.envelope["result"])
    return results


# ----------------------------------------------------------------------
# Observability merge
# ----------------------------------------------------------------------
def _metrics_registries(observer: Optional[Observer]) -> List[Any]:
    """Every :class:`Metrics` registry reachable from ``observer``."""
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


def record_cache_gauges(observer: Optional[Observer]) -> None:
    """Snapshot this process's artifact-cache counters as ``cache.*``
    gauges behind ``observer``, so a fanned-out run's digest (and its
    provenance manifest) shows how much compilation the cache absorbed."""
    for registry in _metrics_registries(observer):
        for key, value in artifact_cache().stats().items():
            registry.gauge(f"cache.{key}").set(value)


# ----------------------------------------------------------------------
# One decide attempt
# ----------------------------------------------------------------------
def _decide_attempt_worker(
    protocol: PopulationProtocol,
    config: Multiset,
    seed: int,
    sim_kwargs: Dict[str, Any],
    attempt: int = 0,
    timeout: Optional[float] = None,
    until: Optional[float] = None,
    observer: Optional[Observer] = None,
) -> Dict[str, Any]:
    """One attempt of :func:`repro.core.simulation.decide`.

    Its budget is ``timeout`` or the time left before ``until`` (the
    call's ``time.time()`` deadline, readable in any process), whichever
    ends first; ``past_deadline`` in the result says the call's deadline
    had passed when the attempt ended.

    In the caller's process ``observer`` is given: the observer hears
    ``on_attempt`` and then every event, and ``attempt:<i>`` opens in the
    caller's tracer.  Elsewhere the attempt collects its own metrics and
    span subtree and returns them with the verdict.  Observation never
    touches the random stream, so the run is the same either way.
    """
    budget = timeout
    if until is not None:
        left = max(until - time.time(), 1e-6)  # simulate refuses a spent budget
        budget = left if budget is None else min(budget, left)
    if observer is None:
        cached_transition_table(protocol)  # fork-inherited or disk cache hit
        metrics = MetricsObserver()
        tracer = _spans.SpanTracer()
        with _spans.activate(tracer), tracer.span(f"attempt:{attempt}", seed=seed):
            result = simulate(
                protocol, config, seed=seed, observer=metrics, deadline=budget, **sim_kwargs
            )
        shipped = {"metrics": metrics.metrics.to_dict(), "spans": tracer.to_payload()}
    else:
        obs = live(observer)
        if obs is not None:
            obs.on_attempt(attempt, seed)
        with _spans.span(f"attempt:{attempt}", seed=seed):
            result = simulate(
                protocol, config, seed=seed, observer=obs, deadline=budget, **sim_kwargs
            )
        shipped = {}
    return {
        "verdict": result.verdict,
        "silent": result.silent,
        "interactions": result.interactions,
        "productive": result.productive,
        "deadline_exceeded": result.deadline_exceeded,
        "past_deadline": until is not None and time.time() >= until,
        **shipped,
    }


def decide_settled(records: List[TaskRecord]) -> bool:
    """Early stop for ``decide``: the lowest-indexed attempt that decides
    the call — with a verdict, an error or the deadline — is in."""
    for record in records:
        if record.state != DONE:
            return False
        envelope = record.envelope
        if "error" in envelope:
            return True
        payload = envelope["result"]
        if payload["verdict"] is not None or payload["past_deadline"]:
            return True
    return False
