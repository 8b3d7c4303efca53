"""Profiling hooks: cheap engine-level counters behind the observer seam.

:class:`ProfilingObserver` turns the event stream the fastpath engine
(:mod:`repro.core.fastpath`) already emits — batch events for steps
reported in bulk, run summaries enriched with index statistics — into
``sim.*`` counters and histograms:

* ``sim.null_skipped`` — null steps skipped wholesale by the geometric
  skip-ahead (never individually simulated);
* ``sim.collapsed`` / ``sim.batches`` and the ``sim.batch_size``
  histogram — the steps reported through batch events (null skips,
  batched chunks and collisions) and how many each event carried;
* ``sim.steps_per_second`` histogram — per-run interaction throughput,
  wall-clocked from ``run_start`` to ``run_end``;
* ``sim.enabled_keys`` / ``sim.index_churn`` histograms — the enabled
  set's final size and how often the :class:`EnabledIndex` membership
  changed through :meth:`~EnabledIndex.update` (the initial build,
  fault repair and fault-window steps);
* ``churn.*`` — dynamic-population accounting (joins/leaves fired,
  agents added/removed, final population per churned run) fed by the
  churn fault kinds of :mod:`repro.resilience.churn`.

Everything here rides the *existing* zero-overhead observer protocol: the
engine's hot loops already skip all observer work when ``live(observer)``
is ``None``, and the per-step costs with an observer attached are one
method call — so the ``null_observer.overhead_ratio`` gate in
``BENCH_simulator.json`` is untouched by construction.  Attach it
standalone, or alongside a recorder via ``CompositeObserver``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.observability import events as ev
from repro.observability.metrics import Metrics
from repro.observability.observer import Observer


class ProfilingObserver(Observer):
    """Aggregate engine-level performance signals into ``sim.*`` metrics."""

    def __init__(self, metrics: Optional[Metrics] = None):
        self.metrics = metrics if metrics is not None else Metrics()
        self._run_start: Dict[str, float] = {}
        self._run_start_step: Dict[str, int] = {}

    # -- run lifecycle --------------------------------------------------
    def on_run_start(self, layer: str, **data: Any) -> None:
        self._run_start[layer] = time.perf_counter()
        self._run_start_step[layer] = 0

    def on_run_end(self, step: int, layer: str, **data: Any) -> None:
        started = self._run_start.pop(layer, None)
        self._run_start_step.pop(layer, None)
        if started is not None and step:
            elapsed = time.perf_counter() - started
            if elapsed > 0:
                self.metrics.histogram("sim.steps_per_second").observe(
                    step / elapsed
                )
        enabled_keys = data.get("enabled_keys")
        if enabled_keys is not None:
            self.metrics.histogram("sim.enabled_keys").observe(enabled_keys)
        index_churn = data.get("index_churn")
        if index_churn is not None:
            self.metrics.histogram("sim.index_churn").observe(index_churn)
            self.metrics.counter("sim.index_churn_total").inc(index_churn)
        engine = data.get("engine")
        if engine:
            self.metrics.counter(f"sim.engine[{engine}]").inc()
        batches = data.get("batches")
        if batches is not None:
            self.metrics.histogram("sim.batch.batches_per_run").observe(batches)
        collisions = data.get("collisions")
        if collisions is not None:
            self.metrics.counter("sim.batch.collisions").inc(collisions)
        joined = data.get("joined")
        if joined:
            self.metrics.counter("churn.joined").inc(joined)
        departed = data.get("departed")
        if departed:
            self.metrics.counter("churn.departed").inc(departed)
        if joined or departed:
            population = data.get("population")
            if population is not None:
                self.metrics.histogram("churn.final_population").observe(
                    population
                )

    # -- engine events --------------------------------------------------
    def on_batch(self, step, *, kind, count, transition=None, productive=0) -> None:
        self.metrics.counter("sim.batches").inc()
        self.metrics.counter(f"sim.batch.{kind}").inc()
        self.metrics.counter("sim.collapsed").inc(count)
        self.metrics.histogram("sim.batch_size").observe(count)
        if transition is None:
            # Geometric skip-ahead / batched null chunks: null steps that
            # were accounted without being individually simulated.
            self.metrics.counter("sim.null_skipped").inc(count)

    def on_interaction(self, step, transition, pair, productive) -> None:
        self.metrics.counter("sim.interactions").inc()

    def on_scheduler_select(self, step, *, scheduler, null, candidates=0, weight=0):
        if candidates:
            self.metrics.histogram("sim.enabled_candidates").observe(candidates)

    def on_fault(self, step, kind, layer, **data) -> None:
        self.metrics.counter("sim.faults").inc()
        if kind == "join":
            self.metrics.counter("churn.joins").inc()
            self.metrics.counter("churn.agents_joined").inc(
                data.get("agents", 1)
            )
        elif kind == "leave":
            self.metrics.counter("churn.leaves").inc()
            self.metrics.counter("churn.agents_departed").inc(
                data.get("agents", 1)
            )
        elif kind == "adversarial":
            self.metrics.counter("churn.adversarial_windows").inc()

    # -- export ---------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Headline numbers as a plain dict (for quick printing/tests)."""
        counters = self.metrics.counters
        histograms = self.metrics.histograms
        out: Dict[str, Any] = {
            name: counter.value for name, counter in sorted(counters.items())
        }
        sps = histograms.get("sim.steps_per_second")
        if sps is not None and sps.count:
            out["sim.steps_per_second.mean"] = sps.mean
        batch = histograms.get("sim.batch_size")
        if batch is not None and batch.count:
            out["sim.batch_size.mean"] = batch.mean
        return out

    # Keep hot-path cost at exactly one dispatched call: the generic
    # ``record`` sink would double-dispatch, so leave it as the base
    # no-op for kinds this profiler does not aggregate.
    def record(self, kind: str, step: Optional[int], **data: Any) -> None:
        if kind == ev.ATTEMPT:
            self.metrics.counter("sim.attempts").inc()
