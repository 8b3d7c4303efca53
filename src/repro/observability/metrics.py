"""Metrics: counters, gauges, histograms and a registry with JSON export.

The registry is deliberately tiny — a dict of named instruments — but it
is the single machine-readable currency for performance data in this
repository: the simulation drivers feed it through
:class:`MetricsObserver`, the benchmark harness writes its timings through
it (``BENCH_simulator.json``), and :func:`repro.observability.report.summarize`
renders it for humans.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.observability import events as ev
from repro.observability.observer import Observer


@dataclass
class Counter:
    """A monotonically increasing integer."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins scalar."""

    name: str
    value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


#: Bucket key for non-positive observations (below every power of two).
_NONPOS_BUCKET = -1075  # one below the smallest subnormal's exponent


def bucket_key(value: float) -> int:
    """The power-of-two bucket index of ``value``: the binary exponent
    ``e`` with ``2**(e-1) <= value < 2**e`` (``frexp``'s exponent), or
    :data:`_NONPOS_BUCKET` for values ≤ 0.  Exponent buckets need no
    preconfigured boundaries, so one scheme serves layers whose step costs
    differ by orders of magnitude — and two histograms always share bucket
    edges, which is what makes the merge lossless."""
    if value <= 0 or math.isnan(value):
        return _NONPOS_BUCKET
    if math.isinf(value):
        return 1025  # one above the largest finite exponent
    return math.frexp(value)[1]


@dataclass
class Histogram:
    """Streaming summary statistics of a series, plus power-of-two buckets.

    ``count``/``total``/``min``/``max``/``mean`` are exact; ``buckets``
    maps binary-exponent keys (see :func:`bucket_key`) to observation
    counts, giving an order-of-magnitude distribution that merges
    losslessly across processes.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        key = bucket_key(value)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            # JSON keys must be strings; merge() converts them back.
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class Metrics:
    """A registry of named instruments."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instrument access (created on first use) -----------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    @contextmanager
    def timer(self, name: str):
        """Time a block with ``perf_counter`` into ``<name>`` (seconds)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name).observe(time.perf_counter() - start)

    # -- merge ----------------------------------------------------------
    def merge(self, payload: Dict[str, Any]) -> None:
        """Fold an exported registry (the :meth:`to_dict` of another
        ``Metrics``, e.g. one shipped back from a pool worker) into this
        one: counters add, histograms combine their summary statistics
        *and* their bucket contents (exponent buckets share edges by
        construction, so the fold is lossless), gauges are last-write-wins
        (matching their in-process semantics).
        """
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in payload.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, data in payload.get("histograms", {}).items():
            histogram = self.histogram(name)
            histogram.count += data.get("count", 0)
            histogram.total += data.get("total", 0.0)
            for bound, better in (("min", min), ("max", max)):
                incoming = data.get(bound)
                if incoming is None:
                    continue
                current = getattr(histogram, bound)
                setattr(
                    histogram,
                    bound,
                    incoming if current is None else better(current, incoming),
                )
            for key, count in (data.get("buckets") or {}).items():
                key = int(key)
                histogram.buckets[key] = histogram.buckets.get(key, 0) + count

    # -- export ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }

    def write_json(self, path, extra: Optional[Dict[str, Any]] = None) -> Path:
        path = Path(path)
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)


def transition_label(transition: Any) -> str:
    """Stable short label for a protocol transition."""
    return f"{transition.q},{transition.r}->{transition.q2},{transition.r2}"


@dataclass
class _RunClock:
    start: float = field(default_factory=time.perf_counter)


class MetricsObserver(Observer):
    """Aggregate the event stream into a :class:`Metrics` registry.

    Counter/histogram vocabulary (all per-registry totals, across every
    run observed by this instance):

    * ``interactions`` / ``productive`` — protocol scheduler steps and the
      subset that changed the configuration;
    * ``steps`` — program/machine primitive steps; ``statement[<kind>]``
      and ``instruction[<kind>]`` break them down by opcode;
    * ``transition[<q,r->q2,r2>]`` — per-transition firing counts;
    * ``detect_true`` / ``detect_false`` / ``detect_empty`` — detect
      outcomes (``detect_empty`` counts the provably-false case x = 0);
    * ``restarts``, ``output_flips``, ``silence_checks``, ``snapshots``,
      ``hangs``, ``attempts``, ``runs``;
    * histograms ``wall_seconds``, ``parallel_time``, ``run_interactions``,
      ``run_steps``, ``quiet_steps`` and ``stage.<name>.seconds``.
    """

    def __init__(
        self,
        metrics: Optional[Metrics] = None,
        *,
        per_transition: bool = True,
    ):
        self.metrics = metrics if metrics is not None else Metrics()
        self.per_transition = per_transition
        self._clocks: Dict[str, _RunClock] = {}

    # -- run lifecycle --------------------------------------------------
    def on_run_start(self, layer: str, **data: Any) -> None:
        self.metrics.counter("runs").inc()
        self._clocks[layer] = _RunClock()
        population = data.get("population")
        if population is not None:
            self.metrics.gauge("population").set(population)

    def on_run_end(self, step: int, layer: str, **data: Any) -> None:
        clock = self._clocks.pop(layer, None)
        if clock is not None:
            self.metrics.histogram("wall_seconds").observe(
                time.perf_counter() - clock.start
            )
        if layer == ev.LAYER_PROTOCOL:
            self.metrics.histogram("run_interactions").observe(step)
            population = data.get("population")
            if population:
                self.metrics.histogram("parallel_time").observe(step / population)
        else:
            self.metrics.histogram("run_steps").observe(step)
        quiet = data.get("quiet_steps")
        if quiet is not None:
            self.metrics.histogram("quiet_steps").observe(quiet)

    # -- protocol layer -------------------------------------------------
    def on_interaction(self, step, transition, pair, productive) -> None:
        self.metrics.counter("interactions").inc()
        if transition is None:
            self.metrics.counter("null_steps").inc()
            return
        if productive:
            self.metrics.counter("productive").inc()
        if self.per_transition:
            self.metrics.counter(f"transition[{transition_label(transition)}]").inc()

    def on_batch(self, step, *, kind, count, transition=None, productive=0) -> None:
        self.metrics.counter("interactions").inc(count)
        self.metrics.counter("batches").inc()
        if transition is None:
            self.metrics.counter("null_steps").inc(count)
            return
        if productive:
            self.metrics.counter("productive").inc(productive)
        if self.per_transition:
            self.metrics.counter(
                f"transition[{transition_label(transition)}]"
            ).inc(count)

    def on_scheduler_select(self, step, *, scheduler, null, candidates=0, weight=0):
        self.metrics.counter("scheduler_selects").inc()
        if null:
            self.metrics.counter("scheduler_null").inc()
        if candidates:
            self.metrics.histogram("enabled_transitions").observe(candidates)

    def on_silence_check(self, step, silent) -> None:
        self.metrics.counter("silence_checks").inc()

    # -- program / machine layers --------------------------------------
    #: Statements/instructions that mutate registers or the output flag —
    #: the program/machine analogue of a productive interaction.
    PRODUCTIVE_OPS = frozenset({"move", "swap", "set_output", "assign"})

    def on_statement(self, step, kind, detail=None) -> None:
        self.metrics.counter("steps").inc()
        self.metrics.counter(f"statement[{kind}]").inc()
        if kind in self.PRODUCTIVE_OPS:
            self.metrics.counter("productive").inc()

    def on_instruction(self, step, ip, kind) -> None:
        self.metrics.counter("steps").inc()
        self.metrics.counter(f"instruction[{kind}]").inc()
        if kind in self.PRODUCTIVE_OPS:
            self.metrics.counter("productive").inc()

    def on_detect(self, step, register, nonzero, answer, layer) -> None:
        if not nonzero:
            self.metrics.counter("detect_empty").inc()
        elif answer:
            self.metrics.counter("detect_true").inc()
        else:
            self.metrics.counter("detect_false").inc()

    def on_restart(self, step, count, layer, registers=None) -> None:
        self.metrics.counter("restarts").inc()

    def on_hang(self, step, layer, register=None) -> None:
        self.metrics.counter("hangs").inc()

    def on_fault(self, step, kind, layer, **data) -> None:
        self.metrics.counter("faults").inc()
        self.metrics.counter(f"fault[{kind}]").inc()

    # -- shared ---------------------------------------------------------
    def on_output_flip(self, step, output, layer) -> None:
        self.metrics.counter("output_flips").inc()

    def on_snapshot(self, step, snapshot, layer) -> None:
        self.metrics.counter("snapshots").inc()

    def on_attempt(self, attempt, seed) -> None:
        self.metrics.counter("attempts").inc()

    # -- pipeline -------------------------------------------------------
    def on_stage(self, name, seconds, **data) -> None:
        self.metrics.histogram(f"stage.{name}.seconds").observe(seconds)
        for key, value in data.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.metrics.gauge(f"stage.{name}.{key}").set(value)
