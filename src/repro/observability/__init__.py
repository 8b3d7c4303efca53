"""repro.observability — structured tracing, metrics and profiling hooks.

The instrumentation layer for the whole simulator stack:

* :mod:`~repro.observability.events` — the structured event vocabulary
  (interaction steps, detect outcomes, restarts, output flips, silence
  checks, instruction dispatch, Lipton level progression, pipeline
  stages) and their JSONL encoding;
* :mod:`~repro.observability.observer` — the :class:`Observer` hook
  protocol with a zero-overhead null default, plus
  :class:`CompositeObserver` for fan-out;
* :mod:`~repro.observability.trace` — :class:`TraceRecorder`: capture
  events, sample configuration history every k steps, export JSONL;
* :mod:`~repro.observability.metrics` — :class:`Metrics` registry
  (counters / gauges / histograms / timers) and :class:`MetricsObserver`;
* :mod:`~repro.observability.report` — :func:`summarize`, the
  human-readable run digest;
* :mod:`~repro.observability.spans` — hierarchical :class:`Span` /
  :class:`SpanTracer` timing with cross-process merge and an ambient
  (contextvar) tracer every layer can reach without plumbing;
* :mod:`~repro.observability.profile` — :class:`ProfilingObserver`,
  engine-level ``sim.*`` throughput/churn metrics;
* :mod:`~repro.observability.export` — per-run provenance manifests
  (:class:`RunManifest`);
* :mod:`~repro.observability.runners` — observed reference workloads
  behind ``python -m repro trace`` / ``python -m repro stats``
  (imported lazily: ``from repro.observability import runners``).

Every execution driver (``simulate``/``decide``, the schedulers, the
program and machine interpreters, and ``compile_program``) accepts an
``observer=`` keyword; ``None`` (the default) keeps the hot loops
branch-only.
"""

from repro.observability.events import (
    ALL_KINDS,
    HOT_KINDS,
    TraceEvent,
    events_to_jsonl,
    lipton_level,
)
from repro.observability.export import (
    RunManifest,
    build_manifest,
    fault_plan_digest,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    MetricsObserver,
    transition_label,
)
from repro.observability.observer import (
    NULL_OBSERVER,
    CompositeObserver,
    NullObserver,
    Observer,
    live,
)
from repro.observability.profile import ProfilingObserver
from repro.observability.report import summarize
from repro.observability.spans import (
    Span,
    SpanTracer,
    activate,
    current,
    span,
)
from repro.observability.trace import TraceRecorder

__all__ = [
    "ALL_KINDS",
    "HOT_KINDS",
    "TraceEvent",
    "events_to_jsonl",
    "lipton_level",
    "RunManifest",
    "build_manifest",
    "fault_plan_digest",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "MetricsObserver",
    "transition_label",
    "NULL_OBSERVER",
    "CompositeObserver",
    "NullObserver",
    "Observer",
    "live",
    "ProfilingObserver",
    "summarize",
    "Span",
    "SpanTracer",
    "activate",
    "current",
    "span",
    "TraceRecorder",
]
