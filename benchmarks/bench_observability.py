"""Benchmarks for the telemetry stack: span-tracing overhead, Prometheus
rendering throughput, and worker span adoption.

Not a paper artefact — these gate the observability layer's promise that
instrumentation is free when off and cheap when on.  Gauges land in the
shared bench JSON (``span_tracer.*``, ``prometheus_render.*``,
``span_adopt.*``) next to the simulator numbers."""

import time

from conftest import record_benchmark

from repro.baselines import binary_threshold_protocol
from repro.core import Multiset, simulate
from repro.observability.export import metrics_to_prometheus
from repro.observability.metrics import Metrics
from repro.observability.spans import SpanTracer, activate


def test_span_tracing_overhead(benchmark, bench_metrics):
    """Acceptance gate: an *active* tracer costs one span per simulate
    call — amortised to nothing over a long run — and the no-tracer path
    is a single ContextVar read, so both ratios must stay ≈1."""
    pp = binary_threshold_protocol(13)
    config = Multiset({"p0": 40})
    kwargs = dict(seed=1, max_interactions=10_000, convergence_window=10**9)

    def timed(tracer, rounds=7):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            if tracer is None:
                simulate(pp, config, **kwargs)
            else:
                with activate(tracer):
                    simulate(pp, config, **kwargs)
            best = min(best, time.perf_counter() - start)
        return best

    timed(None, rounds=1)  # warm caches before measuring
    bare = timed(None)
    traced = timed(SpanTracer())
    ratio = traced / bare
    bench_metrics.gauge("span_tracer.bare_seconds").set(bare)
    bench_metrics.gauge("span_tracer.traced_seconds").set(traced)
    bench_metrics.gauge("span_tracer.overhead_ratio").set(ratio)
    # One span per 10k-interaction run; generous noise headroom on the
    # ≤5% budget, mirroring the null-observer gate.
    assert ratio < 1.15, f"span tracing overhead {ratio:.3f}x"

    interactions = benchmark(
        lambda: simulate(pp, config, **kwargs).interactions
    )
    record_benchmark(bench_metrics, "span_tracer", benchmark, units=interactions)
    assert interactions > 500


def _populated_registry(families: int = 50) -> Metrics:
    metrics = Metrics()
    for i in range(families):
        metrics.counter(f"transition[t{i}]").inc(i)
        metrics.gauge(f"gauge{i}").set(i * 0.5)
        hist = metrics.histogram(f"hist{i}.seconds")
        for value in (0.001 * (i + 1), 0.1, 2.0):
            hist.observe(value)
    return metrics


def test_prometheus_render_throughput(benchmark, bench_metrics):
    metrics = _populated_registry()
    text = benchmark(metrics_to_prometheus, metrics)
    record_benchmark(
        bench_metrics, "prometheus_render", benchmark, units=len(text.splitlines())
    )
    assert "repro_transition_total" in text


def test_span_adoption_throughput(benchmark, bench_metrics):
    """Adopting a 100-span worker payload, as ``decide`` does once per
    attempt that ran in a pool worker."""
    worker = SpanTracer()
    with worker.span("attempt:0"):
        for i in range(99):
            with worker.span(f"step:{i % 10}"):
                pass
    payload = worker.to_payload()

    def adopt():
        parent = SpanTracer()
        with parent.span("decide"):
            parent.adopt(payload)
        return len(parent)

    spans = benchmark(adopt)
    record_benchmark(bench_metrics, "span_adopt", benchmark, units=spans)
    assert spans == 101
