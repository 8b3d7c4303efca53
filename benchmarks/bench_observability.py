"""Benchmarks for the telemetry stack: span-tracing overhead and worker
span adoption.

Not a paper artefact — these gate the observability layer's promise that
instrumentation is free when off and cheap when on.  Gauges land in the
shared bench JSON (``span_tracer.*``, ``span_adopt.*``) next to the
simulator numbers."""

import time

from conftest import record_benchmark

from repro.baselines import binary_threshold_protocol
from repro.core import Multiset, simulate
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
