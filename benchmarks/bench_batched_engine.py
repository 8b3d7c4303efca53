"""Throughput benchmarks for the batched multinomial engine.

All runs drive the Theorem 1 threshold protocol (the paper's
double-exponential construction at level 1, compiled once per session)
from its all-agents-in-one-input-state initial configuration — the shape
the batched engine exists for: a reachable state set that stays tiny
relative to ``n``.  Runs burn a fixed interaction budget (the
convergence window is set beyond reach) so the gauges are pure
throughput:

* ``batched.n1e4/n1e6/n1e8.ops_per_second`` — interactions per second at
  ``n = 10^4 / 10^6 / 10^8``, gated by ``bench --check``;
* ``fastpath.n1e6.ops_per_second`` — the per-step fast uniform engine on
  the identical workload (the denominator of the headline);
* ``batched.speedup_vs_fast`` — the headline ratio at ``n = 10^6``,
  asserted ≥ 50×.  It read ≈ 450× while the per-step engine repaired its
  index by walking every key of a changed state; against today's
  pair-map repair it reads 28–33× on a 2-vCPU VM, so the assertion
  fails until the bound is decided (ROADMAP's first open item);
* ``batched.crossover.smalln_ratio`` — the same ratio at ``n = 10^3``,
  *not* asserted: it documents where batching stops paying (batch
  length scales with ``sqrt(n)``, so small populations amortise little
  and the per-step engines can win).

The batched engine uses the numpy backend when available (CI installs
it; the pure fallback is pinned separately by the no-numpy test job).
"""

import pytest

from conftest import once, record_benchmark

from repro.core import Multiset, simulate
from repro.core.fastpath import FastUniformScheduler, get_table

#: Far beyond any budget below: benches measure throughput, not verdicts.
_NO_CONVERGE = 10**18


@pytest.fixture(scope="session")
def warm_pipeline(lipton1_pipeline):
    """The Theorem 1 pipeline with its transition table already built:
    `get_table` spends ~2.3s (2-vCPU VM) compiling the 430k-transition
    table once per process, and whichever test ran first would otherwise
    absorb that into its throughput gauge."""
    get_table(lipton1_pipeline.protocol)
    return lipton1_pipeline


def _initial(pipeline, n: int) -> Multiset:
    state = next(iter(pipeline.protocol.input_states))
    return Multiset({state: n})


def _run(pipeline, n: int, budget: int, *, engine=None, scheduler=None, seed=1):
    result = simulate(
        pipeline.protocol,
        _initial(pipeline, n),
        seed=seed,
        engine=engine,
        scheduler=scheduler,
        max_interactions=budget,
        convergence_window=_NO_CONVERGE,
    )
    assert result.interactions == budget
    return result


def test_batched_throughput_n1e4(benchmark, bench_metrics, warm_pipeline):
    # Small-n batches amortise by the multiplicity of repeated pairs,
    # which only builds up as the run concentrates — keep the budget
    # modest so the gate stays fast.
    budget = 100_000
    once(benchmark, _run, warm_pipeline, 10**4, budget, engine="batched")
    record_benchmark(bench_metrics, "batched.n1e4", benchmark, units=budget)


def test_batched_throughput_n1e6(benchmark, bench_metrics, warm_pipeline):
    budget = 4_000_000
    once(benchmark, _run, warm_pipeline, 10**6, budget, engine="batched")
    record_benchmark(bench_metrics, "batched.n1e6", benchmark, units=budget)


def test_batched_throughput_n1e8(benchmark, bench_metrics, warm_pipeline):
    # The scale criterion: an n = 10^8 run completes in seconds.  Batch
    # length grows ~ sqrt(n), so larger populations run *faster* per
    # interaction — 20M interactions take ~0.6s on a 2-vCPU VM.
    budget = 20_000_000
    once(benchmark, _run, warm_pipeline, 10**8, budget, engine="batched")
    record_benchmark(bench_metrics, "batched.n1e8", benchmark, units=budget)


def test_fastpath_reference_n1e6(benchmark, bench_metrics, warm_pipeline):
    # The same workload under the per-step fast *uniform* engine — the
    # apples-to-apples reference (identical uniform-pair semantics).
    budget = 20_000
    once(
        benchmark,
        _run,
        warm_pipeline,
        10**6,
        budget,
        scheduler=FastUniformScheduler(),
    )
    record_benchmark(bench_metrics, "fastpath.n1e6", benchmark, units=budget)


def test_batched_speedup_vs_fast(bench_metrics):
    """The headline gauge: batched vs per-step throughput at n = 10^6."""
    fast = bench_metrics.gauge("fastpath.n1e6.ops_per_second").value
    batched = bench_metrics.gauge("batched.n1e6.ops_per_second").value
    if not (fast and batched):  # --benchmark-disable
        return
    speedup = batched / fast
    bench_metrics.gauge("batched.speedup_vs_fast").set(speedup)
    assert speedup >= 50, (
        f"batched engine only {speedup:.1f}x faster than the per-step "
        f"fast path at n=1e6 (target: 50x)"
    )


def test_batched_crossover_small_n(benchmark, bench_metrics, warm_pipeline):
    """Document (never assert) the small-n regime where batching stops
    paying: batch length ~ sqrt(n), so at n = 10^3 each batch amortises
    only ~25 interactions."""
    budget = 200_000
    once(benchmark, _run, warm_pipeline, 10**3, budget, engine="batched")
    record_benchmark(bench_metrics, "batched.n1e3", benchmark, units=budget)
    fast = bench_metrics.gauge("fastpath.n1e6.ops_per_second").value
    small = bench_metrics.gauge("batched.n1e3.ops_per_second").value
    if fast and small:
        bench_metrics.gauge("batched.crossover.smalln_ratio").set(small / fast)
