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
* ``fastpath.n1e6`` / ``fastpath.n1e3`` — the per-step fast uniform
  engine on the identical workload, the same-n references;
* ``batched.speedup_vs_fast`` — batched over fast throughput at
  ``n = 10^6``, and ``batched.crossover.smalln_ratio`` the same ratio at
  ``n = 10^3``, each from the best of three runs per side.  The gate
  asserts the claim ``engine="auto"`` relies on: batched wins at 10^6
  and fast wins at 10^3, on either side of ``auto_crossover()``.  (A
  fixed 50× bound at 10^6 stood here while the per-step engine repaired
  its index by walking every key of a changed state; its pair-map
  repair made that engine 30–40× faster, and the ratio now reads about
  29–33× on a 2-vCPU VM.)  Batching stops paying at small ``n``
  because batch length scales with ``sqrt(n)``.

The batched engine uses the numpy backend when available (CI installs
it; the pure fallback is pinned separately by the no-numpy test job).
"""

import pytest

from conftest import once, record_benchmark

from repro.core import Multiset, numpy_available, simulate
from repro.core.fastpath import FastUniformScheduler, get_table

#: Far beyond any budget below: benches measure throughput, not verdicts.
_NO_CONVERGE = 10**18


@pytest.fixture(scope="session")
def warm_pipeline(lipton1_pipeline):
    """The Theorem 1 pipeline warmed before the first timed gauge: the
    transition table compiled, numpy imported (the batched engine imports
    it on first use) and one short batched and one short fast run made,
    which build the rule keys the runs reach (the table builds a rule
    key's records on first use).  Whichever test ran first would
    otherwise absorb all of that into its throughput gauge."""
    get_table(lipton1_pipeline.protocol)
    numpy_available()
    _run(lipton1_pipeline, 10**4, 2_000, engine="batched")
    _run(lipton1_pipeline, 10**3, 2_000, scheduler=FastUniformScheduler())
    return lipton1_pipeline


def _initial(pipeline, n: int) -> Multiset:
    state = next(iter(pipeline.protocol.input_states))
    return Multiset({state: n})


#: Budgets of the four same-n runs the ``engine="auto"`` claim compares.
_BUDGET = {
    "batched.n1e6": 4_000_000,
    "fastpath.n1e6": 20_000,
    "batched.n1e3": 200_000,
    "fastpath.n1e3": 200_000,
}


def _measure(benchmark, bench_metrics, pipeline, name: str, n: int, **engine):
    """Three timed runs of one same-n reference, recorded as ``name``."""
    benchmark.pedantic(
        _run, args=(pipeline, n, _BUDGET[name]), kwargs=engine, rounds=3, iterations=1
    )
    record_benchmark(bench_metrics, name, benchmark, units=_BUDGET[name])


def _best(bench_metrics, name: str):
    """Interactions per second of the fastest of ``name``'s three runs."""
    seconds = bench_metrics.gauge(f"{name}.min_seconds").value
    return _BUDGET[name] / seconds if seconds else None


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
    _measure(
        benchmark, bench_metrics, warm_pipeline, "batched.n1e6", 10**6, engine="batched"
    )


def test_batched_throughput_n1e8(benchmark, bench_metrics, warm_pipeline):
    # The scale criterion: an n = 10^8 run completes in seconds.  Batch
    # length grows ~ sqrt(n), so larger populations run *faster* per
    # interaction — 20M interactions take about 0.11 s on a 2-vCPU VM.
    budget = 20_000_000
    once(benchmark, _run, warm_pipeline, 10**8, budget, engine="batched")
    record_benchmark(bench_metrics, "batched.n1e8", benchmark, units=budget)


def test_fastpath_reference_n1e6(benchmark, bench_metrics, warm_pipeline):
    # The same workload under the per-step fast *uniform* engine — the
    # apples-to-apples reference (identical uniform-pair semantics).
    _measure(
        benchmark, bench_metrics, warm_pipeline, "fastpath.n1e6", 10**6,
        scheduler=FastUniformScheduler(),
    )


def test_batched_crossover_small_n(benchmark, bench_metrics, warm_pipeline):
    """The small-n regime where batching stops paying: batch length
    ~ sqrt(n), so at n = 10^3 each batch amortises only ~25 interactions."""
    _measure(
        benchmark, bench_metrics, warm_pipeline, "batched.n1e3", 10**3, engine="batched"
    )


def test_fastpath_reference_n1e3(benchmark, bench_metrics, warm_pipeline):
    _measure(
        benchmark, bench_metrics, warm_pipeline, "fastpath.n1e3", 10**3,
        scheduler=FastUniformScheduler(),
    )


def test_batched_speedup_vs_fast(bench_metrics):
    """``engine="auto"`` picks the faster engine on each side of its
    crossover: batched beats fast uniform at n = 10^6, and fast uniform
    beats batched at n = 10^3 (same n, best of three runs per side)."""
    best = {name: _best(bench_metrics, name) for name in _BUDGET}
    if None in best.values():  # --benchmark-disable
        return
    speedup = best["batched.n1e6"] / best["fastpath.n1e6"]
    small = best["batched.n1e3"] / best["fastpath.n1e3"]
    bench_metrics.gauge("batched.speedup_vs_fast").set(speedup)
    bench_metrics.gauge("batched.crossover.smalln_ratio").set(small)
    assert speedup > 1, (
        f"batched engine only {speedup:.2f}x the per-step fast path at n=1e6"
    )
    assert small < 1, (
        f"batched engine {small:.2f}x the per-step fast path at n=1e3"
    )
