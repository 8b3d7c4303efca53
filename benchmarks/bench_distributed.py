"""Distributed runtime benchmarks: loopback dispatch overhead.

The distributed coordinator's promise is that dealing work over TCP
costs almost nothing when the work itself dominates.  Headline numbers:

* ``dist.loopback.ops_per_second`` — simulation runs per second through
  one loopback worker, gated by ``bench --check`` (which compares a
  ``--suite distributed`` run only on the baseline gauges it records);
* ``dist.dispatch_overhead_ratio`` — distributed wall-clock over the
  *in-worker* compute time of the same run (each task self-times around
  the real workload), min over rounds; asserted ``<= 1.10`` in-suite.
  This is the acceptance bar for the framing/dispatch path, measured
  within one process pair so it cannot be polluted by per-process
  interpreter variance;
* ``dist.loopback_vs_local_ratio`` — the naive comparison against an
  in-process ``parallel_map(jobs=1)`` of the same batch.  Informational
  only: the interpreter workload is dict-heavy, and per-process hash
  randomisation alone moves its runtime by up to ~35% between processes
  (measured on the bench box), which swamps any real dispatch cost.
  Recorded so the comparison is visible, never gated;
* ``dist.two_workers.ops_per_second`` / ``dist.two_workers.speedup`` —
  pool-style scaling across two loopback workers.  On a single-core box
  two workers time-slice one core and the "speedup" measures scheduler
  overhead, so (like ``multi_run``) the suite records
  ``dist.skipped_reason`` instead of a vacuous number.

The batch is the same workload as ``bench_parallel_runtime`` (eight
~0.1 s interpreter runs on seed-tree seeds), so the distributed and
pooled numbers in ``BENCH_simulator.json`` are directly comparable.
"""

import os
import time
from pathlib import Path

import pytest

from bench_parallel_runtime import RUNS, RUN_STEPS, _batch_tasks, simulate_run_task

from repro.runtime.distributed import get_cluster, spawn_loopback_worker
from repro.runtime.pool import parallel_map

#: Workers must import this directory's modules to unpickle the task fn.
BENCH_DIR = str(Path(__file__).resolve().parent)

#: Timing rounds per side (min over rounds absorbs scheduler noise).
ROUNDS = 3


def timed_run_task(seed):
    """The bench workload, self-timed: lets the overhead measurement
    separate in-worker compute from everything the dispatch path adds
    (framing, pickling, scheduling, the result round-trip)."""
    start = time.perf_counter()
    result = simulate_run_task(seed)
    return (result, time.perf_counter() - start)


@pytest.fixture(scope="module")
def loopback_cluster():
    coordinator = get_cluster("127.0.0.1:0")
    procs = [
        spawn_loopback_worker(coordinator.address, extra_pythonpath=[BENCH_DIR])
    ]
    # Warm both sides before any timing: the worker's interpreter start
    # and per-process program build, and the in-process twin's memoised
    # artifacts — so the measured rounds compare steady states.
    warm = parallel_map(
        timed_run_task, _batch_tasks(), jobs=coordinator.address
    )
    assert [r for r, _ in warm] == [RUN_STEPS] * RUNS
    parallel_map(simulate_run_task, _batch_tasks(), jobs=1)
    yield coordinator, procs
    coordinator.close()
    for proc in procs:
        proc.wait(timeout=30)


def _record_side(metrics, name, times):
    best, mean = min(times), sum(times) / len(times)
    metrics.gauge(f"{name}.min_seconds").set(best)
    metrics.gauge(f"{name}.mean_seconds").set(mean)
    metrics.gauge(f"{name}.rounds").set(len(times))
    metrics.gauge(f"{name}.ops_per_second").set(RUNS / mean)


def test_dispatch_overhead_ratio(bench_metrics, loopback_cluster):
    coordinator, _ = loopback_cluster
    local_times, dist_times, overheads = [], [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        local = parallel_map(simulate_run_task, _batch_tasks(), jobs=1)
        local_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        out = parallel_map(
            timed_run_task, _batch_tasks(), jobs=coordinator.address
        )
        wall = time.perf_counter() - start
        dist_times.append(wall)
        compute = sum(inner for _, inner in out)
        overheads.append(wall / compute)

        # Bit-identical to the sequential comprehension: same seed tree,
        # same results, different hardware.
        assert [r for r, _ in out] == local == [RUN_STEPS] * RUNS

    _record_side(bench_metrics, "dist.jobs1", local_times)
    _record_side(bench_metrics, "dist.loopback", dist_times)
    bench_metrics.gauge("dist.loopback_vs_local_ratio").set(
        min(dist_times) / min(local_times)
    )

    ratio = min(overheads)
    bench_metrics.gauge("dist.dispatch_overhead_ratio").set(ratio)
    assert ratio <= 1.10, (
        f"distributed dispatch overhead {ratio:.3f}x over in-worker "
        f"compute (walls {[f'{t:.3f}' for t in dist_times]})"
    )


def test_two_worker_scaling(bench_metrics, loopback_cluster):
    coordinator, procs = loopback_cluster
    cores = os.cpu_count() or 1
    if cores < 2:
        # Same contract as multi_run: a single core cannot measure
        # scaling across workers, so record why the gauges are absent.
        bench_metrics.gauge("dist.skipped_reason").set(
            f"two_workers gauges skipped: cpu_count={cores} < 2"
        )
        return
    procs.append(
        spawn_loopback_worker(coordinator.address, extra_pythonpath=[BENCH_DIR])
    )
    deadline = time.monotonic() + 30
    while coordinator.workers_alive() < 2:
        if time.monotonic() > deadline:
            pytest.fail("second loopback worker failed to connect")
        coordinator.poll()
        time.sleep(0.05)
    parallel_map(simulate_run_task, _batch_tasks(), jobs=coordinator.address)
    start = time.perf_counter()
    results = parallel_map(
        simulate_run_task, _batch_tasks(), jobs=coordinator.address
    )
    elapsed = time.perf_counter() - start
    assert results == [RUN_STEPS] * RUNS
    bench_metrics.gauge("dist.two_workers.ops_per_second").set(RUNS / elapsed)
    one = bench_metrics.gauge("dist.loopback.min_seconds").value
    if one:
        bench_metrics.gauge("dist.two_workers.speedup").set(one / elapsed)
