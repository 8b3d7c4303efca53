"""Parallel execution runtime: process-pool fan-out for independent runs.

Everything above a *single* simulation in this repository is
embarrassingly parallel — ``decide`` attempts, experiment trials,
benchmark rounds are independent samples of independent random streams.
This package turns that independence into throughput without giving up
reproducibility:

* :mod:`repro.runtime.seeds` — deterministic blake2b *seed trees*: the
  seed of any task is a pure function of ``(base seed, task path)``, so
  results are identical whether tasks run serially, in any worker
  interleaving, or are re-run in isolation;
* :mod:`repro.runtime.cache` — a content-addressed artifact cache
  (in-memory + on-disk) for the expensive compile pipeline
  (program → machine → protocol) and per-protocol
  :class:`~repro.core.fastpath.TransitionTable` compilations, so workers
  never redo a compilation the parent (or a previous run) already did;
* :mod:`repro.runtime.pool` — the executors behind every fan-out: one
  ``run`` method (:class:`~repro.runtime.pool.InProcess`,
  :class:`~repro.runtime.pool.ProcessPool`, hardened against crashed and
  hung workers), :func:`~repro.runtime.pool.resolve_dispatch` to pick
  one, :func:`~repro.runtime.pool.parallel_map` for deterministic
  fan-out on it, and per-worker
  :class:`~repro.observability.metrics.Metrics` aggregation back into
  the parent registry; :func:`repro.core.simulation.decide` runs its
  attempts on the same executors.

``jobs`` semantics everywhere: ``jobs=1`` (the default) runs the tasks
in-process, one after another; ``jobs=None`` consults the ``REPRO_JOBS``
environment variable (default 1); ``jobs=0`` means "all cores".  A
single task runs in-process whatever the width.
"""

from repro.runtime.cache import (
    ArtifactCache,
    artifact_cache,
    cached_compile_program,
    cached_compile_threshold_protocol,
    cached_transition_table,
    program_fingerprint,
    protocol_fingerprint,
)
from repro.runtime.pool import (
    InProcess,
    ProcessPool,
    TaskRecord,
    merge_worker_metrics,
    parallel_map,
    resolve_dispatch,
    resolve_jobs,
)
from repro.runtime.seeds import SeedTree, derive_child, derive_seed_path

__all__ = [
    "SeedTree",
    "derive_child",
    "derive_seed_path",
    "ArtifactCache",
    "artifact_cache",
    "protocol_fingerprint",
    "program_fingerprint",
    "cached_compile_program",
    "cached_compile_threshold_protocol",
    "cached_transition_table",
    "parallel_map",
    "InProcess",
    "ProcessPool",
    "TaskRecord",
    "merge_worker_metrics",
    "resolve_jobs",
    "resolve_dispatch",
]
