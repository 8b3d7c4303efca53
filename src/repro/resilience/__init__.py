"""Resilience layer: deterministic fault injection and recovery tooling.

Public surface:

* :class:`FaultPlan` / fault records — a pure-data schedule of mid-run
  perturbations (agent corruption, resets, dropped/duplicated
  interactions, unfair scheduler windows);
* the churn kinds (:mod:`repro.resilience.churn`) — dynamic populations:
  :class:`JoinAgents` / :class:`LeaveAgents` / :class:`ChurnProcess`
  resize the population mid-run, :class:`AdversarialScheduler` plays
  worst-case enabled pairs within a fairness budget;
* :class:`FaultInjector` — a plan bound to a seed, consumed by the
  simulation drivers (``simulate(..., faults=plan)``,
  ``run_program(..., faults=plan)``);
* the view classes — the adapters faults use to touch each layer's state
  representation while preserving its invariants.

The hardened-runtime half of the resilience story (pool retries,
timeouts, graceful degradation, cache integrity) lives in
:mod:`repro.runtime`.
"""

from repro.resilience.churn import (
    AdversarialScheduler,
    ChurnProcess,
    JoinAgents,
    LeaveAgents,
    adversarial_index_pick,
    expand_churn,
)
from repro.resilience.faults import (
    CorruptAgents,
    DenseView,
    DropInteractions,
    DuplicateInteractions,
    Fault,
    FaultInjector,
    FaultPlan,
    IndexView,
    RegisterView,
    ResetAgents,
    UnfairWindow,
    resolve_injector,
)

__all__ = [
    "AdversarialScheduler",
    "ChurnProcess",
    "CorruptAgents",
    "DenseView",
    "DropInteractions",
    "DuplicateInteractions",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "IndexView",
    "JoinAgents",
    "LeaveAgents",
    "RegisterView",
    "ResetAgents",
    "UnfairWindow",
    "adversarial_index_pick",
    "expand_churn",
    "resolve_injector",
]
