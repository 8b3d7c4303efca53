"""Dynamic populations: churn fault kinds and the adversarial scheduler.

Every engine in this repository originally assumed a population of fixed
size ``n`` — the model of the paper, where ``|C|`` is conserved by every
transition.  The self-stabilisation claim of Theorem 2, however, is about
recovery from *arbitrary* transient perturbation, and the natural
strengthening studied by the dynamic-population literature (and by
size-oblivious protocols, arXiv:2408.10027) lets the adversary add and
remove agents mid-run.  This module supplies that adversary as four new
fault-plan kinds, consumed through the exact same
:class:`~repro.resilience.FaultPlan` / :class:`~repro.resilience.FaultInjector`
machinery as the population-preserving faults:

========================  ==============================================
:class:`JoinAgents`       ``agents`` new agents appear in one state
                          (given, or drawn from the injector stream)
:class:`LeaveAgents`      ``agents`` agents depart (from a given state,
                          or occupancy-weighted across the population)
:class:`ChurnProcess`     a sustained churn window: seeded arrival and
                          departure rates, expanded *deterministically*
                          into a schedule of joins/leaves at bind time
:class:`AdversarialScheduler`  a window in which the scheduler plays the
                          worst-case enabled pair, within a fairness
                          budget (one fair step in every ``fairness``)
========================  ==============================================

Determinism contract (same as the rest of the resilience layer): the
expansion of a :class:`ChurnProcess` and every in-fire random choice come
from streams derived from the injector's base seed, never from the
simulation stream — so ``(seed, plan)`` replays bit-identically, a plan
without churn kinds binds to exactly the queue it always did, and an
empty plan leaves a run bit-identical to an uninjected one.

Per-engine resize strategy (see DESIGN.md §12 for the full story):

* a faulted run on a legacy scheduler executes on its fast twin, so the
  legacy loop never sees a resize;
* the fast path changes the :class:`~repro.core.fastpath.EnabledIndex`
  counts and re-establishes the weight invariant with
  ``EnabledIndex.grow``/``shrink`` (an ``update`` of one count); then
  ``run_fast_simulation`` refreshes ``m`` from the view's ``size_delta``
  at the barrier, and the uniform loop re-derives ``T = m(m-1)`` when it
  resumes;
* the batched engine resizes only *between* batches: the next fault
  trigger is a batch barrier, and the sampler's cached
  ``lgamma``-inversion constants are re-derived via ``set_population``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple


# ----------------------------------------------------------------------
# Fault records (pure data, frozen — the FaultPlan contract)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinAgents:
    """``agents`` new agents join the population in state ``state`` (must
    be a state of the simulated system) — or, when ``state`` is ``None``,
    in a state drawn uniformly from the injector's stream.  Models fresh
    nodes booting into the protocol; joining an *input* state is the
    dynamic-population analogue of changing the input mid-run."""

    at: int
    agents: int = 1
    state: Any = None


@dataclass(frozen=True)
class LeaveAgents:
    """``agents`` agents leave the population: from ``state`` when given
    (capped at its occupancy), else one at a time with sources weighted
    by occupancy — a crash/departure fault.  The population may shrink
    below 2 (no pair is then enabled) or even to 0 (the configuration
    has no output; drivers report ``verdict=None``)."""

    at: int
    agents: int = 1
    state: Any = None


@dataclass(frozen=True)
class ChurnProcess:
    """Sustained churn over the window ``[at, at + length)``: agents
    arrive at rate ``join_rate`` and depart at rate ``leave_rate`` (both
    expected events per interaction, i.e. probabilities per step for
    small values).  Arrivals join ``state`` (or a fresh uniform draw per
    event when ``None``); departures are occupancy-weighted.

    The process is *pure data*: binding the plan expands it into a
    deterministic schedule of :class:`JoinAgents`/:class:`LeaveAgents`
    events using a dedicated stream (seed path ``("faults", "churn",
    index)``), so the expansion never shifts the draws of the other
    faults in the plan and the same ``(seed, plan)`` pair always churns
    identically.
    """

    at: int
    length: int = 10_000
    join_rate: float = 0.0
    leave_rate: float = 0.0
    state: Any = None
    agents: int = 1

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("ChurnProcess length must be positive")
        if self.join_rate < 0 or self.leave_rate < 0:
            raise ValueError("churn rates must be non-negative")


@dataclass(frozen=True)
class AdversarialScheduler:
    """For the ``length`` steps after ``at`` the scheduler plays the
    *worst-case* enabled pair instead of sampling fairly — but within a
    fairness budget: one step in every ``fairness`` is still sampled
    fairly (``fairness=0`` means none, a maximally unfair window).

    "Worst case" is convergence-directed, unlike the fixed lowest-ranked
    pick of :class:`~repro.resilience.UnfairWindow`: when the current
    output is defined, the adversary plays the enabled candidate that
    moves the accepting-agent count *away* from that consensus; when the
    output is undefined it pushes the count toward ``m/2``, keeping the
    output undefined as long as it can.  Adversarial picks are
    deterministic and consume no simulation randomness, so the window
    never shifts the downstream random stream.
    """

    at: int
    length: int = 100
    fairness: int = 4

    def __post_init__(self):
        if self.fairness < 0:
            raise ValueError("fairness budget must be non-negative")


#: kind strings for the observer events (merged into faults._FAULT_KINDS).
CHURN_FAULT_KINDS = {
    JoinAgents: "join",
    LeaveAgents: "leave",
    ChurnProcess: "churn",
    AdversarialScheduler: "adversarial",
}


# ----------------------------------------------------------------------
# ChurnProcess expansion
# ----------------------------------------------------------------------
def _arrival_steps(
    rng: random.Random, start: int, length: int, rate: float
) -> List[int]:
    """Deterministic event times in ``[start, start + length)`` for a
    Poisson-ish process of the given per-interaction rate: exponential
    inter-arrival gaps, rounded up so events land on distinct-ish integer
    steps and the count concentrates around ``rate * length``."""
    steps: List[int] = []
    if rate <= 0:
        return steps
    t = start
    while True:
        gap = rng.expovariate(rate)
        t += max(1, int(gap))
        if t >= start + length:
            return steps
        steps.append(t)


def expand_churn(fault: ChurnProcess, rng: random.Random) -> List[Any]:
    """The concrete join/leave schedule of one :class:`ChurnProcess`,
    drawn from ``rng`` (a dedicated stream — see the class docstring).
    Joins are generated first, then leaves, so the expansion is a pure
    function of the stream; the injector merges and stably sorts."""
    events: List[Any] = []
    for at in _arrival_steps(rng, fault.at, fault.length, fault.join_rate):
        events.append(JoinAgents(at=at, agents=fault.agents, state=fault.state))
    for at in _arrival_steps(rng, fault.at, fault.length, fault.leave_rate):
        events.append(LeaveAgents(at=at, agents=fault.agents))
    return events


# ----------------------------------------------------------------------
# Worst-case enabled picks (consume no randomness; deterministic)
# ----------------------------------------------------------------------
def _badness(accept: int, ad: int, m: int, out: Optional[bool]):
    """Sort key: smaller is worse (more adversarial).  ``ad`` is the
    candidate's accepting-count delta."""
    if out is True:
        return ad  # most negative first: drag the run away from all-accept
    if out is False:
        return -ad  # most positive first: drag it away from none-accept
    # Output undefined: stay undefined — minimise distance from m/2.
    return abs(2 * (accept + ad) - m)


def adversarial_index_pick(
    index, accept: int, m: int, out: Optional[bool]
) -> Tuple[int, int]:
    """The worst-case enabled ``(key, candidate)`` of a fast-path
    :class:`~repro.core.fastpath.EnabledIndex` under the current output
    category.  Scans ``sorted(active)`` (tiny compared to a step's work,
    and order-independent of insertion history) and tie-breaks by lowest
    key then candidate index, so the pick is a pure function of the
    configuration — replay-stable and hash-salt independent."""
    best: Optional[Tuple[Any, int, int]] = None
    hot = index.hot
    changing = index.changing
    for i in sorted(index.active):
        if not changing[i]:
            continue
        for j, (ch, ad, _deltas) in enumerate(hot[i]):
            if not ch:
                continue
            key = _badness(accept, ad, m, out)
            if best is None or key < best[0]:
                best = (key, i, j)
    if best is None:  # no changing candidate enabled: play any no-op
        return min(index.active), 0
    return best[1], best[2]
