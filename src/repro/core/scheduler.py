"""Schedulers: how interacting pairs are picked during a simulation.

The paper's probabilistic execution model picks two agents uniformly at
random at every step.  Runs produced this way are fair with probability 1,
which makes random simulation the natural executable counterpart of the
paper's fair-run semantics.

Two schedulers are provided:

* :class:`UniformPairScheduler` — the textbook model.  Every (ordered) pair
  of distinct agents is equally likely; if the sampled pair has no matching
  transition the step is *null*.  Null steps are reported so callers can
  convert interaction counts into parallel time (# interactions / m).
* :class:`EnabledTransitionScheduler` — samples only among *enabled,
  non-no-op* transitions, weighted by the number of agent pairs matching
  each one.  This is the uniform scheduler conditioned on the step being
  productive, so it visits the same runs (it only skips null steps) but is
  far faster when most encounters are null.  Functional tests use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol, Transition
from repro.observability.observer import Observer


@dataclass
class SchedulerStep:
    """The outcome of one scheduling decision.

    ``transition`` is ``None`` for a null step (the sampled pair had no
    applicable transition, or the population has fewer than two agents).
    """

    transition: Optional[Transition]
    pair: Optional[Tuple[object, object]] = None


def ordered_pair_weight(config: Multiset, q: object, r: object) -> int:
    """Number of ordered pairs of distinct agents in states ``(q, r)``."""
    if q == r:
        count = config[q]
        return count * (count - 1)
    return config[q] * config[r]


class UniformPairScheduler:
    """Pick two distinct agents uniformly at random (the paper's model)."""

    def __init__(self, tie_break: str = "uniform"):
        if tie_break not in ("uniform", "first"):
            raise ValueError("tie_break must be 'uniform' or 'first'")
        self.tie_break = tie_break

    def select(
        self,
        protocol: PopulationProtocol,
        config: Multiset,
        rng: random.Random,
        observer: Optional[Observer] = None,
        step: Optional[int] = None,
    ) -> SchedulerStep:
        if config.size < 2:
            return SchedulerStep(None)
        # Sorted support: frozenset iteration order depends on the process
        # hash salt, which would make seeded runs irreproducible across
        # interpreter invocations.
        support = sorted(config.support(), key=repr)
        # Sample the initiator's state proportionally to its count, then the
        # responder's state proportionally among the remaining m-1 agents.
        weights = [config[q] for q in support]
        q = rng.choices(support, weights=weights)[0]
        responder_weights = [
            config[r] - 1 if r == q else config[r] for r in support
        ]
        r = rng.choices(support, weights=responder_weights)[0]
        candidates = protocol.transitions_from(q, r)
        if observer is not None:
            observer.on_scheduler_select(
                step,
                scheduler="uniform",
                null=not candidates,
                candidates=len(candidates),
            )
        if not candidates:
            return SchedulerStep(None, (q, r))
        if len(candidates) == 1 or self.tie_break == "first":
            return SchedulerStep(candidates[0], (q, r))
        return SchedulerStep(rng.choice(candidates), (q, r))


class EnabledTransitionScheduler:
    """Sample directly among enabled non-no-op transitions.

    Equivalent to the uniform scheduler conditioned on productive steps;
    used to accelerate functional tests and experiments.
    """

    def select(
        self,
        protocol: PopulationProtocol,
        config: Multiset,
        rng: random.Random,
        observer: Optional[Observer] = None,
        step: Optional[int] = None,
    ) -> SchedulerStep:
        if config.size < 2:
            return SchedulerStep(None)
        # Sorted for cross-process reproducibility (see UniformPairScheduler).
        support = sorted(config.support(), key=repr)
        candidates: List[Transition] = []
        weights: List[int] = []
        for q in support:
            for r in support:
                weight = ordered_pair_weight(config, q, r)
                if weight <= 0:
                    continue
                for t in protocol.productive_transitions_from(q, r):
                    candidates.append(t)
                    weights.append(weight)
        if observer is not None:
            observer.on_scheduler_select(
                step,
                scheduler="enabled",
                null=not candidates,
                candidates=len(candidates),
                weight=sum(weights),
            )
        if not candidates:
            return SchedulerStep(None)
        choice = rng.choices(range(len(candidates)), weights=weights)[0]
        t = candidates[choice]
        return SchedulerStep(t, (t.q, t.r))
