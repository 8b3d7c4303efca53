"""Deterministic fault injection for simulated populations.

Self-stabilisation (Theorem 2 / Definition 7) promises recovery from
*transient* faults: an adversary may corrupt the configuration mid-run,
and a fair continuation still stabilises to the right output.  The
existing robustness harness (:mod:`repro.analysis.robustness`) only
exercises adversarial *initial* configurations; this module supplies the
missing half — scheduled mid-run perturbations — as a first-class,
reproducible part of the simulator.

Two design commitments shape the API:

* **Determinism.**  A :class:`FaultPlan` is pure data (frozen fault
  records with explicit trigger steps).  Binding a plan to a base seed
  yields a :class:`FaultInjector` whose randomness comes from its *own*
  stream, derived via :func:`repro.runtime.seeds.derive_seed_path` under
  the label ``"faults"``.  The injector therefore never touches the
  simulation's random stream: the same ``(seed, plan)`` pair replays
  bit-identically, and an *empty* plan leaves a seeded run bit-identical
  to an uninjected one.
* **Layer independence.**  Faults mutate the simulated system through a
  small *view* protocol (``states`` / ``count`` / ``move`` / ``add`` /
  ``remove``) with three implementations: :class:`IndexView` for the
  fast path (which repairs the :class:`~repro.core.fastpath.EnabledIndex`
  and accumulates the accepting-count delta so the driver's O(Δ) output
  tracking stays exact), :class:`DenseView` for the batched engine's
  barriers, and :class:`RegisterView` for program-level register
  corruption.  The injector itself is layer-agnostic.

Every fault kind is either a *barrier* event that changes counts at a
known step (corrupt, reset, join, leave) or arms a bounded *per-step
window* (drop and duplicate tokens, unfair and adversarial steps).  A
protocol-level run executes on the fast path whatever scheduler it was
given (:func:`repro.core.simulate` routes a faulted legacy or batched run
to its fast twin, except that population-only plans stay batched):
the uninjected loops run between barriers, and only the window steps
take a slower per-step path.

Fault taxonomy — the population-preserving kinds live here, the
dynamic-population kinds in :mod:`repro.resilience.churn` (same plan and
injector machinery; a :class:`~repro.resilience.churn.ChurnProcess` is
expanded into concrete join/leave events at bind time from a dedicated
seed stream):

========================  ==============================================
:class:`CorruptAgents`    move ``agents`` agents to random *other* states
:class:`ResetAgents`      move ``agents`` agents onto one target state
:class:`DropInteractions` silently discard the next ``count`` scheduled
                          interactions (they consume steps, change nothing)
:class:`DuplicateInteractions`  re-apply the next ``count`` productive
                          interactions a second time (if still enabled)
:class:`UnfairWindow`     for ``length`` steps the scheduler is
                          adversarial: deterministically pick the
                          lowest-ranked enabled transition instead of
                          sampling fairly
``churn.JoinAgents``      ``agents`` new agents appear in one state
``churn.LeaveAgents``     ``agents`` agents depart the population
``churn.ChurnProcess``    seeded sustained arrival/departure process
``churn.AdversarialScheduler``  worst-case enabled picks within a
                          fairness budget
========================  ==============================================

A fault with trigger step ``at`` fires after the ``at``-th interaction
(program faults: after the ``at``-th primitive step) and before the next
one; drivers check ``injector.next_at`` at the top of their loops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.observability import spans as _spans
from repro.observability.events import LAYER_PROTOCOL
from repro.resilience.churn import (
    CHURN_FAULT_KINDS,
    AdversarialScheduler,
    ChurnProcess,
    JoinAgents,
    LeaveAgents,
    expand_churn,
)

_INFINITY = float("inf")


# ----------------------------------------------------------------------
# Fault records (pure data, frozen, orderable by trigger step)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorruptAgents:
    """Move ``agents`` agents from their current states to uniformly
    random *different* states (sources weighted by occupancy) — the
    generic transient corruption of the self-stabilisation literature."""

    at: int
    agents: int = 1


@dataclass(frozen=True)
class ResetAgents:
    """Move ``agents`` agents onto one target state: ``state`` when
    given (it must exist in the simulated system), else a state drawn
    from the injector's stream.  Models a batch of agents rebooting into
    a fixed (possibly wrong) state."""

    at: int
    agents: int = 1
    state: Any = None


@dataclass(frozen=True)
class DropInteractions:
    """The next ``count`` scheduled interactions are lost: the scheduler
    picks them and the step counter advances, but the configuration does
    not change (message loss)."""

    at: int
    count: int = 1


@dataclass(frozen=True)
class DuplicateInteractions:
    """The next ``count`` productive interactions are applied *twice*
    (when still enabled after the first application) — a re-delivery
    fault.  The duplicate application counts as productive work but not
    as a scheduler step."""

    at: int
    count: int = 1


@dataclass(frozen=True)
class UnfairWindow:
    """For the ``length`` steps after ``at`` the scheduler abandons fair
    sampling and deterministically plays the lowest-ranked enabled
    transition — a bounded violation of the fairness assumption every
    convergence argument leans on."""

    at: int
    length: int = 100


Fault = Union[
    CorruptAgents,
    ResetAgents,
    DropInteractions,
    DuplicateInteractions,
    UnfairWindow,
    JoinAgents,
    LeaveAgents,
    ChurnProcess,
    AdversarialScheduler,
]

_FAULT_KINDS = {
    CorruptAgents: "corrupt",
    ResetAgents: "reset",
    DropInteractions: "drop_scheduled",
    DuplicateInteractions: "duplicate_scheduled",
    UnfairWindow: "unfair",
    **CHURN_FAULT_KINDS,
}


class FaultPlan:
    """An immutable, ordered schedule of faults.

    Plans are pure data: binding one to a seed (:meth:`bind`) produces
    the stateful :class:`FaultInjector` a driver consumes.  One plan may
    be bound many times — each binding is independent and deterministic.
    """

    __slots__ = ("faults",)

    def __init__(self, faults: Sequence[Fault] = ()):
        for fault in faults:
            if type(fault) not in _FAULT_KINDS:
                raise TypeError(f"not a fault record: {fault!r}")
            if fault.at < 0:
                raise ValueError(f"fault trigger step must be >= 0: {fault!r}")
        # Stable sort: faults sharing a trigger step fire in plan order.
        self.faults: Tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: f.at)
        )

    @classmethod
    def periodic_corruption(
        cls, *, start: int, period: int, count: int, agents: int = 1
    ) -> "FaultPlan":
        """``count`` :class:`CorruptAgents` faults of ``agents`` agents
        each, at ``start, start+period, ...`` — the standard recovering-
        under-repeated-hits workload."""
        if period <= 0:
            raise ValueError("period must be positive")
        return cls(
            [CorruptAgents(at=start + i * period, agents=agents) for i in range(count)]
        )

    def bind(self, seed: int) -> "FaultInjector":
        """A fresh injector for this plan, with its own random stream
        derived from ``seed`` (label ``"faults"``, so the stream is
        independent of every simulation/attempt stream)."""
        return FaultInjector(self, seed)

    def is_empty(self) -> bool:
        return not self.faults

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.faults)!r})"


# ----------------------------------------------------------------------
# Views: how faults touch each layer's state representation
# ----------------------------------------------------------------------
class IndexView:
    """Corruption view over a fast-path :class:`EnabledIndex`.

    Mutates the flat count array and repairs the index via
    ``fix_state`` after every move, so the weight/active/total invariant
    holds at all times.  ``accept_delta`` accumulates the net change in
    the number of accepting agents; the fast driver folds it into its
    O(Δ) output tracking at the barrier instead of rescanning the
    configuration.
    """

    __slots__ = ("index", "states", "accept_delta", "size_delta")

    def __init__(self, index):
        self.index = index
        self.states: Tuple[Any, ...] = index.table.states
        self.accept_delta = 0
        self.size_delta = 0

    def count(self, state) -> int:
        return self.index.cnt[self.index.table.sid[state]]

    def move(self, src, dst, k: int = 1) -> None:
        index = self.index
        sid = index.table.sid
        a, b = sid[src], sid[dst]
        index.cnt[a] -= k
        index.cnt[b] += k
        index.fix_state(a)
        index.fix_state(b)
        accepting = index.table.accepting
        self.accept_delta += k * (int(accepting[b]) - int(accepting[a]))

    def add(self, state, k: int = 1) -> None:
        index = self.index
        s = index.table.sid[state]
        index.grow(s, k)
        self.accept_delta += k * int(index.table.accepting[s])
        self.size_delta += k

    def remove(self, state, k: int = 1) -> None:
        index = self.index
        s = index.table.sid[state]
        index.shrink(s, k)
        self.accept_delta -= k * int(index.table.accepting[s])
        self.size_delta -= k


class RegisterView:
    """Corruption view over a program interpreter's register dict."""

    __slots__ = ("states", "_registers", "accept_delta", "size_delta")

    def __init__(self, registers: Dict[str, int]):
        self.states: Tuple[str, ...] = tuple(sorted(registers))
        self._registers = registers
        self.accept_delta = 0
        self.size_delta = 0

    def count(self, state) -> int:
        return self._registers.get(state, 0)

    def move(self, src, dst, k: int = 1) -> None:
        self._registers[src] -= k
        self._registers[dst] = self._registers.get(dst, 0) + k

    def add(self, state, k: int = 1) -> None:
        self._registers[state] = self._registers.get(state, 0) + k
        self.size_delta += k

    def remove(self, state, k: int = 1) -> None:
        self._registers[state] -= k
        self.size_delta -= k


class DenseView:
    """Corruption view over the batched engine's ``DenseConfig``.

    The batched engine only fires faults at batch barriers, so the view
    mutates the dense count array directly (firing the multiset change
    hooks via ``inc``/``dec`` keeps any attached accepting-count watcher
    exact) and accumulates ``accept_delta``/``size_delta`` for the
    driver's between-batch bookkeeping.
    """

    __slots__ = ("states", "_dense", "_accepting", "accept_delta", "size_delta")

    def __init__(self, dense, accepting):
        self.states: Tuple[Any, ...] = dense.states
        self._dense = dense
        self._accepting = accepting
        self.accept_delta = 0
        self.size_delta = 0

    def count(self, state) -> int:
        return self._dense[state]

    def move(self, src, dst, k: int = 1) -> None:
        self._dense.dec(src, k)
        self._dense.inc(dst, k)
        sid = self._dense.sid
        self.accept_delta += k * (
            int(self._accepting[sid[dst]]) - int(self._accepting[sid[src]])
        )

    def add(self, state, k: int = 1) -> None:
        self._dense.inc(state, k)
        self.accept_delta += k * int(self._accepting[self._dense.sid[state]])
        self.size_delta += k

    def remove(self, state, k: int = 1) -> None:
        self._dense.dec(state, k)
        self.accept_delta -= k * int(self._accepting[self._dense.sid[state]])
        self.size_delta -= k


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Stateful executor of one bound :class:`FaultPlan`.

    Driver contract (the fast path, the batched engine's barriers and
    the program interpreter follow it):

    * once the layer's step counter has reached :attr:`next_at`, call
      :meth:`fire` with a view of the current state before the next
      step — this applies every due corruption/reset/join/leave and arms
      the drop/duplicate/unfair/adversarial effects.  Until then no
      fault can act, so a driver may run its uninjected loop up to
      ``next_at``;
    * while :meth:`window_open` holds for the upcoming step, take it one
      step at a time: play the deterministic pick inside an unfair
      window, the worst-case pick inside an adversarial one (unless
      :meth:`take_adversarial` yields a fair step), consume one drop
      token via :meth:`take_drop` after selecting an interaction (a
      ``True`` return means: count the step, skip the application), and
      one duplicate token via :meth:`take_duplicate` after *applying* a
      productive interaction that is still enabled.

    :attr:`next_at` is ``inf`` once the plan is exhausted.
    """

    def __init__(self, plan: FaultPlan, seed: int):
        # Late import: runtime.seeds imports core.simulation; keeping the
        # dependency out of module scope lets core modules import this
        # one (or vice versa) in any order.
        from repro.runtime.seeds import derive_seed_path

        self.plan = plan
        self.seed = seed
        self.rng = random.Random(derive_seed_path(seed, "faults"))
        # ChurnProcess records expand into concrete join/leave events
        # here, each process from its own stream (path "faults"/"churn"/
        # <plan index>) — so plans without churn bind to exactly the
        # queue they always did, with identical self.rng draws.
        queue: List[Fault] = []
        for i, fault in enumerate(plan.faults):
            if isinstance(fault, ChurnProcess):
                churn_rng = random.Random(
                    derive_seed_path(seed, "faults", "churn", i)
                )
                queue.extend(expand_churn(fault, churn_rng))
            else:
                queue.append(fault)
        queue.sort(key=lambda f: f.at)  # stable: ties keep plan order
        self._queue: Tuple[Fault, ...] = tuple(queue)
        self._pos = 0
        self.fired = 0
        self.drop_left = 0
        self.duplicate_left = 0
        self.unfair_until = -1  # inclusive: steps <= this are adversarial
        self.adv_until = -1  # inclusive: adversarial-scheduler window
        self.adv_fairness = 0
        self._adv_tick = 0
        self.joined = 0
        self.departed = 0
        self.next_at: float = (
            self._queue[0].at if self._queue else _INFINITY
        )

    # -- scheduling ------------------------------------------------------
    def window_open(self, step: int) -> bool:
        """Whether step number ``step`` needs per-step fault handling: a
        drop or duplicate token is armed, or the step falls inside an
        unfair or adversarial window (windows cover the ``length`` steps
        after their trigger).  Only :meth:`fire` opens a window."""
        return bool(
            self.drop_left
            or self.duplicate_left
            or step <= self.unfair_until
            or step <= self.adv_until
        )

    def take_drop(self) -> bool:
        if self.drop_left > 0:
            self.drop_left -= 1
            return True
        return False

    def take_duplicate(self) -> bool:
        if self.duplicate_left > 0:
            self.duplicate_left -= 1
            return True
        return False

    def adversarial_active(self, step: int) -> bool:
        """Whether step ``step`` falls inside an armed worst-case-pick
        window (see :class:`~repro.resilience.churn.AdversarialScheduler`)."""
        return step <= self.adv_until

    def take_adversarial(self) -> bool:
        """Consume one step of an active adversarial window.  ``True``
        means: play the worst-case pick.  ``False`` is the fairness
        budget — every ``fairness``-th step stays fairly sampled (never,
        when ``fairness`` is 0)."""
        self._adv_tick += 1
        if self.adv_fairness > 0 and self._adv_tick % self.adv_fairness == 0:
            return False
        return True

    # -- firing ----------------------------------------------------------
    def fire(self, step: int, view, obs=None, layer: str = LAYER_PROTOCOL) -> None:
        """Apply every fault whose trigger step is ≤ ``step``.

        ``view`` is one of the view classes above; ``obs`` (a live
        observer or ``None``) receives one ``fault`` event per applied
        fault.  Updates :attr:`next_at` to the next pending trigger.
        """
        queue = self._queue
        while self._pos < len(queue) and queue[self._pos].at <= step:
            fault = queue[self._pos]
            self._pos += 1
            self.fired += 1
            kind = _FAULT_KINDS[type(fault)]
            data: Dict[str, Any] = {"at": fault.at}
            if isinstance(fault, CorruptAgents):
                kind = "corrupt"
                data["moves"] = self._corrupt(view, fault.agents)
            elif isinstance(fault, ResetAgents):
                kind = "reset"
                target, moved = self._reset(view, fault.agents, fault.state)
                data["state"] = repr(target)
                data["moves"] = moved
            elif isinstance(fault, DropInteractions):
                kind = "drop_scheduled"
                self.drop_left += fault.count
                data["count"] = fault.count
            elif isinstance(fault, DuplicateInteractions):
                kind = "duplicate_scheduled"
                self.duplicate_left += fault.count
                data["count"] = fault.count
            elif isinstance(fault, JoinAgents):
                kind = "join"
                target, joined = self._join(view, fault.agents, fault.state)
                data["state"] = repr(target)
                data["agents"] = joined
            elif isinstance(fault, LeaveAgents):
                kind = "leave"
                departed = self._leave(view, fault.agents, fault.state)
                data["agents"] = departed
            elif isinstance(fault, AdversarialScheduler):
                kind = "adversarial"
                until = step + fault.length
                if until > self.adv_until:
                    self.adv_until = until
                self.adv_fairness = fault.fairness
                data["length"] = fault.length
                data["fairness"] = fault.fairness
            else:  # UnfairWindow
                kind = "unfair"
                until = step + fault.length
                if until > self.unfair_until:
                    self.unfair_until = until
                data["length"] = fault.length
            if obs is not None:
                obs.on_fault(step, kind, layer, **data)
            # Instant span so injected faults show up in the span tree
            # (no-op unless a tracer is active in this process).
            _spans.mark(f"fault:{kind}", step=step, at=fault.at)
        self.next_at = queue[self._pos].at if self._pos < len(queue) else _INFINITY

    # -- corruption mechanics -------------------------------------------
    def _occupied(self, view, exclude=None) -> Tuple[List[Any], List[int]]:
        states, weights = [], []
        for state in view.states:
            if exclude is not None and state == exclude:
                continue
            count = view.count(state)
            if count > 0:
                states.append(state)
                weights.append(count)
        return states, weights

    def _corrupt(self, view, agents: int) -> List[Tuple[str, str]]:
        """Move ``agents`` units, one at a time: source weighted by
        occupancy, destination uniform over the *other* states.  Returns
        the applied ``(src, dst)`` moves (repr'd, for the trace)."""
        moves: List[Tuple[str, str]] = []
        if len(view.states) < 2:
            return moves  # nowhere to move to: corruption degenerates
        for _ in range(agents):
            occupied, weights = self._occupied(view)
            if not occupied:
                break
            src = self.rng.choices(occupied, weights=weights)[0]
            others = [s for s in view.states if s != src]
            dst = self.rng.choice(others)
            view.move(src, dst, 1)
            moves.append((repr(src), repr(dst)))
        return moves

    def _reset(self, view, agents: int, state) -> Tuple[Any, int]:
        """Move ``agents`` units onto one target state; returns the
        target and how many actually moved."""
        if state is not None:
            if state not in view.states:
                raise ValueError(
                    f"ResetAgents target {state!r} is not a state of the "
                    f"simulated system"
                )
            target = state
        else:
            target = self.rng.choice(list(view.states))
        moved = 0
        for _ in range(agents):
            occupied, weights = self._occupied(view, exclude=target)
            if not occupied:
                break
            src = self.rng.choices(occupied, weights=weights)[0]
            view.move(src, target, 1)
            moved += 1
        return target, moved

    # -- churn mechanics -------------------------------------------------
    def _join(self, view, agents: int, state) -> Tuple[Any, int]:
        """``agents`` fresh agents appear in ``state`` (or a uniform draw
        from the injector stream); returns the target and the join count."""
        if state is not None:
            if state not in view.states:
                raise ValueError(
                    f"JoinAgents target {state!r} is not a state of the "
                    f"simulated system"
                )
            target = state
        else:
            target = self.rng.choice(list(view.states))
        view.add(target, agents)
        self.joined += agents
        return target, agents

    def _leave(self, view, agents: int, state) -> int:
        """``agents`` agents depart: from ``state`` when given (capped at
        its occupancy), else one at a time weighted by occupancy.
        Returns how many actually left — the population may drain to 0,
        after which departures degenerate to no-ops."""
        if state is not None:
            if state not in view.states:
                raise ValueError(
                    f"LeaveAgents source {state!r} is not a state of the "
                    f"simulated system"
                )
            gone = min(agents, view.count(state))
            if gone:
                view.remove(state, gone)
        else:
            gone = 0
            for _ in range(agents):
                occupied, weights = self._occupied(view)
                if not occupied:
                    break
                src = self.rng.choices(occupied, weights=weights)[0]
                view.remove(src, 1)
                gone += 1
        self.departed += gone
        return gone

    def exhausted(self) -> bool:
        """No pending triggers *and* no armed drop/duplicate tokens.
        (An open unfair window with no pending faults cannot make a
        silent configuration active again, so it is ignored here.)"""
        return (
            self._pos >= len(self._queue)
            and self.drop_left == 0
            and self.duplicate_left == 0
        )

    def inert(self) -> bool:
        """Stronger than :meth:`exhausted`: the injector can no longer
        influence the run in *any* way — nothing queued, no armed
        drop/duplicate tokens, and no unfair/adversarial window was ever
        opened.  An injector that is inert before its first step is
        behaviourally identical to no injector at all, so
        :func:`resolve_injector` drops it: empty (and emptily-expanded)
        plans stay bit-identical to uninjected runs."""
        return (
            self._pos >= len(self._queue)
            and self.drop_left == 0
            and self.duplicate_left == 0
            and self.unfair_until < 0
            and self.adv_until < 0
        )

    def population_only(self) -> bool:
        """Whether every queued fault only resizes the population (joins
        and leaves).  Such plans fire at batch barriers without needing
        per-interaction granularity, so the batched engine can run them
        natively instead of degrading to the per-step fast path."""
        return all(
            isinstance(f, (JoinAgents, LeaveAgents)) for f in self._queue
        )

    def __repr__(self) -> str:
        return (
            f"FaultInjector(fired={self.fired}/{len(self._queue)}, "
            f"next_at={self.next_at})"
        )


def resolve_injector(faults, seed: Optional[int]) -> Optional[FaultInjector]:
    """Normalise a driver's ``faults=`` argument: ``None`` passes
    through, a :class:`FaultPlan` is bound to ``seed`` (0 when the driver
    was given only an ``rng``), an already-bound injector is used as-is
    (callers doing multi-segment runs can thread one injector through).
    An :meth:`~FaultInjector.inert` injector — an empty plan, or one that
    expanded to nothing such as a zero-rate ``ChurnProcess`` — resolves to
    ``None``: it is behaviourally no injector at all, and every driver
    then takes its uninjected path."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        faults = faults.bind(seed if seed is not None else 0)
    elif not isinstance(faults, FaultInjector):
        raise TypeError(
            f"faults must be a FaultPlan or FaultInjector, got {type(faults).__name__}"
        )
    return None if faults.inert() else faults
