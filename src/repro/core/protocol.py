"""The population protocol model of Section 3 of the paper.

A population protocol is a tuple ``PP = (Q, δ, I, O)`` with states ``Q``,
transitions ``δ ⊆ Q⁴`` written ``(q, r ↦ q', r')``, input states ``I ⊆ Q``
and accepting states ``O ⊆ Q``.  A configuration is a multiset ``C ∈ ℕ^Q``
with ``|C| > 0``; it has output *true* if every agent is in an accepting
state and output *false* if no agent is.

A protocol lists δ in two parts: explicit transitions, and *class rules*
``A × B ↦ (q2, r2)``, each standing for the transition ``(q, r ↦ q2,
r2)`` of every ``q ∈ A`` and ``r ∈ B``.  A rule keeps a gadget that
fires on every pair of two state classes — the conversion's ⟨elect⟩ —
at the size of its classes rather than of their product.  Every query
answers from both parts without expanding the rules; only
:attr:`PopulationProtocol.transitions` lists δ in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import (
    ExpansionLimitExceeded,
    InvalidConfigurationError,
    InvalidProtocolError,
)
from repro.core.multiset import Multiset, State


@dataclass(frozen=True)
class Transition:
    """A pairwise transition ``(q, r ↦ q2, r2)``.

    The pair is *ordered*: the first agent is conventionally called the
    initiator and the second the responder.  A transition is a *no-op* if it
    leaves both agents unchanged.
    """

    q: State
    r: State
    q2: State
    r2: State

    def is_noop(self) -> bool:
        return self.q == self.q2 and self.r == self.r2

    def pre(self) -> Multiset:
        return Multiset([self.q, self.r])

    def post(self) -> Multiset:
        return Multiset([self.q2, self.r2])

    def __repr__(self) -> str:
        return f"({self.q!r}, {self.r!r} -> {self.q2!r}, {self.r2!r})"


class ClassRule(NamedTuple):
    """``A × B ↦ (q2, r2)``: the transition ``(q, r ↦ q2, r2)`` for every
    ``q ∈ A`` and ``r ∈ B``.  ``A`` and ``B`` list each of their states
    once; their order is the order in which
    :attr:`PopulationProtocol.transitions` lists the instances."""

    A: Tuple[State, ...]
    B: Tuple[State, ...]
    q2: State
    r2: State


#: :attr:`PopulationProtocol.transitions` refuses to list a relation of
#: more transitions than this (Theorem 1's protocol has 430,420 at n = 1
#: and over 5.5 million at n = 2); every other query works at any size.
EXPANSION_LIMIT = 1_000_000

RuleFamily = Tuple[ClassRule, ...]


class PopulationProtocol:
    """A population protocol ``(Q, δ, I, O)``.

    ``δ`` is given by explicit ``transitions`` and by class ``rules``.
    ``rules`` is a sequence of *families*: a lone :class:`ClassRule` is a
    family of one, and a family's rules have classes of equal sizes and
    pairwise disjoint ``A × B`` blocks.  δ lists the rule instances first
    — family by family, and within a family position by position: the
    first instance of every member before the second of any — then the
    explicit transitions, each transition once.  On one ordered pair that
    is the instances of the covering rules in family order, then the
    explicit transitions; that per-pair order is the candidate order of
    every engine.  (The output broadcast lifts a rule to a family of
    four, so a lifted rule lists its instances exactly as the lift of
    its expansion would.)

    The constructor validates well-formedness: every transition and rule
    must mention only known states, ``I`` must be a nonempty subset of
    ``Q`` and ``O`` a subset of ``Q``.

    >>> from repro.baselines.majority import majority_protocol
    >>> pp = majority_protocol()
    >>> sorted(pp.input_states)
    ['X', 'Y']
    """

    def __init__(
        self,
        states: Iterable[State],
        transitions: Iterable[Transition | Tuple[State, State, State, State]],
        input_states: Iterable[State],
        accepting_states: Iterable[State],
        name: str = "protocol",
        rules: Iterable[Union[ClassRule, Sequence[ClassRule]]] = (),
    ):
        self.states: FrozenSet[State] = frozenset(states)
        normalised: List[Transition] = []
        for t in transitions:
            if not isinstance(t, Transition):
                t = Transition(*t)
            normalised.append(t)
        self.explicit: Tuple[Transition, ...] = tuple(dict.fromkeys(normalised))
        self.rules: Tuple[RuleFamily, ...] = tuple(
            tuple(
                ClassRule(tuple(A), tuple(B), q2, r2)
                for A, B, q2, r2 in ([item] if isinstance(item, ClassRule) else item)
            )
            for item in rules
        )
        self.input_states: FrozenSet[State] = frozenset(input_states)
        self.accepting_states: FrozenSet[State] = frozenset(accepting_states)
        self.name = name
        self._validate()
        if self.rules:
            # δ is a set: an explicit transition that a rule already
            # lists is dropped (rule instances come first).
            self._rule_rows = _rule_rows(self.rules)
            self.explicit = tuple(t for t in self.explicit if not self._ruled(t))
        self._build_indexes()

    def _build_indexes(self) -> None:
        """The per-pair explicit index, its productive part, the rules
        covering each initiator state and the size of δ."""
        self._index: Dict[Tuple[State, State], List[Transition]] = {}
        for t in self.explicit:
            self._index.setdefault((t.q, t.r), []).append(t)
        # Precomputed (q, r) → non-no-op transitions: the hot loops ask
        # this question once per candidate pair per step, so it is frozen
        # into tuples up front rather than filtered on every call.
        productive = {
            key: tuple(t for t in ts if not t.is_noop())
            for key, ts in self._index.items()
        }
        self._productive_index: Dict[Tuple[State, State], Tuple[Transition, ...]] = {
            key: ts for key, ts in productive.items() if ts
        }
        self._rule_rows = _rule_rows(self.rules)
        self.transition_count: int = _distinct_instances(self.rules) + len(
            self.explicit
        )
        self._delta: Optional[Tuple[Transition, ...]] = None

    def _ruled(self, t: Transition) -> bool:
        """Whether some rule lists ``t``."""
        return any(
            rule.q2 == t.q2 and rule.r2 == t.r2 and t.r in bset
            for rule, bset in self._rule_rows.get(t.q, ())
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self.states:
            raise InvalidProtocolError("a protocol needs at least one state")
        if not self.input_states:
            raise InvalidProtocolError("a protocol needs at least one input state")
        if not self.input_states <= self.states:
            raise InvalidProtocolError("input states must be a subset of Q")
        if not self.accepting_states <= self.states:
            raise InvalidProtocolError("accepting states must be a subset of Q")
        for t in self.explicit:
            for s in (t.q, t.r, t.q2, t.r2):
                if s not in self.states:
                    raise InvalidProtocolError(
                        f"transition {t} mentions unknown state {s!r}"
                    )
        for family in self.rules:
            if not family:
                raise InvalidProtocolError("a rule family needs at least one rule")
            shape = (len(family[0].A), len(family[0].B))
            for rule in family:
                if (len(rule.A), len(rule.B)) != shape:
                    raise InvalidProtocolError(
                        f"rule {rule} does not have its family's class sizes {shape}"
                    )
                for cls in (rule.A, rule.B):
                    if len(set(cls)) != len(cls):
                        raise InvalidProtocolError(
                            f"rule {rule} lists a state twice in one class"
                        )
                for s in chain(rule.A, rule.B, (rule.q2, rule.r2)):
                    if s not in self.states:
                        raise InvalidProtocolError(
                            f"rule {rule} mentions unknown state {s!r}"
                        )
            for r1, r2 in combinations(family, 2):
                if set(r1.A) & set(r2.A) and set(r1.B) & set(r2.B):
                    raise InvalidProtocolError(
                        f"rules {r1} and {r2} of one family cover a common pair"
                    )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def state_count(self) -> int:
        """``|Q|`` — the space-complexity measure of the paper."""
        return len(self.states)

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """δ in full (the order is in the class docstring), built on first
        access and kept.  Refused with :class:`ExpansionLimitExceeded`
        above :data:`EXPANSION_LIMIT` transitions; the engines and the
        compile never read it."""
        delta = self._delta
        if delta is None:
            if self.transition_count > EXPANSION_LIMIT:
                raise ExpansionLimitExceeded(
                    f"{self.name} has {self.transition_count} transitions, "
                    f"above the expansion limit of {EXPANSION_LIMIT}"
                )
            delta = tuple(chain(self.rule_transitions(), self.explicit))
            if len(delta) != self.transition_count:  # rules listing one transition
                delta = tuple(dict.fromkeys(delta))
            self._delta = delta
        return delta

    def rule_transitions(self) -> Iterator[Transition]:
        """The rule instances in δ's order, a transition two rules list
        included twice."""
        for family in self.rules:
            first = family[0]
            for x in range(len(first.A)):
                for y in range(len(first.B)):
                    for rule in family:
                        yield Transition(rule.A[x], rule.B[y], rule.q2, rule.r2)

    def transitions_from(self, q: State, r: State) -> List[Transition]:
        """All transitions whose (ordered) precondition is ``(q, r)``."""
        explicit = self._index.get((q, r), [])
        rows = self._rule_rows.get(q)
        if rows is None:
            return explicit
        ruled = [Transition(q, r, rule.q2, rule.r2) for rule, bset in rows if r in bset]
        if not ruled:
            return explicit
        if len(ruled) > 1:
            ruled = list(dict.fromkeys(ruled))
        return ruled + explicit

    def productive_transitions_from(self, q: State, r: State) -> Tuple[Transition, ...]:
        """The non-no-op transitions with (ordered) precondition ``(q, r)``
        (precomputed for the explicit transitions)."""
        if q not in self._rule_rows:
            return self._productive_index.get((q, r), ())
        return tuple(t for t in self.transitions_from(q, r) if not t.is_noop())

    def has_interaction(self, q: State, r: State) -> bool:
        """Whether the ordered pair (q, r) has any non-no-op transition."""
        if (q, r) in self._productive_index:
            return True
        return any(
            r in bset and (rule.q2 != q or rule.r2 != r)
            for rule, bset in self._rule_rows.get(q, ())
        )

    def is_initial(self, config: Multiset) -> bool:
        """Whether ``config`` is an initial configuration (``C ∈ ℕ^I``)."""
        return config.size > 0 and config.support() <= self.input_states

    def check_configuration(self, config: Multiset) -> None:
        if config.size <= 0:
            raise InvalidConfigurationError("configurations must be nonempty")
        unknown = config.support() - self.states
        if unknown:
            raise InvalidConfigurationError(
                f"configuration contains unknown states: {sorted(map(repr, unknown))}"
            )

    def output(self, config: Multiset) -> Optional[bool]:
        """The output of a configuration per Section 3.

        Returns ``True`` if every agent is in an accepting state, ``False``
        if no agent is, and ``None`` when the configuration has no output
        (mixed opinions).
        """
        support = config.support()
        if support <= self.accepting_states:
            return True
        if not (support & self.accepting_states):
            return False
        return None

    def initial_configuration(self, counts: Dict[State, int]) -> Multiset:
        """Build and validate an initial configuration from input counts."""
        config = Multiset(counts)
        if not self.is_initial(config):
            raise InvalidConfigurationError(
                "counts do not describe a valid initial configuration"
            )
        return config

    # ------------------------------------------------------------------
    # Pickling (used by repro.runtime to ship protocols to workers)
    # ------------------------------------------------------------------
    @classmethod
    def _restore(cls, states, explicit, rules, input_states, accepting_states, name):
        """Unpickle fast path: the defining tuple came from a validated
        instance (already frozen, deduplicated and normalised), so skip
        ``__init__``'s validation and normalisation and rebuild only the
        indexes."""
        self = cls.__new__(cls)
        self.states = states
        self.explicit = explicit
        self.rules = rules
        self.input_states = input_states
        self.accepting_states = accepting_states
        self.name = name
        self._build_indexes()
        return self

    def __reduce__(self):
        """Reconstruct from the defining tuple ``(Q, explicit δ, rules, I,
        O, name)``.

        Derived structures — the indexes, the expanded δ and the compiled
        ``TransitionTable`` the fast path attaches as ``_fastpath_table``
        — are deliberately not serialised: they are cheap to rebuild or
        (for the table) recoverable from the content-addressed cache of
        :mod:`repro.runtime.cache`, and the table's change-hook wiring is
        process-local state that must not cross a pickle boundary.
        """
        return (
            PopulationProtocol._restore,
            (
                self.states,
                self.explicit,
                self.rules,
                self.input_states,
                self.accepting_states,
                self.name,
            ),
        )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"PopulationProtocol(name={self.name!r}, |Q|={len(self.states)}, "
            f"|delta|={self.transition_count}, |I|={len(self.input_states)})"
        )

    def describe(self) -> str:
        """A multi-line human-readable description of the protocol."""
        transitions = f"  transitions: {self.transition_count}"
        if self.rules:
            transitions += (
                f" ({len(self.explicit)} explicit, "
                f"{sum(map(len, self.rules))} class rules)"
            )
        lines = [
            f"protocol {self.name}",
            f"  states ({len(self.states)}): "
            + ", ".join(sorted(map(str, self.states)))[:400],
            f"  inputs: {', '.join(sorted(map(str, self.input_states)))}",
            f"  accepting: {len(self.accepting_states)} states",
            transitions,
        ]
        return "\n".join(lines)


def _rule_rows(
    families: Tuple[RuleFamily, ...]
) -> Dict[State, List[Tuple[ClassRule, FrozenSet[State]]]]:
    """q → the rules with ``q ∈ A`` in family order, each with its ``B``
    as a set (at most one member of a family covers a pair)."""
    rows: Dict[State, List[Tuple[ClassRule, FrozenSet[State]]]] = {}
    for family in families:
        for rule in family:
            bset = frozenset(rule.B)
            for q in rule.A:
                rows.setdefault(q, []).append((rule, bset))
    return rows


def _distinct_instances(families: Tuple[RuleFamily, ...]) -> int:
    """How many distinct transitions the rules list.  Two rules list a
    common transition only if they share an outcome and their blocks
    meet; only then are the blocks' pairs counted one by one."""
    by_post: Dict[Tuple[State, State], List[ClassRule]] = {}
    for family in families:
        for rule in family:
            by_post.setdefault((rule.q2, rule.r2), []).append(rule)
    count = 0
    for group in by_post.values():
        blocks = [(frozenset(rule.A), frozenset(rule.B)) for rule in group]
        pairs = combinations(blocks, 2)
        if not any(a1 & a2 and b1 & b2 for (a1, b1), (a2, b2) in pairs):
            count += sum(len(a) * len(b) for a, b in blocks)
            continue
        rows: Dict[State, set] = {}
        for a, b in blocks:
            for q in a:
                rows.setdefault(q, set()).update(b)
        count += sum(map(len, rows.values()))
    return count


def iter_nontrivial(protocol: PopulationProtocol) -> Iterator[Transition]:
    """Iterate over the transitions of ``protocol`` that change some agent."""
    return (t for t in protocol.transitions if not t.is_noop())
