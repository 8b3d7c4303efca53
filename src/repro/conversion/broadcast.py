"""The output-broadcast construction (end of Appendix B.3).

The converted protocol holds the verdict in the single OF pointer agent;
for a *stable consensus* every agent needs an opinion.  The standard
construction doubles the state space with an opinion bit: whenever an
interaction's successor states include an OF state with value ``b``, both
participants adopt opinion ``b``; additionally any agent meeting the OF
agent copies its value.  All other interactions preserve opinions.

We omit the identity transitions between two non-OF agents (they are
no-ops on both components, hence semantically inert), keeping the
transition set finite-by-need while preserving the reachable behaviour.

A class rule lifts like each of its instances: one rule per pair of
opinion bits, the four forming one family, so the lifted rules stand for
exactly the lifted instances, in the same order.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core._gc import gc_paused
from repro.core.protocol import ClassRule, PopulationProtocol, Transition
from repro.machines.machine import OF
from repro.conversion.states import PointerState


class OpinionState(NamedTuple):
    """A state of the broadcast protocol: base state plus opinion bit."""

    base: object
    opinion: bool

    def __repr__(self) -> str:
        return f"({self.base!r}, {'T' if self.opinion else 'F'})"


def _of_value(state: object) -> Optional[bool]:
    """The OF pointer's value if ``state`` belongs to the OF agent."""
    if isinstance(state, PointerState) and state.pointer == OF:
        return bool(state.value)
    return None


def with_output_broadcast(
    protocol: PopulationProtocol, name: Optional[str] = None
) -> PopulationProtocol:
    """Wrap ``protocol`` with the output broadcast; accepting states are
    exactly the opinion-true states.

    The ``2·|Q|`` opinion states are created once and shared by every
    transition (``lifted[q][b]`` is the state ``(q, b)``), so the result
    holds one object per state and pickles each once.  The epidemic
    transitions come in ``repr`` order of the inner states, which keeps
    the transition sequence — and with it the protocol's fingerprint —
    the same in every process.
    """
    with gc_paused():
        return _broadcast(protocol, name)


def _broadcast(protocol: PopulationProtocol, name: Optional[str]) -> PopulationProtocol:
    bits = (False, True)
    lifted: Dict[object, Tuple[OpinionState, OpinionState]] = {
        q: (OpinionState(q, False), OpinionState(q, True)) for q in protocol.states
    }
    of_value = {q: _of_value(q) for q in protocol.states}

    def posts(q2, r2):
        """The lifted successors for each pair of opinion bits.  The
        responder's OF value wins if both successors carry one."""
        value = of_value[r2]
        if value is None:
            value = of_value[q2]
        for b1 in bits:
            for b2 in bits:
                if value is None:
                    yield b1, b2, lifted[q2][b1], lifted[r2][b2]
                else:
                    yield b1, b2, lifted[q2][value], lifted[r2][value]

    rules: List[Tuple[ClassRule, ...]] = []
    for family in protocol.rules:
        members: List[ClassRule] = []
        for rule in family:
            for b1, b2, q2, r2 in posts(rule.q2, rule.r2):
                members.append(
                    ClassRule(
                        tuple(lifted[q][b1] for q in rule.A),
                        tuple(lifted[r][b2] for r in rule.B),
                        q2,
                        r2,
                    )
                )
        rules.append(tuple(members))

    transitions: List[Transition] = []
    for t in protocol.explicit:
        q, r = lifted[t.q], lifted[t.r]
        for b1, b2, q2, r2 in posts(t.q2, t.r2):
            transitions.append(Transition(q[b1], r[b2], q2, r2))

    # Identity interactions involving the OF agent: opinion epidemics.
    ordered = sorted(protocol.states, key=repr)
    for of_state in ordered:
        value = of_value[of_state]
        if value is None:
            continue
        of = lifted[of_state]
        for base in ordered:
            if of_value[base] is not None:
                # Two OF agents never coexist after election; skip the
                # (unreachable, ill-defined) OF-meets-OF identity pairs.
                continue
            q = lifted[base]
            for b1 in bits:
                for b2 in bits:
                    transitions.append(Transition(of[b1], q[b2], of[value], q[value]))
                    transitions.append(Transition(q[b2], of[b1], q[value], of[value]))

    return PopulationProtocol(
        states=[s for pair in lifted.values() for s in pair],
        transitions=transitions,
        input_states=[lifted[q][False] for q in protocol.input_states],
        accepting_states=[pair[True] for pair in lifted.values()],
        name=name or f"{protocol.name}+broadcast",
        rules=rules,
    )
