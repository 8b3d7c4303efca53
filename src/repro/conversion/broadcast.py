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
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core._gc import gc_paused
from repro.core.protocol import PopulationProtocol, Transition
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
    transitions: List[Transition] = []

    for t in protocol.transitions:
        q, r, q2, r2 = lifted[t.q], lifted[t.r], lifted[t.q2], lifted[t.r2]
        # The responder's OF value wins if both successors carry one.
        broadcast_value = of_value[t.r2]
        if broadcast_value is None:
            broadcast_value = of_value[t.q2]
        for b1 in bits:
            for b2 in bits:
                if broadcast_value is None:
                    transitions.append(Transition(q[b1], r[b2], q2[b1], r2[b2]))
                else:
                    transitions.append(
                        Transition(
                            q[b1], r[b2], q2[broadcast_value], r2[broadcast_value]
                        )
                    )

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
    )
