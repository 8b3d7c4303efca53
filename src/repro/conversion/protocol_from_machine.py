"""Machine → protocol conversion (Section 7.3, Appendix B.3).

Two kinds of agents: *register agents* (one per unit, state = the register
they represent) and *pointer agents* (one per pointer, state = the
pointer's value plus a gadget stage).  The conversion emits

* ``⟨elect⟩`` — leader election along an enumeration ``X₁, …, X_{|F|}``
  with ``X_{|F|} = IP``: duplicate pointer agents collapse pairwise, each
  collision (re-)initialising the next pointer in the chain; an IP
  collision demotes one agent to a register unit and restarts the chain
  (which restarts the machine — but *not* the register contents, which is
  what makes adversarial initialisation the model's base case);
* ``⟨move⟩`` / ``⟨test⟩`` / ``⟨pointer⟩`` — one gadget per instruction,
  exactly as in Figure 4 / Appendix B.3.

Each pointer's ⟨elect⟩ fires on every ordered pair of that pointer's
states with one outcome, so it is emitted as one class rule (see
:class:`repro.core.protocol.ClassRule`) rather than ``|Q_X|²``
transitions: IP alone has 312 states at n = 1.

The resulting protocol (before the output broadcast of
:mod:`repro.conversion.broadcast`) satisfies Proposition 16's state bound
``|Q*| ≤ |Q| + 7·Σ_X |𝓕_X| + L``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.errors import InvalidMachineError
from repro.core.protocol import ClassRule, PopulationProtocol, Transition
from repro.machines.machine import (
    AssignInstr,
    CF,
    DetectInstr,
    IP,
    MoveInstr,
    OF,
    PopulationMachine,
    register_map_pointer,
)
from repro.conversion.states import (
    DONE,
    EMIT,
    FALSE,
    HALF,
    MapState,
    NONE,
    PointerState,
    TAKE,
    TEST,
    TRUE,
    WAIT,
    pointer_states,
    stages_of,
)


@dataclass
class ConvertedProtocol:
    """The conversion result plus the bookkeeping the theorems reference."""

    protocol: PopulationProtocol
    machine: PopulationMachine
    pointer_order: Tuple[str, ...]
    initial_values: Dict[str, object]
    hub_register: str
    shift: int  # |F| — the agent overhead of Theorem 5
    instruction_transitions: Dict[int, List[Transition]] = field(default_factory=dict)

    @property
    def elect_transitions(self) -> List[Transition]:
        """The ⟨elect⟩ transitions, expanded from the protocol's class
        rules (one per pointer, in enumeration order)."""
        return list(self.protocol.rule_transitions())

    @property
    def initial_state(self) -> PointerState:
        first = self.pointer_order[0]
        return PointerState(first, self.initial_values[first], NONE)


def default_initial_values(machine: PopulationMachine) -> Dict[str, object]:
    """Initial pointer values ``v_i`` satisfying Definition 13: IP = 1,
    identity register map; booleans start false; others take their first
    domain value."""
    values: Dict[str, object] = {}
    for pointer, domain in machine.pointer_domains.items():
        values[pointer] = domain[0]
    values[IP] = 1
    values[OF] = False
    values[CF] = False
    for reg in machine.registers:
        values[register_map_pointer(reg)] = reg
    return values


def pointer_enumeration(machine: PopulationMachine) -> Tuple[str, ...]:
    """An enumeration ``X₁, …, X_{|F|}`` with ``X_{|F|} = IP``."""
    others = [p for p in machine.pointer_domains if p != IP]
    return tuple(others) + (IP,)


def convert_machine(
    machine: PopulationMachine, name: str = "converted"
) -> ConvertedProtocol:
    """Convert a population machine into a population protocol (no output
    broadcast yet — see :func:`repro.conversion.broadcast.with_output_broadcast`)."""
    order = pointer_enumeration(machine)
    initial_values = default_initial_values(machine)
    hub = machine.registers[0]

    # ------------------------------------------------------------------
    # State space Q*
    # ------------------------------------------------------------------
    states: List[object] = list(machine.registers)
    for pointer in order:
        states.extend(pointer_states(machine, pointer))
    map_states: Dict[int, MapState] = {}
    for index, instr in enumerate(machine.instructions, start=1):
        if (
            isinstance(instr, AssignInstr)
            and instr.target != IP
            and instr.target != instr.source
        ):
            map_states[index] = MapState(instr.target, index)
    states.extend(map_states.values())
    all_states = list(states)

    transitions: List[Transition] = []

    # ------------------------------------------------------------------
    # ⟨elect⟩: one rule Q_X × Q_X ↦ (winner, loser) per pointer
    # ------------------------------------------------------------------
    elect: List[ClassRule] = []
    for i, pointer in enumerate(order):
        own_states = tuple(pointer_states(machine, pointer))
        if pointer != IP:
            successor = order[i + 1]
            winner = PointerState(pointer, initial_values[pointer], NONE)
            loser = PointerState(successor, initial_values[successor], NONE)
        else:
            winner = PointerState(order[0], initial_values[order[0]], NONE)
            loser = hub
        elect.append(ClassRule(own_states, own_states, winner, loser))

    # ------------------------------------------------------------------
    # Instruction gadgets
    # ------------------------------------------------------------------
    per_instruction: Dict[int, List[Transition]] = {}
    length = machine.length
    for index, instr in enumerate(machine.instructions, start=1):
        gadget: List[Transition] = []
        ip_none = PointerState(IP, index, NONE)
        ip_wait = PointerState(IP, index, WAIT)
        ip_half = PointerState(IP, index, HALF)

        if isinstance(instr, MoveInstr):
            vx = register_map_pointer(instr.x)
            vy = register_map_pointer(instr.y)
            for v in machine.pointer_domains[vx]:
                for s in stages_of(vx):
                    gadget.append(
                        Transition(
                            ip_none,
                            PointerState(vx, v, s),
                            ip_wait,
                            PointerState(vx, v, EMIT),
                        )
                    )
                gadget.append(
                    Transition(
                        PointerState(vx, v, EMIT), v, PointerState(vx, v, DONE), hub
                    )
                )
                gadget.append(
                    Transition(
                        ip_wait,
                        PointerState(vx, v, DONE),
                        ip_half,
                        PointerState(vx, v, NONE),
                    )
                )
            for w in machine.pointer_domains[vy]:
                for s in stages_of(vy):
                    gadget.append(
                        Transition(
                            ip_half,
                            PointerState(vy, w, s),
                            ip_wait,
                            PointerState(vy, w, TAKE),
                        )
                    )
                gadget.append(
                    Transition(
                        PointerState(vy, w, TAKE), hub, PointerState(vy, w, DONE), w
                    )
                )
                if index < length:
                    gadget.append(
                        Transition(
                            ip_wait,
                            PointerState(vy, w, DONE),
                            PointerState(IP, index + 1, NONE),
                            PointerState(vy, w, NONE),
                        )
                    )

        elif isinstance(instr, DetectInstr):
            vx = register_map_pointer(instr.x)
            cf_values = machine.pointer_domains[CF]
            for v in machine.pointer_domains[vx]:
                for s in stages_of(vx):
                    gadget.append(
                        Transition(
                            ip_none,
                            PointerState(vx, v, s),
                            ip_wait,
                            PointerState(vx, v, TEST),
                        )
                    )
                test_state = PointerState(vx, v, TEST)
                gadget.append(
                    Transition(test_state, v, PointerState(vx, v, TRUE), v)
                )
                for q in all_states:
                    if q == v:
                        continue
                    gadget.append(
                        Transition(test_state, q, PointerState(vx, v, FALSE), q)
                    )
                for outcome, stage in ((True, TRUE), (False, FALSE)):
                    for cv in cf_values:
                        for cs in stages_of(CF):
                            gadget.append(
                                Transition(
                                    PointerState(vx, v, stage),
                                    PointerState(CF, cv, cs),
                                    PointerState(vx, v, DONE),
                                    PointerState(CF, outcome, NONE),
                                )
                            )
                if index < length:
                    gadget.append(
                        Transition(
                            ip_wait,
                            PointerState(vx, v, DONE),
                            PointerState(IP, index + 1, NONE),
                            PointerState(vx, v, NONE),
                        )
                    )

        elif isinstance(instr, AssignInstr):
            if instr.source == IP:
                raise InvalidMachineError(
                    "assignments reading IP are not supported (replace f(IP) "
                    "by a constant — the paper's wlog step)"
                )
            if instr.target == IP:
                for v in machine.pointer_domains[instr.source]:
                    for s in stages_of(instr.source):
                        gadget.append(
                            Transition(
                                ip_none,
                                PointerState(instr.source, v, s),
                                PointerState(IP, instr.mapping[v], NONE),
                                PointerState(instr.source, v, NONE),
                            )
                        )
            elif instr.target == instr.source:
                if index < length:
                    for v in machine.pointer_domains[instr.source]:
                        for s in stages_of(instr.source):
                            gadget.append(
                                Transition(
                                    ip_none,
                                    PointerState(instr.source, v, s),
                                    PointerState(IP, index + 1, NONE),
                                    PointerState(instr.source, instr.mapping[v], NONE),
                                )
                            )
            else:
                if index < length:
                    map_state = map_states[index]
                    for v in machine.pointer_domains[instr.target]:
                        for s in stages_of(instr.target):
                            gadget.append(
                                Transition(
                                    ip_none,
                                    PointerState(instr.target, v, s),
                                    ip_wait,
                                    map_state,
                                )
                            )
                    for v in machine.pointer_domains[instr.source]:
                        for s in stages_of(instr.source):
                            gadget.append(
                                Transition(
                                    map_state,
                                    PointerState(instr.source, v, s),
                                    PointerState(instr.target, instr.mapping[v], DONE),
                                    PointerState(instr.source, v, NONE),
                                )
                            )
                    for v in machine.pointer_domains[instr.target]:
                        gadget.append(
                            Transition(
                                ip_wait,
                                PointerState(instr.target, v, DONE),
                                PointerState(IP, index + 1, NONE),
                                PointerState(instr.target, v, NONE),
                            )
                        )
        else:  # pragma: no cover - machine validation forbids this
            raise InvalidMachineError(f"unknown instruction {instr!r}")

        per_instruction[index] = gadget
        transitions.extend(gadget)

    first = order[0]
    protocol = PopulationProtocol(
        states=all_states,
        transitions=transitions,
        input_states=[PointerState(first, initial_values[first], NONE)],
        accepting_states=[
            PointerState(OF, True, stage) for stage in stages_of(OF)
        ],
        name=name,
        rules=elect,
    )
    return ConvertedProtocol(
        protocol=protocol,
        machine=machine,
        pointer_order=order,
        initial_values=initial_values,
        hub_register=hub,
        shift=len(order),
        instruction_transitions=per_instruction,
    )


def converted_state_count(machine: PopulationMachine) -> int:
    """|Q*| computed in closed form (without materialising transitions):
    ``|Q| + Σ_X |𝓕_X|·|S_X| + |Q_map|``.

    Lets Table 1 report protocol sizes for constructions far too large to
    build explicitly; agrees exactly with ``convert_machine`` (tested).
    """
    count = len(machine.registers)
    for pointer, domain in machine.pointer_domains.items():
        count += len(domain) * len(stages_of(pointer))
    for instr in machine.instructions:
        if (
            isinstance(instr, AssignInstr)
            and instr.target != IP
            and instr.target != instr.source
        ):
            count += 1
    return count


def final_state_count(machine: PopulationMachine) -> int:
    """|Q'| = 2·|Q*| — states of the broadcast-wrapped protocol."""
    return 2 * converted_state_count(machine)


def proposition16_state_bound(machine: PopulationMachine) -> int:
    """The bound of Proposition 16:
    ``|Q*| ≤ |Q| + 7·Σ_X |𝓕_X| + L``."""
    return (
        len(machine.registers)
        + 7 * sum(len(d) for d in machine.pointer_domains.values())
        + machine.length
    )
