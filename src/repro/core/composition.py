"""Composing population protocols: boolean combinations of predicates.

Population-protocol-decidable predicates are closed under boolean
combinations (Angluin et al. [7]); the standard witnesses are

* **negation** — swap the accepting set: a stable consensus for φ is a
  stable consensus for ¬φ with the outputs flipped;
* **product** — run two protocols "in parallel" on paired agents: states
  ``Q₁ × Q₂``, transitions firing componentwise (one component may idle),
  and acceptance computed from the pair of opinions (∧, ∨, or any boolean
  connective on the components' outputs).

The product requires the two protocols to share the *input interface*: a
common set of input-state labels, paired as ``(i₁, i₂)`` pointwise.

These constructions multiply state counts — exactly the blow-up that
motivates the paper's study of succinctness (a conjunction of two
thresholds via products costs ``|Q₁|·|Q₂|`` states, while a specialised
construction could do far better).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.core.errors import InvalidProtocolError
from repro.core.protocol import PopulationProtocol, Transition


def negate(protocol: PopulationProtocol) -> PopulationProtocol:
    """The protocol deciding the negation of ``protocol``'s predicate."""
    return PopulationProtocol(
        states=protocol.states,
        transitions=protocol.explicit,
        input_states=protocol.input_states,
        accepting_states=protocol.states - protocol.accepting_states,
        name=f"not({protocol.name})",
        rules=protocol.rules,
    )


def _paired_inputs(
    first: PopulationProtocol,
    second: PopulationProtocol,
    input_pairs: Dict[object, Tuple[object, object]] | None,
) -> Dict[object, Tuple[object, object]]:
    if input_pairs is not None:
        for label, (i1, i2) in input_pairs.items():
            if i1 not in first.input_states or i2 not in second.input_states:
                raise InvalidProtocolError(
                    f"input pair {label!r} does not name input states"
                )
        return input_pairs
    if len(first.input_states) == 1 and len(second.input_states) == 1:
        return {
            "input": (
                next(iter(first.input_states)),
                next(iter(second.input_states)),
            )
        }
    raise InvalidProtocolError(
        "protocols with multiple input states need explicit input_pairs"
    )


def product(
    first: PopulationProtocol,
    second: PopulationProtocol,
    combine: Callable[[bool, bool], bool],
    *,
    input_pairs: Dict[object, Tuple[object, object]] | None = None,
    name: str | None = None,
) -> PopulationProtocol:
    """The product protocol deciding ``combine(φ₁, φ₂)``.

    Each agent simulates one agent of each protocol; an interaction may
    advance either component or both (the standard asynchronous product,
    which preserves fairness componentwise).  ``combine`` maps the two
    component opinions (membership in each accepting set) to the product
    opinion.
    """
    pairs = _paired_inputs(first, second, input_pairs)

    states: List[Tuple[object, object]] = [
        (q1, q2) for q1 in first.states for q2 in second.states
    ]
    transitions: List[Transition] = []
    # First component steps, second idles.
    for t in first.transitions:
        for q2 in second.states:
            for r2 in second.states:
                transitions.append(
                    Transition((t.q, q2), (t.r, r2), (t.q2, q2), (t.r2, r2))
                )
    # Second component steps, first idles.
    for t in second.transitions:
        for q1 in first.states:
            for r1 in first.states:
                transitions.append(
                    Transition((q1, t.q), (r1, t.r), (q1, t.q2), (r1, t.r2))
                )
    # Both components step (needed so neither starves the other when every
    # encounter matters; harmless otherwise).
    for t1 in first.transitions:
        for t2 in second.transitions:
            transitions.append(
                Transition(
                    (t1.q, t2.q), (t1.r, t2.r), (t1.q2, t2.q2), (t1.r2, t2.r2)
                )
            )

    accepting = [
        (q1, q2)
        for q1 in first.states
        for q2 in second.states
        if combine(q1 in first.accepting_states, q2 in second.accepting_states)
    ]
    return PopulationProtocol(
        states=states,
        transitions=transitions,
        input_states=[pair for pair in pairs.values()],
        accepting_states=accepting,
        name=name or f"product({first.name}, {second.name})",
    )


def conjunction(
    first: PopulationProtocol,
    second: PopulationProtocol,
    **kwargs,
) -> PopulationProtocol:
    """Decides ``φ₁ ∧ φ₂``."""
    kwargs.setdefault("name", f"and({first.name}, {second.name})")
    return product(first, second, lambda a, b: a and b, **kwargs)


def disjunction(
    first: PopulationProtocol,
    second: PopulationProtocol,
    **kwargs,
) -> PopulationProtocol:
    """Decides ``φ₁ ∨ φ₂``."""
    kwargs.setdefault("name", f"or({first.name}, {second.name})")
    return product(first, second, lambda a, b: a or b, **kwargs)


def interval_protocol(lo: int, hi: int) -> PopulationProtocol:
    """``lo ≤ x < hi`` as a product of two (binary) threshold protocols —
    the protocol-level counterpart of Figure 1's program."""
    from repro.baselines.binary import binary_threshold_protocol

    if not 0 < lo < hi:
        raise InvalidProtocolError("need 0 < lo < hi")
    at_least_lo = binary_threshold_protocol(lo)
    below_hi = negate(binary_threshold_protocol(hi))
    return conjunction(
        at_least_lo, below_hi, name=f"interval({lo} <= x < {hi})"
    )
