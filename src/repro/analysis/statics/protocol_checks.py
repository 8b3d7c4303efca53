"""Static checks over population protocols (the bottom IR).

All checks are purely structural — no simulation, no sampling — and run
in (near-)linear time in ``|Q| + |δ|``, so they are cheap enough to gate
every run.

The reachability core is the *counter abstraction*: the set of states
coverable from **some** initial configuration.  Because initial
configurations are arbitrary multisets over the input states (``ℕ^I``),
the abstraction is exact for per-state coverability: two runs on disjoint
sub-populations can be glued side by side, so if ``q`` and ``r`` are each
coverable then a configuration containing both simultaneously is
reachable (and likewise two agents in one coverable state, by doubling
the witness population).  States outside the closure are therefore
*provably* unreachable, and a transition whose precondition pair can
never be covered is *provably* dead — no Monte Carlo involved.  This is
the saturation used in the state-complexity lower-bound line of work
(Czerner–Esparza–Leroux, arXiv:2102.11619), where reachable states, dead
transitions and certificate states are first-class objects.

Diagnostic codes (table in DESIGN.md §11):

* ``PROT001`` (warning) — dead transition: its precondition pair is not
  simultaneously coverable from any initial configuration;
* ``PROT002`` (warning) — state unreachable from every initial
  configuration (counts against ``|Q|``, the paper's complexity measure,
  without contributing behaviour);
* ``PROT003`` (warning) — shadowed transition: an earlier transition on
  the same ordered precondition has the identical post multiset, so the
  later one only skews tie-break weights;
* ``PROT004`` (warning) — trivial output partition: no reachable state
  is accepting (the protocol can never output *true*) or every reachable
  state is (never *false*);
* ``PROT005`` (info) — silence certificate: the reachable self-silent
  states, split by output side.  A silent configuration with two agents
  sharing a state must be supported on these;
* ``PROT006`` (info) — explicit no-op transition (harmless, but a real
  sampling candidate in uniform mode and dead weight in ``|δ|``);
* ``PROT007`` (error) — conservation violation: a compiled
  :class:`~repro.core.fastpath.TransitionTable` candidate whose net
  deltas do not sum to zero agents.  Impossible for tables compiled from
  well-formed transitions; guards alternative engines and cache
  corruption.

Large protocols aggregate: per code, at most :data:`DETAIL_LIMIT`
itemised findings are emitted, then one summary diagnostic carries the
remainder count (the ``data`` payload always has the exact totals).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.diagnostics import Diagnostic, ERROR, INFO, WARNING
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol

#: Itemised findings per code before aggregation kicks in.
DETAIL_LIMIT = 25


def coverable_states(protocol: PopulationProtocol) -> FrozenSet[object]:
    """States occupied in some configuration reachable from some initial
    configuration (exact, via the counter abstraction — see module doc).

    Worklist saturation: a transition fires once both its pre-states are
    covered; input states seed the closure.
    """
    covered: Set[object] = set(protocol.input_states)
    # Index transitions by each pre-state so the worklist touches only
    # transitions that might newly fire.
    by_pre: Dict[object, List[Tuple[object, object, object]]] = {}
    for t in protocol.transitions:
        by_pre.setdefault(t.q, []).append((t.r, t.q2, t.r2))
        if t.r != t.q:
            by_pre.setdefault(t.r, []).append((t.q, t.q2, t.r2))
    worklist = list(covered)
    while worklist:
        state = worklist.pop()
        for other, q2, r2 in by_pre.get(state, ()):
            if other in covered:
                for post in (q2, r2):
                    if post not in covered:
                        covered.add(post)
                        worklist.append(post)
    return frozenset(covered)


def self_silent_states(protocol: PopulationProtocol) -> FrozenSet[object]:
    """States ``q`` such that the ordered pair ``(q, q)`` has no
    configuration-changing transition."""
    noisy: Set[object] = set()
    for t in protocol.transitions:
        if t.q == t.r and Multiset([t.q2, t.r2]) != Multiset([t.q, t.r]):
            noisy.add(t.q)
    return frozenset(protocol.states - noisy)


def _aggregate(
    findings: List[Diagnostic], code: str, summary: str, total: int
) -> List[Diagnostic]:
    """Cap itemised findings, appending a remainder summary."""
    if total <= DETAIL_LIMIT:
        return findings
    kept = findings[:DETAIL_LIMIT]
    sample = kept[0]
    kept.append(
        Diagnostic(
            code=code,
            severity=sample.severity,
            message=f"{summary} ({total - DETAIL_LIMIT} more not itemised)",
            target=sample.target,
            data={"total": total},
        )
    )
    return kept


def check_protocol(protocol: PopulationProtocol) -> List[Diagnostic]:
    """All static diagnostics for ``protocol`` (see module doc for codes)."""
    name = protocol.name
    out: List[Diagnostic] = []
    covered = coverable_states(protocol)

    # -- PROT002: unreachable states -----------------------------------
    unreachable = sorted(protocol.states - covered, key=repr)
    findings = [
        Diagnostic(
            code="PROT002",
            severity=WARNING,
            message=f"state {state!r} is unreachable from every initial "
            "configuration",
            target=name,
            location=repr(state),
        )
        for state in unreachable[:DETAIL_LIMIT]
    ]
    out.extend(
        _aggregate(
            findings,
            "PROT002",
            f"{len(unreachable)} of {len(protocol.states)} states are "
            "unreachable from every initial configuration",
            len(unreachable),
        )
    )

    # -- PROT001 dead + PROT003 shadowed + PROT006 no-op ----------------
    dead: List[Diagnostic] = []
    shadowed: List[Diagnostic] = []
    noops: List[Diagnostic] = []
    n_dead = n_shadowed = n_noops = 0
    seen_effects: Dict[Tuple[object, object], List[Multiset]] = {}
    for t in protocol.transitions:
        live = t.q in covered and t.r in covered
        if not live:
            n_dead += 1
            if len(dead) < DETAIL_LIMIT:
                dead.append(
                    Diagnostic(
                        code="PROT001",
                        severity=WARNING,
                        message=f"dead transition {t!r}: precondition "
                        "is never simultaneously coverable",
                        target=name,
                        location=repr(t),
                    )
                )
        if t.is_noop():
            n_noops += 1
            if len(noops) < DETAIL_LIMIT:
                noops.append(
                    Diagnostic(
                        code="PROT006",
                        severity=INFO,
                        message=f"explicit no-op transition {t!r}",
                        target=name,
                        location=repr(t),
                    )
                )
        effects = seen_effects.setdefault((t.q, t.r), [])
        post = t.post()
        if post in effects:
            n_shadowed += 1
            if len(shadowed) < DETAIL_LIMIT:
                shadowed.append(
                    Diagnostic(
                        code="PROT003",
                        severity=WARNING,
                        message=f"transition {t!r} is shadowed: an earlier "
                        "transition on the same ordered pair has the same "
                        "post multiset",
                        target=name,
                        location=repr(t),
                    )
                )
        else:
            effects.append(post)
    out.extend(_aggregate(dead, "PROT001", f"{n_dead} dead transitions", n_dead))
    out.extend(
        _aggregate(
            shadowed, "PROT003", f"{n_shadowed} shadowed transitions", n_shadowed
        )
    )
    out.extend(
        _aggregate(noops, "PROT006", f"{n_noops} no-op transitions", n_noops)
    )

    # -- PROT004: output-partition completeness over reachable states ---
    reachable_accepting = covered & protocol.accepting_states
    reachable_rejecting = covered - protocol.accepting_states
    if not reachable_accepting:
        out.append(
            Diagnostic(
                code="PROT004",
                severity=WARNING,
                message="no reachable state is accepting: the protocol can "
                "never output true",
                target=name,
                data={"reachable": len(covered)},
            )
        )
    if not reachable_rejecting:
        out.append(
            Diagnostic(
                code="PROT004",
                severity=WARNING,
                message="every reachable state is accepting: the protocol can "
                "never output false",
                target=name,
                data={"reachable": len(covered)},
            )
        )

    # -- PROT005: silence certificates ---------------------------------
    silent = self_silent_states(protocol) & covered
    silent_true = sorted(silent & protocol.accepting_states, key=repr)
    silent_false = sorted(silent - protocol.accepting_states, key=repr)
    out.append(
        Diagnostic(
            code="PROT005",
            severity=INFO,
            message=f"silence certificate: {len(silent_true)} reachable "
            f"self-silent accepting state(s), {len(silent_false)} rejecting",
            target=name,
            data={
                "accepting": [repr(s) for s in silent_true[:DETAIL_LIMIT]],
                "rejecting": [repr(s) for s in silent_false[:DETAIL_LIMIT]],
                "accepting_total": len(silent_true),
                "rejecting_total": len(silent_false),
            },
        )
    )

    # -- PROT007: compiled-table conservation --------------------------
    out.extend(check_table_conservation(protocol))
    return out


def check_table_conservation(protocol: PopulationProtocol) -> List[Diagnostic]:
    """PROT007 — every compiled candidate's net deltas must sum to zero
    agents, in both sampling modes (pairwise interactions conserve the
    population; a nonzero sum means a corrupted or miscompiled table)."""
    from repro.runtime.cache import cached_transition_table

    table = cached_transition_table(protocol).materialise()
    out: List[Diagnostic] = []
    for mode_name, mode in (("enabled", table.enabled), ("uniform", table.uniform)):
        for key in mode.keys:
            for cand in key[4]:
                deltas = cand[6]
                if sum(d for _s, d in deltas) != 0:
                    out.append(
                        Diagnostic(
                            code="PROT007",
                            severity=ERROR,
                            message=f"compiled candidate {cand[7]!r} does not "
                            f"conserve agents in {mode_name} mode "
                            f"(net {sum(d for _s, d in deltas):+d})",
                            target=protocol.name,
                            location=repr(cand[7]),
                            data={"mode": mode_name},
                        )
                    )
    return out
