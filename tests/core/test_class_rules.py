"""Class rules against their expansion.

A protocol with class rules must be indistinguishable from the protocol
that lists the same relation explicitly: the same per-pair queries, the
same output broadcast, the same compiled table once every rule key is
built, and bit-identical seeded runs on every engine while the rule keys
are built on first use.  The real protocols are checked exactly: thr2
pair by pair against the explicit construction, and Lipton n=1's
⟨elect⟩ against its explicit loop; the compile and run path must never
expand a rule.
"""

import pytest

from repro.conversion.broadcast import with_output_broadcast
from repro.conversion.protocol_from_machine import pointer_enumeration
from repro.conversion.states import NONE, PointerState, pointer_states
from repro.core import (
    BatchedScheduler,
    ClassRule,
    ExpansionLimitExceeded,
    FastEnabledScheduler,
    FastUniformScheduler,
    InvalidProtocolError,
    Multiset,
    PopulationProtocol,
    Transition,
    decide,
    simulate,
)
from repro.core import protocol as protocol_module
from repro.core.fastpath import TransitionTable
from repro.lipton.levels import threshold
from repro.machines.machine import IP, OF

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    HAVE_HYPOTHESIS = False


def expanded(pp):
    """The same relation with every rule listed explicitly."""
    return PopulationProtocol(
        pp.states, pp.transitions, pp.input_states, pp.accepting_states, pp.name
    )


def assert_same_queries(ruled, plain):
    assert ruled.transition_count == plain.transition_count == len(ruled.transitions)
    assert ruled.transitions == plain.transitions
    for q in sorted(ruled.states, key=repr):
        for r in sorted(ruled.states, key=repr):
            assert ruled.transitions_from(q, r) == plain.transitions_from(q, r)
            assert ruled.productive_transitions_from(q, r) == (
                plain.productive_transitions_from(q, r)
            )
            assert ruled.has_interaction(q, r) == plain.has_interaction(q, r)


def columns(table):
    """Every compiled field, per mode, as comparable values."""
    out = [table.states, table.accepting]
    for mt in (table.enabled, table.uniform):
        out.extend(
            [
                tuple(mt.keys),
                tuple(mt.changing),
                tuple(mt.hot),
                tuple(mt.hot1),
                list(mt.pair),
                list(mt.wmult),
                list(mt.kpos),
            ]
        )
    return out


def assert_same_tables(ruled, plain):
    reference = TransitionTable(plain)
    lazy = TransitionTable(ruled)
    for got, want in zip(columns(lazy), columns(reference)):
        if isinstance(got, tuple) and None in got:
            assert len(got) == len(want)
            assert all(g is None or g == w for g, w in zip(got, want))
        else:
            assert got == want
    assert columns(lazy.materialise()) == columns(reference)


RUN_ENGINES = {
    "fast_enabled": FastEnabledScheduler,
    "fast_uniform": FastUniformScheduler,
    "batched": BatchedScheduler,
}


def run_fields(result):
    return (
        result.verdict,
        result.silent,
        result.interactions,
        result.productive,
        dict(result.final.items()),
        list(result.output_trace),
    )


def assert_same_runs(ruled, plain, config, seeds=(0, 1)):
    for name, scheduler in RUN_ENGINES.items():
        for seed in seeds:
            kwargs = dict(
                seed=seed,
                scheduler=scheduler(),
                max_interactions=400,
                convergence_window=50,
            )
            assert run_fields(simulate(ruled, Multiset(config), **kwargs)) == (
                run_fields(simulate(plain, Multiset(config), **kwargs))
            ), (name, seed)


if HAVE_HYPOTHESIS:
    POOL = [
        "s0",
        "s1",
        "s2",
        "s3",
        "s4",
        PointerState(OF, False, NONE),
        PointerState(OF, True, NONE),
    ]

    @st.composite
    def ruled_protocols(draw):
        """Small protocols with rule families (A ≠ B, members of one
        family on disjoint blocks), no-op rule instances, explicit
        transitions on rule pairs and exact duplicates of rule
        instances; two OF states exercise the broadcast's epidemics."""
        states = draw(st.permutations(POOL))[: draw(st.integers(2, len(POOL)))]
        pick = st.sampled_from(states)
        families = []
        for _ in range(draw(st.integers(1, 3))):
            size_a = draw(st.integers(1, len(states)))
            size_b = draw(st.integers(1, len(states)))
            members = []
            for _ in range(draw(st.integers(1, 2))):
                A = tuple(draw(st.permutations(states))[:size_a])
                B = tuple(draw(st.permutations(states))[:size_b])
                if any(set(A) & set(m.A) and set(B) & set(m.B) for m in members):
                    continue
                if draw(st.booleans()):  # a no-op instance (q2, r2) ∈ A × B
                    post = (draw(st.sampled_from(A)), draw(st.sampled_from(B)))
                else:
                    post = (draw(pick), draw(pick))
                members.append(ClassRule(A, B, *post))
            families.append(members)
        transitions = [
            tuple(draw(pick) for _ in range(4))
            for _ in range(draw(st.integers(0, 8)))
        ]
        rules = [rule for family in families for rule in family]
        for _ in range(draw(st.integers(0, 4))):
            rule = draw(st.sampled_from(rules))
            q, r = draw(st.sampled_from(rule.A)), draw(st.sampled_from(rule.B))
            if draw(st.booleans()):  # an exact duplicate of a rule instance
                post = (rule.q2, rule.r2)
            else:
                post = (draw(pick), draw(pick))
            transitions.append((q, r, *post))
        inputs = draw(st.sets(pick, min_size=1))
        accepting = draw(st.sets(pick))
        return PopulationProtocol(
            states, transitions, inputs, accepting, name="ruled", rules=families
        )

    @given(ruled_protocols())
    @settings(max_examples=80, deadline=None)
    def test_rules_answer_like_their_expansion(pp):
        plain = expanded(pp)
        assert_same_queries(pp, plain)
        assert_same_queries(with_output_broadcast(pp), with_output_broadcast(plain))

    @given(ruled_protocols(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rule_tables_and_runs_match_their_expansion(pp, data):
        for ruled in (pp, with_output_broadcast(pp)):
            plain = expanded(ruled)
            assert_same_tables(ruled, plain)
            states = sorted(ruled.states, key=repr)
            config = {
                s: data.draw(st.integers(0, 4), label=repr(s)) for s in states
            }
            config[states[0]] += 2
            assert_same_runs(ruled, plain, config)


def test_rule_family_must_have_disjoint_blocks():
    first = ClassRule(("a",), ("a", "b"), "b", "b")
    with pytest.raises(InvalidProtocolError):
        PopulationProtocol(
            ["a", "b"], [], ["a"], [], rules=[(first, first._replace(q2="a"))]
        )
    with pytest.raises(InvalidProtocolError):
        PopulationProtocol(["a"], [], ["a"], [], rules=[first])


def test_expansion_is_refused_above_the_limit(monkeypatch):
    pp = PopulationProtocol(
        ["a", "b"], [], ["a"], [], rules=[ClassRule(("a", "b"), ("a", "b"), "b", "b")]
    )
    monkeypatch.setattr(protocol_module, "EXPANSION_LIMIT", 3)
    assert pp.transition_count == 4
    with pytest.raises(ExpansionLimitExceeded):
        pp.transitions
    assert pp.transitions_from("a", "b") == [Transition("a", "b", "b", "b")]


# ----------------------------------------------------------------------
# The real protocols, exactly
# ----------------------------------------------------------------------
def explicit_elect(machine, conversion):
    """⟨elect⟩ as the conversion listed it before rules: every ordered
    pair of each pointer's states, pointers in enumeration order."""
    order = pointer_enumeration(machine)
    values = conversion.initial_values
    out = []
    for i, pointer in enumerate(order):
        if pointer != IP:
            nxt = order[i + 1]
            winner = PointerState(pointer, values[pointer], NONE)
            loser = PointerState(nxt, values[nxt], NONE)
        else:
            winner = PointerState(order[0], values[order[0]], NONE)
            loser = conversion.hub_register
        own = pointer_states(machine, pointer)
        out.extend(Transition(q, r, winner, loser) for q in own for r in own)
    return out


def overlap_pairs(inner):
    """Pairs where an ⟨elect⟩ rule and an explicit gadget transition meet."""
    return [
        (q, r)
        for (q, r) in inner._index
        if any(r in bset for _rule, bset in inner._rule_rows.get(q, ()))
    ]


def test_thr2_matches_the_explicit_construction(thr2_pipeline):
    conversion = thr2_pipeline.conversion
    inner = thr2_pipeline.inner_protocol
    assert conversion.elect_transitions == explicit_elect(
        thr2_pipeline.machine, conversion
    )
    # The explicit construction: inner δ listed in full, then lifted
    # transition by transition.
    reference = with_output_broadcast(expanded(inner))
    pp = thr2_pipeline.protocol
    assert (pp.transition_count, len(pp.explicit)) == (54_012, 6_544)
    assert_same_queries(pp, reference)
    pairs = overlap_pairs(inner)
    assert len(pairs) == 14
    for q, r in pairs:
        (rule, _bset), = inner._rule_rows[q]
        assert inner.transitions_from(q, r)[0] == Transition(q, r, rule.q2, rule.r2)


def test_lipton1_elect_matches_its_explicit_loop(lipton1_pipeline):
    conversion = lipton1_pipeline.conversion
    elect = conversion.elect_transitions
    assert len(elect) == 99_049
    assert elect == explicit_elect(lipton1_pipeline.machine, conversion)
    inner = lipton1_pipeline.inner_protocol
    assert inner.transition_count == 104_133
    pairs = overlap_pairs(inner)
    assert len(pairs) == 119
    for q, r in pairs:
        (rule, _bset), = inner._rule_rows[q]
        assert inner.transitions_from(q, r)[0] == Transition(q, r, rule.q2, rule.r2)
    pp = lipton1_pipeline.protocol
    assert (pp.transition_count, len(pp.explicit)) == (430_420, 34_224)
    assert len(pp.transitions) == 430_420


def test_lipton1_compile_and_run_never_expand(lipton1_program, monkeypatch):
    from repro.conversion import compile_program
    from repro.runtime.cache import ArtifactCache, cached_transition_table

    def refuse(self):
        raise AssertionError(f"{self.name}: a rule was expanded")

    monkeypatch.setattr(PopulationProtocol, "rule_transitions", refuse)
    pipeline = compile_program(lipton1_program, "lipton1-symbolic")
    pp = pipeline.protocol
    table = cached_transition_table(pp, ArtifactCache())
    (init,) = pp.input_states
    x = threshold(1) + pipeline.shift
    for scheduler in (FastEnabledScheduler, FastUniformScheduler, BatchedScheduler):
        simulate(
            pp, Multiset({init: x}), seed=3, scheduler=scheduler(),
            max_interactions=5_000,
        )
    assert decide(pp, Multiset({init: x - 1}), seed=3, jobs=1) is False
    built = sum(key is not None for key in table.uniform.keys)
    assert built < len(table.uniform.keys) // 10
    assert pp._delta is None and pipeline.inner_protocol._delta is None
