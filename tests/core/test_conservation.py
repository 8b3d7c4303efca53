"""Conservation of agents through every compiled transition table.

A pairwise interaction can never create or destroy agents, so every
candidate record in a compiled :class:`~repro.core.fastpath.TransitionTable`
must have net deltas summing to zero and its accept delta bounded by the
two participants.  PROT007 in the static checker fronts the same
invariant; these tests pin it at the engine level across the baselines,
the examples pipeline, and random protocols.
"""

from repro.core.fastpath import get_table
from repro.core.protocol import PopulationProtocol

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    HAVE_HYPOTHESIS = False


def iter_cands(table):
    for mode_name, mode in (("enabled", table.enabled), ("uniform", table.uniform)):
        for key in mode.keys:
            for cand in key[4]:
                yield mode_name, cand


def assert_table_conserves(protocol):
    table = get_table(protocol).materialise()
    checked = 0
    for mode_name, cand in iter_cands(table):
        deltas = cand[6]
        net = sum(d for _s, d in deltas)
        assert net == 0, (
            f"{protocol.name}/{mode_name}: candidate {cand[7]!r} has net "
            f"delta {net:+d}"
        )
        # At most both participants flip output side.
        assert -2 <= cand[5] <= 2
        checked += 1
    assert checked > 0, f"{protocol.name}: table has no candidates"


def test_baseline_tables_conserve(majority, unary5, binary6, remainder3):
    for pp in (majority, unary5, binary6, remainder3):
        assert_table_conserves(pp)


def test_compiled_pipeline_table_conserves(thr2_pipeline):
    assert_table_conserves(thr2_pipeline.protocol)


if HAVE_HYPOTHESIS:

    @st.composite
    def random_protocols(draw):
        n_states = draw(st.integers(min_value=2, max_value=6))
        states = [f"s{i}" for i in range(n_states)]
        idx = st.integers(min_value=0, max_value=n_states - 1)
        n_trans = draw(st.integers(min_value=1, max_value=12))
        transitions = [
            (
                states[draw(idx)],
                states[draw(idx)],
                states[draw(idx)],
                states[draw(idx)],
            )
            for _ in range(n_trans)
        ]
        inputs = draw(
            st.sets(st.sampled_from(states), min_size=1, max_size=n_states)
        )
        accepting = draw(st.sets(st.sampled_from(states), max_size=n_states))
        return PopulationProtocol(
            states=states,
            transitions=transitions,
            input_states=inputs,
            accepting_states=accepting,
            name="random",
        )

    @given(random_protocols())
    @settings(max_examples=60, deadline=None)
    def test_random_protocol_tables_conserve(pp):
        assert_table_conserves(pp)
