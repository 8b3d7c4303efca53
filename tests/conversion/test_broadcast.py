"""Tests for the output-broadcast construction."""

import pytest

from repro.core import Multiset, simulate
from repro.machines import OF
from repro.conversion import OpinionState, PointerState, with_output_broadcast


@pytest.fixture(scope="module")
def pipeline():
    from repro.conversion import compile_program
    from repro.programs import simple_threshold_program

    return compile_program(simple_threshold_program(2), "thr2")


class TestStructure:
    def test_doubles_states(self, pipeline):
        inner = pipeline.inner_protocol
        outer = pipeline.protocol
        assert outer.state_count == 2 * inner.state_count

    def test_inputs_start_with_false_opinion(self, pipeline):
        for state in pipeline.protocol.input_states:
            assert isinstance(state, OpinionState)
            assert state.opinion is False

    def test_accepting_iff_opinion_true(self, pipeline):
        for state in pipeline.protocol.states:
            assert (state in pipeline.protocol.accepting_states) == state.opinion

    def test_of_interactions_broadcast(self, pipeline):
        """Transitions whose post includes the OF agent force both
        opinions to OF's value."""
        for t in pipeline.protocol.transitions:
            post_of = [
                s.base
                for s in (t.q2, t.r2)
                if isinstance(s.base, PointerState) and s.base.pointer == OF
            ]
            if post_of:
                value = bool(post_of[0].value)
                assert t.q2.opinion == value and t.r2.opinion == value

    def test_non_of_interactions_preserve_opinions(self, pipeline):
        for t in pipeline.protocol.transitions:
            involves_of = any(
                isinstance(s.base, PointerState) and s.base.pointer == OF
                for s in (t.q, t.r, t.q2, t.r2)
            )
            if not involves_of:
                assert t.q.opinion == t.q2.opinion
                assert t.r.opinion == t.r2.opinion


class TestInterning:
    def test_transitions_share_the_protocols_state_objects(self, pipeline):
        """One object per opinion state: every state a transition, input
        or accepting set mentions *is* the member of ``protocol.states``."""
        protocol = pipeline.protocol
        members = {id(s) for s in protocol.states}
        assert len(members) == protocol.state_count
        for t in protocol.transitions:
            for s in (t.q, t.r, t.q2, t.r2):
                assert id(s) in members, t
        for s in protocol.input_states | protocol.accepting_states:
            assert id(s) in members, s


class TestBehaviour:
    def test_epidemic_of_true_opinion(self, pipeline):
        """Starting from a pi-like config with OF = true, every agent
        eventually holds opinion true."""
        inner = pipeline.conversion
        machine_config = pipeline.machine.initial_configuration({"x": 3})
        machine_config.pointers[OF] = True
        # Lift the inner pi-image into the broadcast protocol, opinions F.
        from repro.conversion import pi

        inner_config = pi(inner, machine_config)
        # Freeze machine progress by dropping the IP agent: only opinion
        # epidemics remain possible.
        from repro.machines import IP

        lifted = {}
        for state, count in inner_config.items():
            if isinstance(state, PointerState) and state.pointer == IP:
                continue
            lifted[OpinionState(state, False)] = count
        config = Multiset(lifted)
        result = simulate(
            pipeline.protocol,
            config,
            seed=0,
            max_interactions=100_000,
            convergence_window=2_000,
        )
        assert result.verdict is True

    def test_end_to_end_decision(self, pipeline):
        initial = next(iter(pipeline.protocol.input_states))
        population = pipeline.shift + 4  # m = 4 >= 2
        result = simulate(
            pipeline.protocol,
            Multiset({initial: population}),
            seed=5,
            max_interactions=2_000_000,
            convergence_window=60_000,
        )
        assert result.verdict is True
