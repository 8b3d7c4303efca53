"""Pickle-safe transport: protocols and configurations cross a process
boundary stripped of their process-local derived structure (compiled
tables), which the other side rebuilds."""

import pickle

from repro.baselines import binary_threshold_protocol, majority_protocol
from repro.core import Multiset, simulate
from repro.core.fastpath import EnabledIndex, get_table


class TestMultisetPickling:
    def test_plain_roundtrip(self):
        config = Multiset({"a": 3, "b": 1})
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.size == 4

    def test_index_rebuilds_and_reattaches_on_clone(self):
        pp = majority_protocol()
        config = Multiset({"X": 4, "Y": 4})
        clone = pickle.loads(pickle.dumps(config))

        index = EnabledIndex(pp)
        index.rebuild(clone)
        index.validate(clone)
        expected = EnabledIndex(pp)
        expected.rebuild(Multiset({"X": 4, "Y": 4}))
        assert index.enabled_weights() == expected.enabled_weights()
        clone.inc("X")
        index.update(((index.table.sid["X"], 1),))
        index.validate(clone)
        assert index.enabled_weights() != expected.enabled_weights()


class TestProtocolPickling:
    def test_roundtrip_preserves_definition(self):
        pp = binary_threshold_protocol(5)
        clone = pickle.loads(pickle.dumps(pp))
        assert clone.states == pp.states
        assert clone.transitions == pp.transitions
        assert clone.input_states == pp.input_states
        assert clone.accepting_states == pp.accepting_states
        assert clone.name == pp.name

    def test_roundtrip_drops_compiled_table(self):
        pp = binary_threshold_protocol(5)
        get_table(pp)  # attach the compiled fast-path table
        assert hasattr(pp, "_fastpath_table")
        clone = pickle.loads(pickle.dumps(pp))
        assert not hasattr(clone, "_fastpath_table")

    def test_roundtrip_content_address_unchanged(self):
        from repro.runtime.cache import protocol_fingerprint

        pp = binary_threshold_protocol(5)
        get_table(pp)
        clone = pickle.loads(pickle.dumps(pp))
        assert protocol_fingerprint(clone) == protocol_fingerprint(pp)

    def test_clone_simulates_identically(self):
        pp = binary_threshold_protocol(5)
        get_table(pp)
        clone = pickle.loads(pickle.dumps(pp))
        kwargs = dict(seed=3, max_interactions=5_000, convergence_window=2_000)
        original = simulate(pp, Multiset({"p0": 7}), **kwargs)
        transported = simulate(clone, Multiset({"p0": 7}), **kwargs)
        assert transported.verdict == original.verdict
        assert transported.interactions == original.interactions
