"""Resized configurations cross the pool: a Multiset/DenseConfig that
grew or shrank under churn must pickle cleanly, and change hooks and
accepting counts must re-attach exactly on the other side."""

import os
import pickle

from repro.baselines import binary_threshold_protocol, majority_protocol
from repro.core import Multiset
from repro.core.batched import DenseConfig
from repro.core.fastpath import EnabledIndex
from repro.resilience import DenseView, FaultPlan, JoinAgents, LeaveAgents
from repro.runtime.pool import parallel_map


def _resize(config):
    """Five agents join in ``X`` and two leave ``Y`` — a churn resize
    through the multiset's own change hooks."""
    config.inc("X", 5)
    config.dec("Y", 2)


def _echo_roundtrip(config):
    """Module-level pool task: return the shipped config's observable
    state, and the pid that saw it, so the parent can compare against
    the original."""
    return (type(config).__name__, dict(config.items()), config.size, os.getpid())


class TestMultisetResizeRoundtrip:
    def _resized(self):
        config = Multiset({"X": 6, "Y": 3})
        _resize(config)
        assert config.size == 12  # 9 + 5 - 2
        return config

    def test_pickle_after_resize(self):
        config = self._resized()
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.size == config.size

    def test_hooks_reattach_after_resize_roundtrip(self):
        pp = majority_protocol()
        config = Multiset({"X": 6, "Y": 3})
        index = EnabledIndex(pp)
        index.attach(config)
        _resize(config)

        clone = pickle.loads(pickle.dumps(config))
        assert clone._watchers is None  # hooks never cross the boundary

        reattached = EnabledIndex(pp)
        reattached.attach(clone)
        reattached.validate(clone)
        assert reattached.population == config.size
        clone.inc("X")  # the re-attached hook is live
        reattached.validate(clone)

    def test_resized_config_crosses_a_real_pool(self):
        config = self._resized()
        # Two tasks: a single one would run in-process, pickling nothing.
        echoes = parallel_map(_echo_roundtrip, [(config,), (config,)], jobs=2)
        for kind, counts, size, pid in echoes:
            assert kind == "Multiset"
            assert counts == dict(config.items())
            assert size == config.size
            assert pid != os.getpid()


class TestDenseConfigResizeRoundtrip:
    def _resized(self):
        pp = binary_threshold_protocol(5)
        states = sorted(pp.states)
        dense = DenseConfig(states, {"p0": 10})
        accepting = [int(s in pp.accepting_states) for s in states]
        view = DenseView(dense, accepting)
        injector = FaultPlan(
            [JoinAgents(at=0, agents=4, state="p0"), LeaveAgents(at=0, agents=3)]
        ).bind(9)
        injector.fire(0, view)
        assert dense.size == 11
        assert view.size_delta == 1
        return pp, states, dense, accepting

    def test_pickle_after_resize(self):
        _, states, dense, _ = self._resized()
        clone = pickle.loads(pickle.dumps(dense))
        assert isinstance(clone, DenseConfig)
        assert clone == dense
        assert clone.size == dense.size
        assert clone.states == tuple(states)
        # The dense vector is rebuilt, not shipped stale.
        assert clone.cnt == dense.cnt

    def test_accepting_counts_reattach_after_roundtrip(self):
        pp, states, dense, accepting = self._resized()
        clone = pickle.loads(pickle.dumps(dense))
        assert clone._watchers is None

        # Re-derive the accepting count from the clone's dense vector:
        # it must match a from-scratch recount of the multiset contents.
        recount = sum(
            count for state, count in clone.items()
            if state in pp.accepting_states
        )
        via_cnt = sum(
            clone.cnt[clone.sid[s]] for s in states if s in pp.accepting_states
        )
        assert recount == via_cnt

        # A fresh DenseView on the clone tracks accepting deltas exactly.
        view = DenseView(clone, accepting)
        view.add("TOP", 2)
        assert view.accept_delta == 2
        view.remove("TOP", 1)
        assert view.accept_delta == 1
        assert clone.size == dense.size + 1

    def test_resized_dense_crosses_a_real_pool(self):
        _, _, dense, _ = self._resized()
        echoes = parallel_map(_echo_roundtrip, [(dense,), (dense,)], jobs=2)
        for kind, counts, size, pid in echoes:
            assert kind == "DenseConfig"
            assert counts == dict(dense.items())
            assert size == dense.size
            assert pid != os.getpid()
