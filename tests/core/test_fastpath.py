"""The incremental fast path: index invariants, golden-seed pins for the
legacy schedulers, distributional equivalence of the fast schedulers, and
exactness of batch collapsing / geometric null-step skip-ahead."""

import hashlib
import random

import pytest

from repro.baselines import binary_threshold_protocol, majority_protocol
from repro.core import (
    EnabledIndex,
    EnabledTransitionScheduler,
    FastEnabledScheduler,
    FastUniformScheduler,
    Multiset,
    PopulationProtocol,
    UniformPairScheduler,
    simulate,
)
from repro.core.fastpath import TransitionTable
from repro.observability import TraceRecorder
from repro.observability import events as ev

#: Upper 0.1% points of the chi-square distribution (no scipy in the
#: container, so the needed quantiles are hardcoded).
CHI2_CRIT_001 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515}


def two_sample_chi2(a, b):
    """Two-sample chi-square statistic for equal-sized category counts."""
    assert len(a) == len(b) and sum(a) == sum(b)
    stat = 0.0
    for oa, ob in zip(a, b):
        if oa + ob == 0:
            continue
        exp = (oa + ob) / 2
        stat += (oa - exp) ** 2 / exp + (ob - exp) ** 2 / exp
    return stat


def cascade_protocol(n=50):
    """One deterministic key: (a, b -> b, b) converts the a-population one
    agent at a time — the batch collapser's ideal case."""
    pp = PopulationProtocol(
        states=["a", "b"],
        transitions=[("a", "b", "b", "b")],
        input_states=["a", "b"],
        accepting_states=["b"],
        name="cascade",
    )
    return pp, Multiset({"a": n, "b": 1})


# ----------------------------------------------------------------------
# EnabledIndex invariant
# ----------------------------------------------------------------------
class TestEnabledIndex:
    @pytest.mark.parametrize("mode", ["enabled", "uniform"])
    def test_invariant_after_random_watched_mutations(self, mode):
        pp = binary_threshold_protocol(6)
        cfg = Multiset({"p0": 11})
        index = EnabledIndex(pp, mode=mode)
        index.attach(cfg)
        index.validate(cfg)
        rng = random.Random(42)
        states = sorted(pp.states, key=repr)
        for step in range(2_000):
            s = rng.choice(states)
            if rng.random() < 0.5 and cfg[s] > 0:
                cfg.dec(s)
            else:
                cfg.inc(s)
            if step % 100 == 0:
                index.validate(cfg)
        index.validate(cfg)
        index.detach()

    def test_foreign_states_are_ignored(self):
        pp = majority_protocol()
        cfg = Multiset({"X": 3, "Y": 2})
        index = EnabledIndex(pp, mode="enabled")
        index.attach(cfg)
        cfg.inc("not-a-protocol-state", 7)
        index.validate(Multiset({"X": 3, "Y": 2}))
        index.detach()

    def test_detach_stops_updates(self):
        pp = majority_protocol()
        cfg = Multiset({"X": 3, "Y": 2})
        index = EnabledIndex(pp, cfg, mode="enabled")
        index.attach(cfg)
        index.detach()
        before = index.total
        cfg.inc("X", 10)
        assert index.total == before  # stale by design after detach

    def test_weights_match_pair_counts(self):
        pp = majority_protocol()
        cfg = Multiset({"X": 4, "Y": 3, "x": 2})
        index = EnabledIndex(pp, cfg, mode="enabled")
        assert index.weight("X", "Y") == 4 * 3
        assert index.weight("Y", "x") == 3 * 2
        assert index.weight("x", "y") == 0  # y unoccupied
        weights = index.enabled_weights()
        assert weights[("X", "Y")] == 12
        assert all(w > 0 for w in weights.values())

    def test_silence_detection_is_exact(self):
        pp = majority_protocol()
        index = EnabledIndex(pp, Multiset({"X": 5, "x": 4}), mode="enabled")
        assert index.is_silent_now()  # X/x have no productive transitions
        index.rebuild(Multiset({"X": 5, "y": 1}))
        assert not index.is_silent_now()  # (X, y -> X, x) is enabled

    def test_sample_key_only_returns_active_keys(self):
        pp = binary_threshold_protocol(5)
        cfg = Multiset({"p0": 9})
        index = EnabledIndex(pp, cfg, mode="enabled")
        rng = random.Random(0)
        for _ in range(500):
            i = index.sample_key(rng)
            assert index.w[i] > 0


# ----------------------------------------------------------------------
# Golden seeds: the legacy schedulers must stay bit-exact forever
# ----------------------------------------------------------------------
# (seed, verdict, silent, interactions, productive) recorded from the
# legacy engine (support iterated in sorted order, so the values are
# independent of the process hash salt); any drift here breaks
# reproduction of runs recorded with the legacy schedulers.
LEGACY_ENABLED_PINS = [
    (0, False, False, 2000, 2000),
    (1, True, True, 1446, 1445),
    (2, False, False, 2000, 2000),
    (3, True, True, 1661, 1660),
    (4, False, False, 2000, 2000),
]
LEGACY_UNIFORM_PINS = [
    (0, True, True, 512, 26),
    (1, True, True, 512, 32),
    (2, True, True, 512, 38),
    (3, True, True, 512, 30),
    (4, True, True, 512, 26),
]


class TestLegacyGoldenSeeds:
    @pytest.mark.parametrize("pin", LEGACY_ENABLED_PINS, ids=lambda p: f"seed{p[0]}")
    def test_enabled_scheduler_is_pinned(self, pin):
        seed, verdict, silent, interactions, productive = pin
        result = simulate(
            binary_threshold_protocol(13),
            Multiset({"p0": 40}),
            seed=seed,
            scheduler=EnabledTransitionScheduler(),
            max_interactions=200_000,
        )
        assert (
            result.verdict,
            result.silent,
            result.interactions,
            result.productive,
        ) == (verdict, silent, interactions, productive)

    @pytest.mark.parametrize("pin", LEGACY_UNIFORM_PINS, ids=lambda p: f"seed{p[0]}")
    def test_uniform_scheduler_is_pinned(self, pin):
        seed, verdict, silent, interactions, productive = pin
        result = simulate(
            majority_protocol(),
            Multiset({"X": 12, "Y": 9}),
            seed=seed,
            scheduler=UniformPairScheduler(),
            max_interactions=200_000,
        )
        assert (
            result.verdict,
            result.silent,
            result.interactions,
            result.productive,
        ) == (verdict, silent, interactions, productive)


# (scheduler, protocol, initial configuration, seed, verdict, silent,
# interactions, productive, final) for uninjected fast runs
# (max_interactions=20_000, convergence_window=300).  binary5 on 24 agents
# with seed 0 under fast_enabled batch-collapses its last conversions;
# binary5 on 4 agents under fast_enabled and binary5 on 24 agents under
# the first-candidate tie-break end by the convergence window; the
# majority runs end silent at a check point.  The fast engines run in
# segments between fault barriers, so these pins guard the uninjected
# random stream against any drift in the resumable loops.
FAST_SCHEDULERS = {
    "fast_enabled": FastEnabledScheduler,
    "fast_uniform": FastUniformScheduler,
    "fast_uniform_first": lambda: FastUniformScheduler(tie_break="first"),
}
FAST_PROTOCOLS = {
    "binary5": lambda: binary_threshold_protocol(5),
    "majority": majority_protocol,
}
BINARY_24, BINARY_4, MAJORITY_21 = {"p0": 24}, {"p0": 4}, {"X": 12, "Y": 9}
ALL_TOP, MAJORITY_X = {"TOP": 24}, {"X": 3, "x": 18}
FAST_PINS = [
    ("fast_enabled", "binary5", BINARY_24, 0, True, True, 92, 91, ALL_TOP),
    ("fast_enabled", "binary5", BINARY_24, 1, True, True, 88, 87, ALL_TOP),
    (
        "fast_enabled", "binary5", BINARY_4, 0, False, False, 300, 300,
        {"c1": 1, "z": 3},
    ),
    ("fast_enabled", "majority", MAJORITY_21, 0, True, True, 29, 28, MAJORITY_X),
    ("fast_uniform", "binary5", BINARY_24, 0, True, True, 20_000, 171, ALL_TOP),
    ("fast_uniform", "binary5", BINARY_24, 1, True, True, 20_000, 89, ALL_TOP),
    ("fast_uniform", "majority", MAJORITY_21, 0, True, True, 512, 42, MAJORITY_X),
    ("fast_uniform", "majority", MAJORITY_21, 1, True, True, 512, 22, MAJORITY_X),
    (
        "fast_uniform_first", "binary5", BINARY_24, 0, False, False, 1021, 300,
        {"c1": 1, "p0": 6, "p1": 5, "p2": 1, "z": 11},
    ),
    (
        "fast_uniform_first", "binary5", BINARY_24, 1, False, False, 1007, 300,
        {"p0": 8, "p1": 4, "p2": 2, "z": 10},
    ),
    (
        "fast_uniform_first", "majority", MAJORITY_21, 0, True, True, 512, 42,
        MAJORITY_X,
    ),
    (
        "fast_uniform_first", "majority", MAJORITY_21, 1, True, True, 512, 22,
        MAJORITY_X,
    ),
]


class TestFastGoldenSeeds:
    @pytest.mark.parametrize(
        "pin",
        FAST_PINS,
        ids=lambda p: f"{p[0]}-{p[1]}-n{sum(p[2].values())}-seed{p[3]}",
    )
    def test_uninjected_fast_run_is_pinned(self, pin):
        name, proto, config, seed, *expected = pin
        result = simulate(
            FAST_PROTOCOLS[proto](),
            Multiset(config),
            seed=seed,
            scheduler=FAST_SCHEDULERS[name](),
            max_interactions=20_000,
            convergence_window=300,
        )
        assert (
            result.verdict,
            result.silent,
            result.interactions,
            result.productive,
            dict(result.final.items()),
        ) == tuple(expected)


# ----------------------------------------------------------------------
# Compiled-protocol pins: the table compile must keep its encoding
# ----------------------------------------------------------------------
def table_digest(table):
    """blake2b over every compiled field but the ``Transition`` objects:
    states, accepting flags and, per mode, the keys (candidate records
    without their transition), ``srecs``, ``changing``, ``hot`` and
    ``hot1``."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr([repr(s) for s in table.states]).encode())
    h.update(repr(table.accepting).encode())
    for mt in (table.enabled, table.uniform):
        keys = tuple(
            (a, b, off, mult, tuple(c[:7] for c in cands))
            for a, b, off, mult, cands in mt.keys
        )
        for part in (keys, mt.srecs, mt.changing, mt.hot, mt.hot1):
            h.update(repr(part).encode())
    return h.hexdigest()


#: thr2's compiled table (294 states, 52,756 enabled and 53,892 uniform
#: keys): state ids, key order, candidate order and ``srecs`` order.
THR2_TABLE_DIGEST = "6abdc23e913aa7b77d007d0fa7318c37"

# (scheduler, seed, verdict, silent, interactions, productive, final by
# state repr) for uninjected thr2 runs on 13 agents (threshold k + |F| =
# 11; max_interactions=20_000, convergence_window=300).  fast_enabled
# accepts by the convergence window; both uniform runs exhaust the budget
# mid-computation, so their final configurations depend on every sampled
# key and candidate.
THR2_PINS = [
    (
        "fast_enabled", 1, True, False, 604, 604,
        {
            "('x', T)": 4, "(CF^False_none, T)": 1, "(IP^33_none, T)": 1,
            "(OF^True_none, T)": 1, "(P[Clean]^15_none, T)": 1,
            "(P[Main]^3_none, T)": 1, "(P[Test(2)]^7_none, T)": 1,
            "(V[#]^'x'_none, T)": 1, "(V[x]^'x'_none, T)": 1,
            "(V[y]^'y'_none, T)": 1,
        },
    ),
    (
        "fast_uniform", 0, None, False, 20_000, 259,
        {
            "('x', F)": 1, "('y', F)": 3, "(CF^False_none, F)": 1,
            "(IP^10_none, F)": 1, "(OF^False_none, F)": 1,
            "(P[Clean]^10_none, F)": 1, "(P[Main]^3_none, F)": 1,
            "(P[Test(2)]^7_none, F)": 1, "(V[#]^'x'_none, F)": 1,
            "(V[x]^'x'_none, F)": 1, "(V[y]^'y'_none, F)": 1,
        },
    ),
    (
        "fast_uniform_first", 0, None, False, 20_000, 206,
        {
            "('x', F)": 4, "(CF^False_none, F)": 1, "(IP^6_none, F)": 1,
            "(OF^False_none, F)": 1, "(P[Clean]^10_none, F)": 1,
            "(P[Main]^3_none, F)": 1, "(P[Test(2)]^7_none, F)": 1,
            "(V[#]^'x'_none, F)": 1, "(V[x]^'x'_none, F)": 1,
            "(V[y]^'y'_none, F)": 1,
        },
    ),
]


class TestCompiledProtocolPins:
    def test_thr2_table_is_pinned(self, thr2_pipeline):
        assert table_digest(TransitionTable(thr2_pipeline.protocol)) == (
            THR2_TABLE_DIGEST
        )

    def test_enabled_records_are_the_uniform_records(self, thr2_pipeline):
        """The compile builds each candidate's records once: an enabled
        key's candidate and hot records are the very objects of the
        uniform key for the same pair, minus its no-ops."""
        table = TransitionTable(thr2_pipeline.protocol)
        uniform = {key[:2]: i for i, key in enumerate(table.uniform.keys)}
        noops = 0
        for i, (a, b, _off, _mult, cands) in enumerate(table.enabled.keys):
            u = uniform[a, b]
            kept = [
                j
                for j, c in enumerate(table.uniform.keys[u][4])
                if not c[7].is_noop()
            ]
            noops += len(table.uniform.keys[u][4]) - len(kept)
            assert len(kept) == len(cands)
            for j, cand in zip(kept, cands):
                assert cand is table.uniform.keys[u][4][j]
            for j, hot in zip(kept, table.enabled.hot[i]):
                assert hot is table.uniform.hot[u][j]
        assert noops  # thr2 has mixed keys, so the filtered path is covered

    @pytest.mark.parametrize("pin", THR2_PINS, ids=lambda p: f"{p[0]}-seed{p[1]}")
    def test_uninjected_thr2_run_is_pinned(self, thr2_pipeline, pin):
        name, seed, *expected = pin
        protocol = thr2_pipeline.protocol
        (init,) = protocol.input_states
        result = simulate(
            protocol,
            Multiset({init: 13}),
            seed=seed,
            scheduler=FAST_SCHEDULERS[name](),
            max_interactions=20_000,
            convergence_window=300,
        )
        assert (
            result.verdict,
            result.silent,
            result.interactions,
            result.productive,
            {repr(s): c for s, c in result.final.items()},
        ) == tuple(expected)


# ----------------------------------------------------------------------
# Distributional equivalence (fast vs legacy, chi-square at alpha=0.001)
# ----------------------------------------------------------------------
class TestDistributionalEquivalence:
    def test_enabled_verdict_distribution_matches_legacy(self):
        # binary(13) on 40 agents stabilises to either verdict depending
        # on the trajectory, so the verdict frequency is a sensitive
        # functional of the sampling distribution.  250 runs per engine.
        pp = binary_threshold_protocol(13)
        config = Multiset({"p0": 40})

        def verdicts(scheduler, seed0):
            out = [
                simulate(
                    pp,
                    config,
                    seed=seed0 + s,
                    scheduler=scheduler,
                    max_interactions=20_000,
                ).verdict
                for s in range(250)
            ]
            assert None not in out
            return [out.count(True), out.count(False)]

        legacy = verdicts(EnabledTransitionScheduler(), 0)
        fast = verdicts(FastEnabledScheduler(), 10_000)
        stat = two_sample_chi2(legacy, fast)
        assert stat < CHI2_CRIT_001[1], (stat, legacy, fast)

    def test_uniform_interaction_distribution_matches_legacy(self):
        # The run length to detected silence under the uniform scheduler
        # mixes matched-step sampling and the geometric null-skip, so its
        # distribution pins both mechanisms at once.  250 runs per engine.
        pp = majority_protocol()
        config = Multiset({"X": 6, "Y": 4})
        bins = [0, 36, 44, 56, 10**9]

        def binned(scheduler, seed0):
            lengths = [
                simulate(
                    pp,
                    config,
                    seed=seed0 + s,
                    scheduler=scheduler,
                    max_interactions=50_000,
                    convergence_window=10**9,
                    check_silence_every=4,
                ).interactions
                for s in range(250)
            ]
            return [
                sum(1 for v in lengths if lo <= v < hi)
                for lo, hi in zip(bins, bins[1:])
            ]

        legacy = binned(UniformPairScheduler(), 0)
        fast = binned(FastUniformScheduler(), 10_000)
        stat = two_sample_chi2(legacy, fast)
        assert stat < CHI2_CRIT_001[len(bins) - 2], (stat, legacy, fast)

    def test_uniform_verdicts_match_legacy_per_seed(self):
        # Majority outcomes are trajectory-independent, so fast and
        # legacy must agree run by run even though trajectories differ.
        pp = majority_protocol()
        config = Multiset({"X": 12, "Y": 9})
        for seed in range(20):
            legacy = simulate(
                pp, config, seed=seed, scheduler=UniformPairScheduler()
            )
            fast = simulate(
                pp, config, seed=seed, scheduler=FastUniformScheduler()
            )
            assert (legacy.verdict, legacy.silent) == (fast.verdict, fast.silent)


# ----------------------------------------------------------------------
# Batch collapsing: exact, fully accounted, observer-transparent
# ----------------------------------------------------------------------
class TestBatchCollapsing:
    def test_deterministic_cascade_is_collapsed_exactly(self):
        pp, config = cascade_protocol(50)
        recorder = TraceRecorder()
        result = simulate(pp, config, seed=0, observer=recorder)
        assert result.verdict is True and result.silent
        assert result.productive == 50
        assert result.final == Multiset({"b": 51})
        batches = recorder.events_of(ev.BATCH)
        assert batches and all(e.data["batch"] == "collapse" for e in batches)
        # Complete accounting: every interaction is either a per-step
        # INTERACTION event or inside a BATCH count.
        counts = recorder.kind_counts()
        batched = sum(e.data["count"] for e in batches)
        assert counts.get(ev.INTERACTION, 0) + batched == result.interactions

    def test_snapshot_boundaries_split_batches(self):
        pp, config = cascade_protocol(50)
        recorder = TraceRecorder(snapshot_every=16)
        result = simulate(pp, config, seed=0, observer=recorder)
        snapshots = recorder.snapshots()
        assert snapshots
        for event in snapshots:
            assert event.step % 16 == 0
            assert sum(event.data["configuration"].values()) == 51
        batched = sum(e.data["count"] for e in recorder.events_of(ev.BATCH))
        counts = recorder.kind_counts()
        assert counts.get(ev.INTERACTION, 0) + batched == result.interactions

    def test_observation_does_not_change_the_run(self):
        # Batch splitting at snapshot boundaries consumes no randomness,
        # so an observed fast run is bit-identical to an unobserved one.
        pp, config = cascade_protocol(50)
        bare = simulate(pp, config, seed=3)
        observed = simulate(pp, config, seed=3, observer=TraceRecorder(snapshot_every=8))
        assert (bare.verdict, bare.silent, bare.interactions, bare.productive) == (
            observed.verdict,
            observed.silent,
            observed.interactions,
            observed.productive,
        )
        assert bare.final == observed.final

    def test_output_flip_interactions_are_exact_in_batches(self):
        pp, config = cascade_protocol(50)
        result = simulate(pp, config, seed=0)
        # The output flips to True exactly when the last 'a' converts —
        # productive step 50 — even though the run was collapsed.
        assert result.output_trace[0] == (0, None)
        flip_step, flip_out = result.output_trace[-1]
        assert flip_out is True and flip_step == 50


# ----------------------------------------------------------------------
# Geometric null-step skip-ahead
# ----------------------------------------------------------------------
class TestGeometricSkip:
    def test_null_runs_are_batched_and_fully_accounted(self):
        pp = majority_protocol()
        config = Multiset({"X": 60, "Y": 40})
        recorder = TraceRecorder()
        result = simulate(
            pp,
            config,
            seed=5,
            scheduler=FastUniformScheduler(),
            max_interactions=50_000,
            convergence_window=10**9,
            observer=recorder,
        )
        batches = recorder.events_of(ev.BATCH)
        assert batches and all(e.data["batch"] == "null_skip" for e in batches)
        counts = recorder.kind_counts()
        batched = sum(e.data["count"] for e in batches)
        assert counts.get(ev.INTERACTION, 0) + batched == result.interactions
        # Null steps dominate once opposing agents become scarce.
        assert batched > counts.get(ev.INTERACTION, 0)

    def test_silence_is_detected_at_check_multiples(self):
        pp = majority_protocol()
        config = Multiset({"X": 12, "Y": 9})
        for seed in range(5):
            result = simulate(
                pp, config, seed=seed, scheduler=FastUniformScheduler()
            )
            assert result.silent and result.verdict is True
            assert result.interactions % 512 == 0

    def test_interactions_never_exceed_budget(self):
        pp = majority_protocol()
        # An instance that cannot stabilise before the tiny budget.
        config = Multiset({"X": 500, "Y": 500})
        result = simulate(
            pp,
            config,
            seed=1,
            scheduler=FastUniformScheduler(),
            max_interactions=1_000,
            convergence_window=10**9,
        )
        assert result.interactions == 1_000
        assert result.verdict is None and not result.silent
