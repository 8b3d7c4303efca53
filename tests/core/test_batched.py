"""The batched multinomial engine: DenseConfig ≡ Multiset, engine
selection plumbing, golden-seed and whole-run pins per sampler backend,
runs at numpy's population limit, the exact pairing law of one batch per
sampler path, the silence check against the reference predicate,
distributional equivalence against the per-step uniform engine, verdict
agreement, and batch-granularity observability."""

import hashlib
import pickle
import random
from math import comb, factorial, prod, sqrt

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import binary_threshold_protocol, majority_protocol
from repro.core import (
    BatchedScheduler,
    DenseConfig,
    FastUniformScheduler,
    InvalidConfigurationError,
    Multiset,
    PopulationProtocol,
    decide,
    engine_label,
    numpy_available,
    resolve_engine,
    scheduler_for_engine,
    simulate,
)
from repro.core.batched import (
    NUMPY_POPULATION_LIMIT,
    _NumpySampler,
    _PureSampler,
    _numpy,
)
from repro.core.semantics import is_silent
from repro.core.simulation import (
    AUTO_CROSSOVER_DEFAULT,
    EnabledTransitionScheduler,
    FastEnabledScheduler,
    auto_crossover,
)
from repro.observability import (
    CompositeObserver,
    ProfilingObserver,
    TraceRecorder,
)
from repro.observability import events as ev
from repro.resilience import ChurnProcess, FaultPlan, JoinAgents, LeaveAgents

from .test_fastpath import CHI2_CRIT_001, cascade_protocol, two_sample_chi2

#: Large enough that no window-convergence fires inside any test budget.
NO_CONVERGE = 10**9


def both_backends(test):
    """Run a test under the numpy sampler (when installed) and the pure
    fallback (forced via ``REPRO_NO_NUMPY``)."""
    return pytest.mark.parametrize(
        "backend",
        [
            pytest.param(
                "numpy",
                marks=pytest.mark.skipif(
                    not numpy_available(), reason="numpy not installed"
                ),
            ),
            "pure",
        ],
    )(test)


@pytest.fixture
def backend_env(backend, monkeypatch):
    if backend == "pure":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    return backend


# ----------------------------------------------------------------------
# DenseConfig: the array-backed Multiset
# ----------------------------------------------------------------------
class TestDenseConfig:
    def test_tracks_multiset_under_mixed_mutations(self):
        states = ["a", "b", "c", "d"]
        dense = DenseConfig(states, {"a": 5, "b": 2})
        shadow = Multiset({"a": 5, "b": 2})
        rng = random.Random(7)
        for _ in range(500):
            op = rng.randrange(3)
            if op == 0:
                s = rng.choice(states)
                dense.inc(s, 2)
                shadow.inc(s, 2)
            elif op == 1:
                s = rng.choice([s for s in states if shadow[s] > 0] or states[:1])
                if shadow[s] > 0:
                    dense.dec(s)
                    shadow.dec(s)
            else:
                deltas = {s: rng.randrange(3) for s in states}
                dense.apply_deltas(deltas)
                for s, d in deltas.items():
                    if d:
                        shadow.inc(s, d)
            assert dense.to_dict() == shadow.to_dict()
            assert dense.size == shadow.size

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(st.integers(0, 9), min_size=3, max_size=3),
        deltas=st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            max_size=8,
        ),
    )
    def test_bulk_deltas_match_singles_property(self, initial, deltas):
        states = ["x", "y", "z"]
        dense = DenseConfig(states, dict(zip(states, initial)))
        shadow = Multiset({s: c for s, c in zip(states, initial) if c})
        for vec in deltas:
            legal = all(c + d >= 0 for c, d in zip(dense.cnt, vec))
            if not legal:
                before = dense.to_dict()
                with pytest.raises(InvalidConfigurationError):
                    dense.apply_sid_deltas(list(enumerate(vec)))
                # A rejected bulk apply must not half-apply.
                assert dense.to_dict() == before
                continue
            dense.apply_sid_deltas(list(enumerate(vec)))
            for s, d in zip(states, vec):
                if d > 0:
                    shadow.inc(s, d)
                elif d < 0:
                    shadow.dec(s, -d)
            assert dense.to_dict() == shadow.to_dict()
            assert dense.size == shadow.size

    def test_foreign_state_rejected(self):
        dense = DenseConfig(["a", "b"], {"a": 1})
        with pytest.raises(InvalidConfigurationError):
            dense.inc("zzz")
        with pytest.raises(InvalidConfigurationError):
            DenseConfig(["a", "b"], {"nope": 1})

    def test_pickle_round_trip(self):
        dense = DenseConfig(["a", "b", "c"], {"b": 4, "c": 1})
        clone = pickle.loads(pickle.dumps(dense))
        assert isinstance(clone, DenseConfig)
        assert clone.to_dict() == dense.to_dict()
        assert clone.size == dense.size

    def test_watchers_fire_once_per_changed_state(self):
        dense = DenseConfig(["a", "b", "c"], {"a": 5, "b": 5})
        seen = []
        dense.watch(lambda state, new: seen.append((state, new)))
        dense.apply_sid_deltas([(0, -2), (1, 3), (2, 0)])
        assert sorted(seen) == [("a", 3), ("b", 8)]


# ----------------------------------------------------------------------
# Engine selection plumbing
# ----------------------------------------------------------------------
class TestEngineResolution:
    def test_explicit_wins_and_garbage_raises(self):
        assert resolve_engine("batched") == "batched"
        assert resolve_engine(" Fast ") == "fast"
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp")

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert resolve_engine(None) == "batched"
        monkeypatch.setenv("REPRO_ENGINE", "nonsense")
        assert resolve_engine(None) is None
        monkeypatch.delenv("REPRO_ENGINE")
        assert resolve_engine(None) is None

    def test_scheduler_families(self):
        assert isinstance(scheduler_for_engine("batched"), BatchedScheduler)
        assert isinstance(
            scheduler_for_engine("legacy"), EnabledTransitionScheduler
        )
        assert isinstance(scheduler_for_engine("fast"), FastEnabledScheduler)
        assert isinstance(scheduler_for_engine(None), FastEnabledScheduler)

    def test_engine_label(self):
        assert engine_label(BatchedScheduler()) == "batched"
        assert engine_label(FastUniformScheduler()) == "fast"
        assert engine_label(None) == "fast"
        assert engine_label(None, "batched") == "batched"

    def test_auto_crossover_both_sides(self, monkeypatch):
        # The auto default: fastpath below the crossover, batched at and
        # above it — pinned on both sides for "auto", None, and label.
        monkeypatch.delenv("REPRO_AUTO_CROSSOVER", raising=False)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert auto_crossover() == AUTO_CROSSOVER_DEFAULT
        below, at = AUTO_CROSSOVER_DEFAULT - 1, AUTO_CROSSOVER_DEFAULT
        for engine in ("auto", None):
            assert isinstance(
                scheduler_for_engine(engine, below), FastEnabledScheduler
            )
            assert isinstance(
                scheduler_for_engine(engine, at), BatchedScheduler
            )
            assert engine_label(None, engine, below) == "fast"
            assert engine_label(None, engine, at) == "batched"
        # Explicit engines ignore the population entirely.
        assert isinstance(scheduler_for_engine("fast", at), FastEnabledScheduler)
        assert isinstance(scheduler_for_engine("batched", below), BatchedScheduler)

    def test_auto_crossover_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTO_CROSSOVER", "10")
        assert auto_crossover() == 10
        assert isinstance(scheduler_for_engine("auto", 9), FastEnabledScheduler)
        assert isinstance(scheduler_for_engine("auto", 10), BatchedScheduler)
        monkeypatch.setenv("REPRO_AUTO_CROSSOVER", "garbage")
        assert auto_crossover() == AUTO_CROSSOVER_DEFAULT
        monkeypatch.setenv("REPRO_AUTO_CROSSOVER", "-5")
        assert auto_crossover() == AUTO_CROSSOVER_DEFAULT

    def test_auto_routes_simulate_by_population(self, monkeypatch):
        # A small population under engine="auto" runs the fastpath; the
        # same protocol above a lowered crossover runs batched.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        pp, config = cascade_protocol(30)
        recorder = TraceRecorder(kinds={ev.RUN_END})
        result = simulate(pp, config, seed=3, engine="auto", observer=recorder)
        assert result.verdict is True
        # Per-step engines don't tag RUN_END; only the batched engine does.
        assert recorder.events[-1].data.get("engine") != "batched"
        monkeypatch.setenv("REPRO_AUTO_CROSSOVER", str(config.size))
        recorder2 = TraceRecorder(kinds={ev.RUN_END})
        result2 = simulate(pp, config, seed=3, engine="auto", observer=recorder2)
        assert result2.verdict is True
        assert recorder2.events[-1].data["engine"] == "batched"

    def test_env_routes_simulate_through_batched(self, monkeypatch):
        pp, config = cascade_protocol(30)
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        recorder = TraceRecorder(kinds={ev.RUN_END})
        result = simulate(pp, config, seed=3, observer=recorder)
        assert result.verdict is True and result.silent
        assert recorder.events[-1].data["engine"] == "batched"

    def test_per_step_schedulers_untouched_by_engine_machinery(self):
        # The golden-seed contract of the existing engines: an explicit
        # per-step scheduler ignores the engine plumbing entirely.
        pp = majority_protocol()
        config = Multiset({"X": 8, "Y": 5})
        a = simulate(pp, config, seed=11, scheduler=FastUniformScheduler())
        b = simulate(pp, config, seed=11, scheduler=FastUniformScheduler())
        assert a.final.to_dict() == b.final.to_dict()
        assert a.interactions == b.interactions


# ----------------------------------------------------------------------
# Golden-seed pins: one per sampler backend
# ----------------------------------------------------------------------
class TestGoldenSeeds:
    """Fixed-budget majority runs, pinned per backend.  These freeze the
    whole sampling stack — batch-length inversion, pair sampling, split
    draws, collision handling — so any accidental reordering of random
    draws shows up as a pin break, not a silent distribution shift."""

    PINS = {
        # seed 1234 reaches exact silence at 371 interactions under the
        # numpy sampler; the pure sampler's draw order differs, so that
        # trajectory runs to the full 400-interaction budget.
        "numpy": (371, 54, (("X", 9), ("x", 42))),
        "pure": (400, 58, (("X", 10), ("Y", 1), ("x", 40))),
    }

    @both_backends
    def test_fixed_budget_pin(self, backend_env):
        pp = majority_protocol()
        config = Multiset({"X": 30, "Y": 21})
        result = simulate(
            pp,
            config,
            seed=1234,
            engine="batched",
            max_interactions=400,
            convergence_window=NO_CONVERGE,
        )
        signature = (
            result.interactions,
            result.productive,
            tuple(sorted(result.final.to_dict().items())),
        )
        assert signature == self.PINS[backend_env]

    @both_backends
    def test_deterministic_per_seed(self, backend_env):
        pp = majority_protocol()
        config = Multiset({"X": 12, "Y": 9})
        runs = [
            simulate(
                pp,
                config,
                seed=77,
                engine="batched",
                max_interactions=1_000,
                convergence_window=NO_CONVERGE,
            )
            for _ in range(2)
        ]
        assert runs[0].final.to_dict() == runs[1].final.to_dict()
        assert runs[0].productive == runs[1].productive


# ----------------------------------------------------------------------
# Whole-run pins: every field a run reports, per backend
# ----------------------------------------------------------------------
def run_digest(result) -> str:
    """blake2b over interactions, productive, silent, verdict, population,
    joined, departed, the output trace and the final configuration by
    ``repr`` (which sorts its states)."""
    fields = (
        result.interactions,
        result.productive,
        result.silent,
        result.verdict,
        result.population,
        result.joined,
        result.departed,
        list(result.output_trace),
        repr(result.final),
    )
    return hashlib.blake2b(repr(fields).encode(), digest_size=8).hexdigest()


def population_plan(seed: int, budget: int, state) -> FaultPlan:
    """Joins and leaves of 20–60 agents every ``budget/20`` interactions
    over a churn process spanning the budget: a plan the batched engine
    runs natively, at batch barriers."""
    rng = random.Random(seed)
    period = budget // 20
    faults = [
        JoinAgents(at, agents=rng.randint(20, 60), state=state)
        if j % 2 == 0
        else LeaveAgents(at, agents=rng.randint(20, 60))
        for j, at in enumerate(range(period, budget, period))
    ]
    faults.append(
        ChurnProcess(
            at=0, length=budget, join_rate=1e-5, leave_rate=1e-5, state=state
        )
    )
    return FaultPlan(faults)


#: ``(protocol, agents, seed, budget, window, variant)`` per pinned run.
#: thr2 runs at fixed budgets from 50 to 10^8 agents, thr2 runs ended by
#: the convergence window below (8, 10) and above (13) its threshold of
#: 11, a population-only fault plan, an observed run, the ``"first"``
#: tie-break, majority at 59,000 agents and Theorem 1's protocol at n=1.
RUN_CASES = (
    [
        ("thr2", n, seed, budget, NO_CONVERGE, None)
        for n, budget in (
            (50, 5_000),
            (2_000, 20_000),
            (10**5, 100_000),
            (10**6, 200_000),
            (10**8, 200_000),
        )
        for seed in (0, 1, 2)
    ]
    + [
        ("thr2", x, seed, 200_000, window, None)
        for x, window in ((8, 20), (10, 300), (13, 300))
        for seed in (0, 1, 2)
    ]
    + [("thr2", 10**5, seed, 200_000, NO_CONVERGE, "faults") for seed in (0, 1, 2)]
    + [("thr2", 2_000, seed, 20_000, NO_CONVERGE, "profiled") for seed in (0, 1)]
    + [("thr2", 50, seed, 20_000, NO_CONVERGE, "first") for seed in (0, 1)]
    + [("majority", 59_000, seed, 200_000, NO_CONVERGE, None) for seed in (0, 1, 2)]
    + [
        ("lipton1", n, 0, budget, NO_CONVERGE, None)
        for n, budget in ((10**3, 20_000), (10**6, 200_000))
    ]
)

PROTOCOL_FIXTURES = {
    "thr2": "thr2_pipeline",
    "majority": "majority",
    "lipton1": "lipton1_pipeline",
}


def case_id(case) -> str:
    proto, agents, seed, budget, window, variant = case
    parts = [proto, f"n{agents}", f"budget{budget}"]
    if window != NO_CONVERGE:
        parts.append(f"window{window}")
    if variant:
        parts.append(variant)
    return "-".join(parts + [f"seed{seed}"])


def run_case(case, request):
    proto, agents, seed, budget, window, variant = case
    pp = request.getfixturevalue(PROTOCOL_FIXTURES[proto])
    pp = getattr(pp, "protocol", pp)
    if proto == "majority":
        config = Multiset({"X": agents // 2 + 500, "Y": agents // 2 - 500})
    else:
        (init,) = pp.input_states
        config = Multiset({init: agents})
    kwargs = dict(
        seed=seed,
        engine="batched",
        max_interactions=budget,
        convergence_window=window,
    )
    if variant == "faults":
        kwargs["faults"] = population_plan(seed, budget, init)
    elif variant == "profiled":
        kwargs["observer"] = ProfilingObserver()
    elif variant == "first":
        del kwargs["engine"]
        kwargs["scheduler"] = BatchedScheduler(tie_break="first")
    return simulate(pp, config, **kwargs)


#: ``run_digest`` per case id: ``(numpy, pure)``.
RUN_PINS = {
    "thr2-n50-budget5000-seed0": ("2f047acb54cc9f49", "0cd4b6deb287a0df"),
    "thr2-n50-budget5000-seed1": ("b5fe755c47f650e7", "845b870ef40fee67"),
    "thr2-n50-budget5000-seed2": ("915d9b7864f7fdc7", "ffb228c5a1acec13"),
    "thr2-n2000-budget20000-seed0": ("1e63828d63e29d74", "403827a6c269f6cb"),
    "thr2-n2000-budget20000-seed1": ("2723e21802e4cdb7", "db3394cc3b8b02e4"),
    "thr2-n2000-budget20000-seed2": ("bbbe525240b8cd92", "efb7558c0f5f9b78"),
    "thr2-n100000-budget100000-seed0": ("6a896dab6566bf88", "32f5cce228be6f88"),
    "thr2-n100000-budget100000-seed1": ("b62d5f0d333a3bb3", "cb793cd4651926e8"),
    "thr2-n100000-budget100000-seed2": ("42d3324740341d8c", "94106104a66a35b4"),
    "thr2-n1000000-budget200000-seed0": ("09ac9f63f36a7947", "5eebc2b7a892817d"),
    "thr2-n1000000-budget200000-seed1": ("f58f08f216288198", "50a8d8579ecd61d5"),
    "thr2-n1000000-budget200000-seed2": ("77d9a25f9e2a47c8", "aeb66f4b126ac6ea"),
    "thr2-n100000000-budget200000-seed0": ("a36b945a45a1ccf5", "8696f4c58025edc1"),
    "thr2-n100000000-budget200000-seed1": ("f337d1012976ce30", "2c785bf6c0c98adb"),
    "thr2-n100000000-budget200000-seed2": ("f94ced6b17511511", "cb89ca0522eddfbb"),
    "thr2-n8-budget200000-window20-seed0": ("eb1a5abd26106a86", "fa62e5117781ac8c"),
    "thr2-n8-budget200000-window20-seed1": ("367824669cbd5e7e", "fda70e9ba59b7564"),
    "thr2-n8-budget200000-window20-seed2": ("4c7d8419f5bd45b8", "73616e4c47bb9761"),
    "thr2-n10-budget200000-window300-seed0": ("6242e0891c4f3be2", "77845bd3b573fd37"),
    "thr2-n10-budget200000-window300-seed1": ("de43863b1cea8b13", "741961eab4de00d7"),
    "thr2-n10-budget200000-window300-seed2": ("9cdb7f45f62814c1", "b1da61136e4a857d"),
    "thr2-n13-budget200000-window300-seed0": ("a252c72c433d1783", "316f6b795b339ff6"),
    "thr2-n13-budget200000-window300-seed1": ("61d9ee8cb773d5c3", "b913ca74e8a9d812"),
    "thr2-n13-budget200000-window300-seed2": ("73290687d8385e49", "deab346743b8bbb0"),
    "thr2-n100000-budget200000-faults-seed0": ("9a97fb25df3ee429", "3c8d717650cde67d"),
    "thr2-n100000-budget200000-faults-seed1": ("cc38b382a1dd001b", "6ec27d50817239aa"),
    "thr2-n100000-budget200000-faults-seed2": ("86b4313f64933d32", "03600c0f9ea25e2f"),
    "thr2-n2000-budget20000-profiled-seed0": ("1e63828d63e29d74", "403827a6c269f6cb"),
    "thr2-n2000-budget20000-profiled-seed1": ("2723e21802e4cdb7", "db3394cc3b8b02e4"),
    "thr2-n50-budget20000-first-seed0": ("6cc16f50979762bd", "3ec11e92657408d0"),
    "thr2-n50-budget20000-first-seed1": ("eef7cfc6107fd9c6", "c1cc00e30fd47ad6"),
    "majority-n59000-budget200000-seed0": ("2e31649ca777fddb", "c50eec01da08980f"),
    "majority-n59000-budget200000-seed1": ("f7b98c4077fe4c5e", "4e6be2afdd6aa49e"),
    "majority-n59000-budget200000-seed2": ("34aaee586cfc113e", "305d2de6477a0a56"),
    "lipton1-n1000-budget20000-seed0": ("d2c6e3326035b95f", "34d9a860de090c30"),
    "lipton1-n1000000-budget200000-seed0": ("360c59c305e914d5", "03f9fc13f6aa2c13"),
}


class TestRunPins:
    """Whole runs pinned per backend, from 8 agents to 10^8: the batch
    sampler, chunk resolution, collision draws, silence checks, fault
    barriers and output tracking must keep every seeded run
    bit-identical."""

    @both_backends
    @pytest.mark.parametrize("case", RUN_CASES, ids=case_id)
    def test_run_is_pinned(self, backend_env, case, request):
        result = run_case(case, request)
        expected = RUN_PINS[case_id(case)][backend_env == "pure"]
        assert run_digest(result) == expected, (
            result.interactions,
            result.productive,
            result.silent,
            result.verdict,
            result.population,
        )


# ----------------------------------------------------------------------
# Populations at numpy's limit
# ----------------------------------------------------------------------
class TestNumpyPopulationLimit:
    """numpy's hypergeometric samplers take no population of
    ``NUMPY_POPULATION_LIMIT`` (10^9) agents or more: such a run samples
    with the pure sampler from its start, or from the batch barrier where
    joins carry it across the limit."""

    def test_run_at_the_limit(self, thr2_pipeline):
        pp = thr2_pipeline.protocol
        (init,) = pp.input_states
        result = simulate(
            pp,
            Multiset({init: NUMPY_POPULATION_LIMIT}),
            seed=1,
            max_interactions=10_000,
            convergence_window=NO_CONVERGE,
        )
        assert result.interactions == 10_000
        assert result.population == result.final.size == 10**9

    def test_joins_cross_the_limit(self, thr2_pipeline):
        pp = thr2_pipeline.protocol
        (init,) = pp.input_states
        result = simulate(
            pp,
            Multiset({init: NUMPY_POPULATION_LIMIT - 10}),
            seed=1,
            max_interactions=10_000,
            convergence_window=NO_CONVERGE,
            faults=FaultPlan([JoinAgents(1_000, agents=100, state=init)]),
        )
        assert result.interactions == 10_000
        assert result.joined == 100
        assert result.population == result.final.size == 10**9 + 90


# ----------------------------------------------------------------------
# The exact pairing law of one batch, per sampler
# ----------------------------------------------------------------------
def bounded_compositions(total, bounds):
    """Every vector ``v`` with ``0 <= v[j] <= bounds[j]`` summing to
    ``total``."""
    if not bounds:
        if total == 0:
            yield ()
        return
    for head in range(min(total, bounds[0]) + 1):
        for tail in bounded_compositions(total - head, bounds[1:]):
            yield (head,) + tail


def tables(rows, columns):
    """Every non-negative integer matrix with the given row and column
    sums."""
    if not rows:
        if not any(columns):
            yield ()
        return
    for row in bounded_compositions(rows[0], columns):
        rest = tuple(c - r for c, r in zip(columns, row))
        for below in tables(rows[1:], rest):
            yield (row,) + below


def pairing_law(colors, length):
    """Each outcome of one batch of ``length`` pairs over agents with
    state counts ``colors`` (``m`` agents in all) — the pair table ``M``
    as ``(initiator, responder, count)`` triples and the untouched counts
    — with its exact probability, the product of

    * ``P(I) = Π C(c_a, I_a) / C(m, l)`` for the initiator counts,
    * ``P(R | I) = Π C(c_a - I_a, R_a) / C(m - l, l)`` for the responder
      counts, and
    * ``P(M | I, R) = Π I_a! · Π R_b! / (l! · Π M_ab!)``, the uniform
      matching of the two sides."""
    m = sum(colors)
    law = {}
    for inits in bounded_compositions(length, colors):
        p_init = prod(map(comb, colors, inits)) / comb(m, length)
        left = tuple(c - i for c, i in zip(colors, inits))
        for resps in bounded_compositions(length, left):
            p_resp = prod(map(comb, left, resps)) / comb(m - length, length)
            fresh = tuple(c - r for c, r in zip(left, resps))
            sides = prod(map(factorial, inits)) * prod(map(factorial, resps))
            for table in tables(inits, resps):
                cells = tuple(
                    (a, b, x)
                    for a, row in enumerate(table)
                    for b, x in enumerate(row)
                    if x
                )
                p_match = sides / (
                    factorial(length) * prod(factorial(x) for _, _, x in cells)
                )
                law[cells, fresh] = p_init * p_resp * p_match
    return law


def chi2_critical_001(df):
    """Upper 0.1% point of the chi-square law: the table for small
    ``df``, the Wilson–Hilferty approximation above it."""
    if df in CHI2_CRIT_001:
        return CHI2_CRIT_001[df]
    h = 2 / (9 * df)
    return df * (1 - h + 3.090232 * sqrt(h)) ** 3


def one_sample_chi2(counts, law, draws):
    """``(statistic, df)`` of observed outcome counts against ``law``,
    pooling the outcomes expected fewer than five times into one bin."""
    stat = 0.0
    bins = 0
    pooled_obs = pooled_exp = 0.0
    for outcome, p in law.items():
        expected = p * draws
        observed = counts.get(outcome, 0)
        if expected < 5:
            pooled_obs += observed
            pooled_exp += expected
            continue
        stat += (observed - expected) ** 2 / expected
        bins += 1
    if pooled_exp:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        bins += 1
    return stat, bins - 1


#: ``(colors, length)`` per case: a three-state batch (42 outcomes),
#: seven states two pairs deep, and a four-state batch long enough for
#: every row of the rows path to take several draws.
PAIRING_CASES = [((3, 2, 2), 3), ((2, 1, 3, 1, 1, 2, 1), 2), ((4, 3, 3, 2), 5)]

#: The sampler class and method of each path that draws a batch.
PAIRING_PATHS = {
    "numpy-permutation": (_NumpySampler, "pairs_by_permutation"),
    "numpy-rows": (_NumpySampler, "pairs_by_rows"),
    "pure": (_PureSampler, "sample_pairs"),
}


class TestPairingLaw:
    """Each sampler path draws one batch's pair table by the exact law of
    the uniform pair scheduler: a one-sample chi-square at 0.1% over
    every outcome, 20,000 seeded batches per case."""

    DRAWS = 20_000

    @pytest.mark.parametrize("path", sorted(PAIRING_PATHS))
    @pytest.mark.parametrize(
        "colors, length", PAIRING_CASES, ids=lambda v: str(v).replace(" ", "")
    )
    def test_pair_table_follows_the_exact_law(self, path, colors, length):
        cls, method = PAIRING_PATHS[path]
        if cls is _NumpySampler and _numpy() is None:
            pytest.skip("numpy not installed")
        k = len(colors)
        draw = getattr(cls(random.Random(2023), k, sum(colors)), method)
        law = pairing_law(colors, length)
        counts = {}
        for _ in range(self.DRAWS):
            # Local ids: with ``occ = 0..k-1`` and ``S = k`` a pair code
            # ``a*k + b`` decodes to ``(a, b)``.
            pairs, fresh = draw(list(range(k)), list(colors), length)
            cells = tuple(sorted((c // k, c % k, x) for c, x in pairs))
            outcome = (cells, tuple(fresh))
            assert outcome in law, outcome
            counts[outcome] = counts.get(outcome, 0) + 1
        stat, df = one_sample_chi2(counts, law, self.DRAWS)
        assert stat < chi2_critical_001(df), (stat, df)


class TestSilenceCheck:
    """The batched engine's silence predicate equals the reference
    :func:`repro.core.semantics.is_silent`.  With a budget of 0 the
    engine runs only its final silence check, so ``.silent`` is the
    predicate itself."""

    @staticmethod
    def configurations(pp, seed: int):
        """Random small configurations (rarely silent), the final
        configurations of silent runs, and each of those with one agent
        added or removed (the boundary: a same-state pair needs two
        agents)."""
        rng = random.Random(seed)
        states = sorted(pp.states, key=repr)
        configs = []
        for _ in range(150):
            support = rng.sample(states, rng.randint(1, 5))
            config = Multiset({s: rng.randint(1, 3) for s in support})
            if config.size >= 2:
                configs.append(config)
        (init,) = pp.input_states
        for agents in range(2, 12):
            for run_seed in range(3):
                result = simulate(
                    pp,
                    Multiset({init: agents}),
                    seed=run_seed,
                    engine="fast",
                    max_interactions=20_000,
                    convergence_window=NO_CONVERGE,
                )
                if not result.silent:
                    continue
                final = Multiset(result.final.to_dict())
                configs.append(final)
                grown = final.copy()
                grown.inc(rng.choice(states))
                configs.append(grown)
                if final.size > 2:
                    shrunk = final.copy()
                    shrunk.dec(rng.choice(sorted(final.support(), key=repr)))
                    configs.append(shrunk)
        return configs

    @pytest.mark.parametrize("proto", ["thr2_pipeline", "binary6"])
    def test_silence_check_matches_reference(self, proto, request):
        pp = request.getfixturevalue(proto)
        pp = getattr(pp, "protocol", pp)
        outcomes = set()
        for config in self.configurations(pp, seed=17):
            expected = is_silent(pp, config)
            result = simulate(
                pp, config, seed=0, engine="batched", max_interactions=0
            )
            assert result.silent == expected, repr(config)
            outcomes.add(expected)
        assert outcomes == {True, False}


# ----------------------------------------------------------------------
# Distributional equivalence vs the per-step uniform engine
# ----------------------------------------------------------------------
class TestDistributionalEquivalence:
    @both_backends
    def test_fixed_budget_configuration_chi2(self, backend_env):
        # After exactly 200 uniform interactions from X=25/Y=16 the
        # b-side count is a nontrivial statistic of the full trajectory;
        # 250 runs per engine, binned, two-sample chi-square at 0.1%.
        pp = majority_protocol()
        config = Multiset({"X": 25, "Y": 16})
        bins = [0, 5, 11, 17, 23, 10**9]

        def binned(seed0, **kwargs):
            values = []
            for s in range(250):
                final = simulate(
                    pp,
                    config,
                    seed=seed0 + s,
                    max_interactions=200,
                    convergence_window=NO_CONVERGE,
                    **kwargs,
                ).final
                values.append(final["Y"] + final["y"])
            return [
                sum(1 for v in values if lo <= v < hi)
                for lo, hi in zip(bins, bins[1:])
            ]

        batched = binned(0, engine="batched")
        perstep = binned(10_000, scheduler=FastUniformScheduler())
        stat = two_sample_chi2(batched, perstep)
        assert stat < CHI2_CRIT_001[len(bins) - 2], (stat, batched, perstep)

    @both_backends
    def test_cascade_runs_to_exact_silence(self, backend_env):
        pp, config = cascade_protocol(40)
        result = simulate(pp, config, seed=5, engine="batched")
        assert result.verdict is True
        assert result.silent
        assert result.final.to_dict() == {"b": 41}
        assert result.productive == 40


# ----------------------------------------------------------------------
# Verdict agreement across protocols and engines
# ----------------------------------------------------------------------
class TestVerdictAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_baselines_agree_with_fast_engine(
        self, majority, unary5, binary6, remainder3, seed
    ):
        cases = [
            (majority, Multiset({"X": 13, "Y": 8})),
            (unary5, Multiset({next(iter(unary5.input_states)): 7})),
            (binary6, Multiset({next(iter(binary6.input_states)): 11})),
            (remainder3, Multiset({next(iter(remainder3.input_states)): 6})),
        ]
        for pp, config in cases:
            kwargs = dict(seed=seed, attempts=3, max_interactions=500_000)
            assert decide(pp, config, engine="batched", **kwargs) == decide(
                pp, config, engine="fast", **kwargs
            ), (pp.name, seed)

    def test_threshold_protocol_agrees(self, lipton1_pipeline):
        # Populations that run to *exact silence* (trajectory-independent
        # verdicts) on the Theorem 1 protocol; window-heuristic verdicts
        # are engine-sensitive by design — the batched engine samples the
        # output only at batch boundaries.
        pp = lipton1_pipeline.protocol
        init = next(iter(pp.input_states))
        for n, seed in [(3, 0), (5, 0), (8, 1)]:
            config = Multiset({init: n})
            kwargs = dict(seed=seed, attempts=2, max_interactions=200_000)
            assert decide(pp, config, engine="batched", **kwargs) == decide(
                pp, config, engine="fast", **kwargs
            ), (n, seed)

    def test_parallel_matches_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        pp = majority_protocol()
        config = Multiset({"X": 9, "Y": 6})
        kwargs = dict(seed=21, attempts=4, engine="batched")
        assert decide(pp, config, jobs=2, **kwargs) == decide(
            pp, config, jobs=1, **kwargs
        )


# ----------------------------------------------------------------------
# Batch-granularity observability
# ----------------------------------------------------------------------
class TestBatchedObservability:
    def test_batch_events_account_for_every_interaction(self):
        pp = majority_protocol()
        config = Multiset({"X": 40, "Y": 25})
        profiler = ProfilingObserver()
        result = simulate(
            pp,
            config,
            seed=8,
            engine="batched",
            observer=profiler,
            max_interactions=3_000,
            convergence_window=NO_CONVERGE,
        )
        counters = profiler.metrics.counters
        assert counters["sim.collapsed"].value == result.interactions
        assert counters["sim.engine[batched]"].value == 1
        assert counters["sim.batch.multinomial"].value > 0
        # Every batch boundary is a collision interaction.
        assert counters["sim.batch.collisions"].value > 0

    def test_observation_does_not_change_the_run(self):
        pp = majority_protocol()
        config = Multiset({"X": 14, "Y": 9})
        kwargs = dict(
            seed=4,
            engine="batched",
            max_interactions=2_000,
            convergence_window=NO_CONVERGE,
        )
        bare = simulate(pp, config, **kwargs)
        observed = simulate(pp, config, observer=TraceRecorder(), **kwargs)
        assert bare.final.to_dict() == observed.final.to_dict()
        assert bare.productive == observed.productive

    def test_per_interaction_recording_gets_truncated_warning(self):
        pp, config = cascade_protocol(20)
        recorder = TraceRecorder()  # default: records everything
        simulate(pp, config, seed=0, engine="batched", observer=recorder)
        warnings = [e for e in recorder.events if e.kind == ev.TRUNCATED]
        assert len(warnings) == 1
        assert warnings[0].data["engine"] == "batched"
        assert "per-interaction" in warnings[0].data["reason"]
        # And the run genuinely emitted no per-interaction events.
        assert not any(e.kind == ev.INTERACTION for e in recorder.events)

    def test_batch_granular_recording_is_not_warned(self):
        pp, config = cascade_protocol(20)
        recorder = TraceRecorder(kinds={ev.BATCH, ev.RUN_START, ev.RUN_END})
        simulate(pp, config, seed=0, engine="batched", observer=recorder)
        assert not any(e.kind == ev.TRUNCATED for e in recorder.events)
        assert any(e.kind == ev.BATCH for e in recorder.events)

    def test_warning_reaches_recorders_inside_composites(self):
        pp, config = cascade_protocol(20)
        recorder = TraceRecorder()
        composite = CompositeObserver(ProfilingObserver(), recorder)
        simulate(pp, config, seed=0, engine="batched", observer=composite)
        assert any(e.kind == ev.TRUNCATED for e in recorder.events)
