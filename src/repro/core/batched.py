"""Batched multinomial simulation engine: bulk interactions for huge n.

The fast path of :mod:`repro.core.fastpath` executes one interaction at a
time (plus geometric null-run skip-ahead).  That caps practical runs
around ``n ≈ 10^5`` agents — far below the regime the paper's
double-exponential thresholds are about, where the population is
astronomically larger than the reachable state set.  This module adopts
the ppsim batching algorithm (Berenbrink, Hammer, Kaaser, Meyer,
Penschuck, Tran — arXiv:2005.03584): instead of stepping agents, sample
how an entire *batch* of interactions decomposes over ordered state
pairs, and apply the whole batch as one set of count deltas.

The batch law, exactly
----------------------

Run the textbook uniform-pair scheduler and mark the first interaction in
which an agent participates for the *second* time (the "collision").  The
number ``L`` of interactions strictly before the collision satisfies::

    P(L >= l) = n! / (n - 2l)!  /  (n(n-1))^l          (l >= 1)

because the first ``l`` interactions involve ``2l`` distinct agents.
Conditioned on ``L = l``, those ``2l`` agents are a uniform ordered
sample without replacement from the population, so the initiator/responder
*state* counts of the batch follow nested multivariate hypergeometrics of
the configuration, and pairing is a uniform random matching between them.
Agents are exchangeable and the process is Markov in the configuration,
so after applying the batch (and the one collision interaction, which
reuses exactly one of the ``2l`` touched agents) the engine simply starts
a fresh batch.  Every distributional statement above is exact — the
batched engine samples the *same* law over configuration trajectories as
the per-step uniform scheduler, only aggregated.

Three details worth pinning down:

* **Null interactions consume agents.**  The batch decomposition is by
  agent identity, not by whether a transition exists for a state pair, so
  pairs with no transition still occupy their two slots in the batch (and
  still count as interactions, matching the uniform model).
* **Budget truncation is exact.**  If the sampled ``L`` meets or exceeds
  the remaining interaction budget ``r``, the first ``r`` interactions of
  the batch are ``r`` all-distinct pairs — conditioned on ``L >= r`` they
  are exchangeable — so the engine applies exactly ``r`` of them and
  stops, with no collision step.
* **Bulk application cannot go negative.**  A batch consumes at most the
  sampled initiator+responder counts, which are drawn without replacement
  from the configuration, so intermediate orderings never matter:
  ``DenseConfig`` applies the net deltas in one pass.

Engine selection and fidelity
-----------------------------

:class:`BatchedScheduler` joins the ``Fast*``/legacy scheduler families;
``simulate(..., engine="batched")`` (or ``REPRO_ENGINE=batched``) selects
it.  Per-step engines remain the bit-exact reference: the batched engine
is *distribution*-equivalent (pinned by chi-square tests in
``tests/core/test_batched.py``), not stream-identical.  Output tracking
is batch-granular: the accepting-agent count is updated per batch, so an
output flip that both appears and disappears strictly inside one batch is
not observed — the same character of heuristic as the convergence window
itself.  Silence, by contrast, stays exact and is checked every batch.

numpy is optional (the ``repro[batch]`` extra).  With it, a batch is
sampled by numpy's hypergeometric draws, one of two exact ways per
batch (see :class:`_NumpySampler`).  Without it, with
``REPRO_NO_NUMPY=1``, or from ``NUMPY_POPULATION_LIMIT`` = 10^9 agents
up (numpy rejects such counts), a pure stdlib sampler draws the ``2l``
agents sequentially — same law, lower throughput.  Both backends layer
on the run's ``random.Random`` stream: the Python rng drives batch
lengths and collision draws, and the numpy generator (when present) is
seeded once per run from that stream, so runs are deterministic per
(seed, backend).

Cost
----

A call builds nothing over the compiled table: chunks resolve, and
silence is decided, through the uniform mode's dense pair map.  A
batch's Python work grows with the occupied support — the states with a
positive count — never with ``|Q|``: the samplers draw over the
support, and the count deltas and post-batch states are sparse.  From
the all-input configuration (seed 1), a batch's support averages 3–5
states on the 294-state thr2 protocol at n = 10^5 … 10^8, and 16.5 (at
most 21) at n = 10^3 on Theorem 1's 876-state protocol at n=1.  The
numpy draws still dominate what is left: on thr2 at n = 10^5 … 10^8
pairing takes 41–57% of a call (14–32 µs per batch, mostly numpy's
per-call cost of about 2 µs a scalar draw) and the batch-length
bisection 10–24% (6–8 µs per batch).  On Theorem 1's protocol at n=1
(2-vCPU VM, min-of-3) a one-interaction call takes 0.15 ms, and the
engine runs 0.34M interactions/s at n = 10^3, 1.05M/s at 10^4, 11M/s at
10^6 and 185M/s at 10^8.
"""

from __future__ import annotations

import os
from math import lgamma, log
from time import monotonic
from typing import Dict, List, Optional

from repro.core.errors import InvalidConfigurationError, NonConvergenceError
from repro.core.fastpath import _FLOAT_SAFE_TOTAL, _NEVER, get_table
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol
from repro.core.scheduler import UniformPairScheduler
from repro.observability import events as ev
from repro.observability.events import LAYER_PROTOCOL

_np = None
_np_checked = False

#: numpy's hypergeometric samplers reject a sum of colors, or an
#: ``ngood``/``nbad``, of 10^9 or more; at or above this population a run
#: uses the pure sampler.
NUMPY_POPULATION_LIMIT = 10**9

#: Per-batch cost of the numpy sampler's two paths, in µs on a 2-vCPU
#: VM (numpy 2.4, fitted to 400 batches of each seed-1 run on thr2 and
#: Theorem 1's protocol at n=1, 10^3 … 10^8 agents): the rows path costs
#: about ``_ROWS_DRAW_COST·|support|²``, the permutation path
#: ``_PERMUTE_COST + _PERMUTE_PAIR_COST·l``.  The cheaper one by this
#: rule costs within 2% of the faster path per batch on each run.
_ROWS_DRAW_COST = 1.9
_PERMUTE_COST = 48.0
_PERMUTE_PAIR_COST = 0.024


def _numpy():
    """Import numpy on first use (so ``import repro.core`` stays cheap and
    dependency-free); returns the module or ``None``."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:  # pragma: no cover - exercised via both CI environments
            import numpy

            _np = numpy
        except ImportError:  # pragma: no cover
            _np = None
    return _np


def numpy_available() -> bool:
    """True when the numpy acceleration path is importable *and* not
    disabled via ``REPRO_NO_NUMPY`` (any non-empty value).  Checked per
    run, so tests can pin the pure fallback with ``monkeypatch.setenv``."""
    return _numpy() is not None and not os.environ.get("REPRO_NO_NUMPY")


class BatchedScheduler(UniformPairScheduler):
    """Scheduler marker selecting the batched multinomial engine.

    Semantics are those of :class:`UniformPairScheduler` (null steps
    counted, parallel time unchanged) executed in bulk;
    ``tie_break`` keeps its meaning for multi-candidate pairs.  The
    inherited per-step ``select`` remains as a fallback for ``n < 2``
    populations.  Population-only fault plans (joins/leaves, including
    expanded :class:`~repro.resilience.churn.ChurnProcess` schedules) run
    batched natively — the next trigger is a batch barrier and the
    population resizes strictly *between* batches; plans with any
    per-interaction kind (drops, duplicates, corruption, unfair or
    adversarial windows) still degrade to the per-step fast uniform loop,
    which materialises the granularity they need.
    """


# ----------------------------------------------------------------------
# Dense configuration
# ----------------------------------------------------------------------
class DenseConfig(Multiset):
    """Array-backed configuration over a fixed state universe.

    Behaves exactly like :class:`Multiset` (same equality, iteration,
    pickling) but additionally maintains ``cnt`` — a dense
    integer vector indexed by ``sid[state]`` — so the batched engine can
    read counts and apply whole batches of deltas without hashing states.
    The universe is fixed at construction: mutating a state outside it is
    an :class:`InvalidConfigurationError` (a plain ``Multiset`` would
    silently grow).
    """

    __slots__ = ("states", "sid", "cnt")

    def __init__(self, states, counts=None):
        self.states = tuple(states)
        self.sid: Dict[object, int] = {s: i for i, s in enumerate(self.states)}
        if len(self.sid) != len(self.states):
            raise InvalidConfigurationError("duplicate states in universe")
        super().__init__(counts)
        self.cnt: List[int] = [0] * len(self.states)
        for state, count in self._counts.items():
            idx = self.sid.get(state)
            if idx is None:
                raise InvalidConfigurationError(
                    f"state {state!r} is not in this DenseConfig's universe"
                )
            self.cnt[idx] = count

    def inc(self, state, amount: int = 1) -> None:
        idx = self.sid.get(state)
        if idx is None:
            raise InvalidConfigurationError(
                f"state {state!r} is not in this DenseConfig's universe"
            )
        super().inc(state, amount)  # validates non-negativity first
        self.cnt[idx] += amount

    def occupied(self) -> List[int]:
        """The ids of the states with a positive count, ascending — read
        from the map of positive counts, so O(|support|), not O(|Q|)."""
        sid = self.sid
        return sorted([sid[state] for state in self._counts])

    def apply_sid_deltas(self, deltas) -> None:
        """Apply ``(state_id, delta)`` pairs as one bulk update.

        Raises (before mutating anything) if any count would go negative.
        """
        counts = self._counts
        cnt = self.cnt
        states = self.states
        for idx, delta in deltas:
            if cnt[idx] + delta < 0:
                raise InvalidConfigurationError(
                    f"count of {states[idx]!r} would become negative"
                )
        for idx, delta in deltas:
            if not delta:
                continue
            state = states[idx]
            new = cnt[idx] + delta
            cnt[idx] = new
            if new:
                counts[state] = new
            else:
                counts.pop(state, None)
            self._size += delta

    def apply_deltas(self, deltas: Dict[object, int]) -> None:
        """State-keyed convenience wrapper over :meth:`apply_sid_deltas`."""
        sid = self.sid
        try:
            pairs = [(sid[state], delta) for state, delta in deltas.items()]
        except KeyError as exc:
            raise InvalidConfigurationError(
                f"state {exc.args[0]!r} is not in this DenseConfig's universe"
            ) from None
        self.apply_sid_deltas(pairs)

    def copy(self) -> "DenseConfig":
        fresh = DenseConfig.__new__(DenseConfig)
        fresh.states = self.states
        fresh.sid = self.sid
        fresh.cnt = list(self.cnt)
        fresh._counts = dict(self._counts)
        fresh._size = self._size
        return fresh

    def __getstate__(self):
        return {"states": self.states, "counts": dict(self._counts)}

    def __setstate__(self, state):
        self.__init__(state["states"], state["counts"])

    def __reduce__(self):
        return (DenseConfig, (self.states, dict(self._counts)))


# ----------------------------------------------------------------------
# Batch samplers
# ----------------------------------------------------------------------
class _SamplerBase:
    """Shared draws that always come from the Python ``random.Random``
    stream, so switching the pairing backend only reorders *backend*
    randomness, never the batch-length/collision stream."""

    def __init__(self, rng, n_states: int, population: int):
        self.rng = rng
        self.S = n_states
        self.set_population(population)

    def set_population(self, m: int) -> None:
        """(Re-)derive the cached batch-length constants for population
        ``m`` — called at construction and whenever churn resizes the
        population between batches.  ``m < 2`` raises a clean
        :class:`~repro.core.errors.NonConvergenceError` (the batch law
        divides by ``m(m-1)``): the driver routes such populations
        through its no-pair handling instead of sampling."""
        if m < 2:
            raise NonConvergenceError(
                f"batched sampling needs a population of at least 2 "
                f"agents, got {m}: no interaction pair exists"
            )
        self.m = m
        if m <= _FLOAT_SAFE_TOTAL:
            # Constants of log P(L >= l); see module docstring.
            self._lgn1 = lgamma(m + 1)
            self._lognn = log(m) + log(m - 1)
        else:  # astronomically large n: collisions are unobservable
            self._lgn1 = None
            self._lognn = None

    # -- batch length --------------------------------------------------
    def batch_length(self) -> int:
        """One draw of ``L`` by inverse transform over the exact tail
        ``P(L >= l)``, via binary search on its (decreasing) logarithm.
        ``L >= 1`` always; the cost is ~``log2(n/2)`` lgamma pairs."""
        m = self.m
        if m < 2:
            raise NonConvergenceError(
                f"batch-length inversion is undefined for population {m}: "
                f"no interaction pair exists"
            )
        if self._lgn1 is None:
            # P(L >= l) ~ 1 for every l within any realistic budget; the
            # caller's budget-truncation rule does the rest, exactly.
            return m // 2
        u = 1.0 - self.rng.random()  # (0, 1]
        logu = log(u)
        lgn1 = self._lgn1
        lognn = self._lognn
        hi = m // 2
        if lgn1 - lgamma(m - 2 * hi + 1) - hi * lognn >= logu:
            return hi
        lo = 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if lgn1 - lgamma(m - 2 * mid + 1) - mid * lognn >= logu:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # -- small weighted draws (collision step, pure sampler) -----------
    def _randbelow(self, total: int) -> int:
        if total <= _FLOAT_SAFE_TOTAL:
            x = int(self.rng.random() * total)
            return total - 1 if x >= total else x
        return self.rng.randrange(total)

    def _draw_state(self, pairs, total: int) -> int:
        """One state id from ``(state, count)`` pairs in ascending state
        order, weighted by count (the counts sum to ``total``)."""
        x = self._randbelow(total)
        acc = 0
        for s, c in pairs:
            acc += c
            if acc > x:
                return s
        raise AssertionError("weighted draw overran its total")

    def sample_collision(self, upost, fresh, used: int, untouched: int):
        """The collision interaction's ordered state pair.

        The initiator/responder are a uniform ordered agent pair among
        ``(used, used)``, ``(used, fresh)`` and ``(fresh, used)`` —
        weights ``u(u-1)``, ``u·f``, ``f·u`` — i.e. every ordered pair
        except two untouched agents (that would extend the batch).
        ``upost`` maps each post-batch state of the ``used`` agents to its
        count; ``fresh`` lists the untouched agents as ``(state, count)``
        pairs in ascending state order.
        """
        u, f = used, untouched
        uu = u * (u - 1)
        uf = u * f
        x = self._randbelow(uu + 2 * uf)
        post = sorted(upost.items())
        if x < uu:
            a = self._draw_state(post, u)
            b = self._draw_state(
                [(s, c - 1 if s == a else c) for s, c in post], u - 1
            )
        elif x < uu + uf:
            a = self._draw_state(post, u)
            b = self._draw_state(fresh, f)
        else:
            a = self._draw_state(fresh, f)
            b = self._draw_state(post, u)
        return a, b


class _PureSampler(_SamplerBase):
    """Stdlib-only batch sampler: the ``2l`` batch agents are drawn
    sequentially without replacement, pair by pair.  Same law as the
    numpy path, linear in ``l·|support|``."""

    backend = "pure"

    def sample_pairs(self, occ, colors, length: int):
        """One batch over the occupied states ``occ`` (ascending ids) with
        counts ``colors``.  Returns ``(pairs, fresh)``: ``pairs`` lists
        each encoded ordered state pair ``a*S + b`` with its interaction
        count, in order of first occurrence; ``fresh[j]`` counts the
        agents of state ``occ[j]`` the batch did not touch.  ``colors``
        is consumed: it becomes ``fresh``."""
        S = self.S
        rem = self.m
        pairs: Dict[int, int] = {}
        rng_random = self.rng.random
        randrange = self.rng.randrange
        float_safe = _FLOAT_SAFE_TOTAL
        for _ in range(length):
            code = 0
            for _side in (0, 1):
                if rem <= float_safe:
                    x = int(rng_random() * rem)
                    if x >= rem:
                        x = rem - 1
                else:
                    x = randrange(rem)
                acc = 0
                for j, c in enumerate(colors):
                    acc += c
                    if acc > x:
                        break
                colors[j] -= 1
                rem -= 1
                code = code * S + occ[j]
            pairs[code] = pairs.get(code, 0) + 1
        return list(pairs.items()), colors

    def split(self, k: int, ncands: int):
        """Uniform multinomial split of ``k`` tied interactions over
        ``ncands`` candidates."""
        out = [0] * ncands
        rng_random = self.rng.random
        for _ in range(k):
            out[int(rng_random() * ncands)] += 1
        return out


def _hyper_chain(hyper, colors, total: int, n: int) -> List[int]:
    """One ``MVH(colors, n)`` draw as a chain of scalar hypergeometrics:
    state ``j`` takes ``Hyp(colors[j], rest, n left)`` of the sample,
    where ``rest`` counts the agents of the states after ``j``.
    ``colors`` sums to ``total``; the chain stops once the sample is
    spent or only one state is left to hold it."""
    out = [0] * len(colors)
    for j, c in enumerate(colors):
        if not n:
            break
        total -= c
        if not total:
            out[j] = n
            break
        if c:
            x = hyper(c, total, n)
            out[j] = x
            n -= x
    return out


class _NumpySampler(_SamplerBase):
    """numpy batch sampler, with two exact paths over the *occupied*
    states.  Both draw the initiator counts ``I ~ MVH(C, l)`` and the
    responder counts ``R ~ MVH(C - I, l)``; they differ in how they pair
    the two sides by a uniform random matching.

    * **Permutation** (short, wide batches): ``I`` and ``R`` come from
      ``multivariate_hypergeometric``; the responder sequence is permuted
      once and the ``(initiator, responder)`` pairs of local ids — the
      positions in ``occ`` — are counted over ``|support|²`` codes.
      Linear in ``l``.
    * **Rows** (long batches): ``I``, ``R`` and then each initiator
      state's row of responders, ``MVH(R left, I_a)``, are chains of
      scalar ``hypergeometric`` draws — ``O(|support|²)`` draws however
      long the batch.  A uniform matching gives the ``I_a`` slots of
      initiator state ``a`` a uniform sample without replacement of the
      responders the earlier rows left, so the rows have exactly the
      matching's law ``P(M | I, R) = Π I_a! Π R_b! / (l! Π M_ab!)``.

    :meth:`sample_pairs` picks the cheaper path per batch from ``l`` and
    ``|support|`` by the cost model of ``_ROWS_DRAW_COST`` and
    ``_PERMUTE_*``: rows on every batch over at most five states, and on
    a wider one once ``l`` makes the permutation dearer than its draws.
    """

    backend = "numpy"

    def __init__(self, rng, n_states: int, population: int):
        super().__init__(rng, n_states, population)
        # One Python-stream draw seeds the backend generator, keeping the
        # run a pure function of (seed, backend).
        self.np_rng = _np.random.default_rng(rng.getrandbits(64))

    def sample_pairs(self, occ, colors, length: int):
        """Same contract as :meth:`_PureSampler.sample_pairs`, with the
        pairs in ascending code order."""
        k = len(occ)
        permute = _PERMUTE_COST + _PERMUTE_PAIR_COST * length
        if _ROWS_DRAW_COST * k * k < permute:
            return self.pairs_by_rows(occ, colors, length)
        return self.pairs_by_permutation(occ, colors, length)

    def pairs_by_rows(self, occ, colors, length: int):
        """The rows path of :meth:`sample_pairs`: ``O(|support|²)``
        scalar draws, independent of ``length``."""
        hyper = self.np_rng.hypergeometric
        initiators = _hyper_chain(hyper, colors, self.m, length)
        left = [c - i for c, i in zip(colors, initiators)]
        responders = _hyper_chain(hyper, left, self.m - length, length)
        fresh = [c - r for c, r in zip(left, responders)]
        S = self.S
        pairs = []
        pool = responders  # the responders no row has taken yet
        rest = length
        for a, row_size in zip(occ, initiators):
            if not row_size:
                continue
            if row_size == rest:  # the last row takes every responder left
                row = pool
            else:
                row = _hyper_chain(hyper, pool, rest, row_size)
            base = a * S
            for b, count in zip(occ, row):
                if count:
                    pairs.append((base + b, count))
            if row is not pool:
                pool = [p - r for p, r in zip(pool, row)]
            rest -= row_size
        return pairs, fresh

    def pairs_by_permutation(self, occ, colors, length: int):
        """The permutation path of :meth:`sample_pairs`.  ``occ`` is
        ascending, so local ids order and permute exactly as global ids
        would."""
        np_rng = self.np_rng
        k = len(occ)
        colors = _np.array(colors, dtype=_np.int64)
        initiators = np_rng.multivariate_hypergeometric(colors, length)
        responders = np_rng.multivariate_hypergeometric(
            colors - initiators, length
        )
        local = _np.arange(k)
        init_seq = _np.repeat(local, initiators)
        resp_seq = np_rng.permutation(_np.repeat(local, responders))
        counts = _np.bincount(init_seq * k + resp_seq)
        codes = _np.flatnonzero(counts)
        S = self.S
        pairs = [
            (occ[c // k] * S + occ[c % k], n)
            for c, n in zip(codes.tolist(), counts[codes].tolist())
        ]
        return pairs, (colors - initiators - responders).tolist()

    def split(self, k: int, ncands: int):
        return self.np_rng.multinomial(
            k, [1.0 / ncands] * ncands
        ).tolist()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _per_interaction_recorders(obs):
    """TraceRecorders in the observer tree that would record
    per-interaction events — the granularity a batched run never emits."""
    from repro.observability.observer import CompositeObserver
    from repro.observability.trace import TraceRecorder

    found = []

    def walk(node):
        if node is None:
            return
        if isinstance(node, CompositeObserver):
            for child in node.observers:
                walk(child)
            return
        if isinstance(node, TraceRecorder):
            if node.kinds is None or ev.INTERACTION in node.kinds:
                found.append(node)

    walk(obs)
    return found


def run_batched_simulation(
    protocol: PopulationProtocol,
    current: Multiset,
    *,
    population: int,
    rng,
    scheduler: BatchedScheduler,
    max_interactions: int,
    convergence_window: int,
    check_silence_every: int,  # accepted for signature parity; silence is per batch
    obs,
    trace,
    stable_output: Optional[bool],
    injector=None,
    deadline_at=None,
):
    """Drop-in driver used by :func:`repro.core.simulate` for
    :class:`BatchedScheduler` — same contract as
    :func:`repro.core.fastpath.run_fast_simulation`, batch-granular
    events (``on_batch`` with kinds ``"multinomial"``/``"collision"``),
    and exact silence checked every batch.

    ``injector`` must carry a *population-only* plan (joins/leaves; the
    caller checks ``injector.population_only()``).  Triggers are batch
    barriers: a batch is truncated at the next trigger exactly like at
    the interaction budget — conditioned on ``L >= r`` the first ``r``
    interactions are ``r`` exchangeable all-distinct pairs, and the
    process is Markov in the configuration, so restarting the batch
    schedule at the barrier samples the same law (the module docstring's
    budget-truncation argument, verbatim).  The population therefore
    changes between batches, never mid-batch, and the sampler's cached
    inversion constants are re-derived via ``set_population``."""
    del check_silence_every  # silence is exact and per-batch here
    from repro.core.simulation import SimulationResult  # late: avoids cycle

    table = get_table(protocol)
    states = table.states
    S = len(states)
    dense = DenseConfig(states, current.to_dict())
    cnt = dense.cnt
    accepting = table.accepting
    tie_first = scheduler.tie_break == "first"
    # The *uniform* mode table keys every matched ordered pair, no-ops
    # included — exactly a batch's universe — and its pair map resolves
    # the pair ``(a, b)`` at ``a·S + b``: nothing here is built per call.
    # A rule key not built yet reads ``None`` and is built on the spot
    # (``ufill``); its records do not depend on when that happens.
    ukeys = table.uniform.keys
    upair = table.uniform.pair
    uchanging = table.uniform.changing
    ufill = table.uniform.fill

    use_numpy = numpy_available() and population < NUMPY_POPULATION_LIMIT
    sampler_cls = _NumpySampler if use_numpy else _PureSampler
    sampler = sampler_cls(rng, S, population)

    if obs is not None:
        for recorder in _per_interaction_recorders(obs):
            recorder.record(
                ev.TRUNCATED,
                0,
                layer=LAYER_PROTOCOL,
                reason=(
                    "batched engine emits batch-granularity events only; "
                    "per-interaction events are not recorded"
                ),
                engine="batched",
            )

    snapshot_every = obs.snapshot_interval if obs is not None else None
    next_snapshot = snapshot_every if snapshot_every else None
    interactions = 0
    productive = 0
    stable_since = 0
    accept = sum(cnt[s] for s in range(S) if accepting[s])
    m = population
    out = stable_output
    conv_at = stable_since + convergence_window if out is not None else _NEVER
    batches = 0
    collisions = 0
    inj = injector
    view = None
    if inj is not None:
        from repro.resilience.faults import DenseView

        view = DenseView(dense, accepting)

    def finish(verdict, silent, deadline_exceeded=False):
        joined = inj.joined if inj is not None else 0
        departed = inj.departed if inj is not None else 0
        if obs is not None:
            obs.on_run_end(
                interactions,
                LAYER_PROTOCOL,
                verdict=verdict,
                silent=silent,
                interactions=interactions,
                productive=productive,
                population=m,
                deadline_exceeded=deadline_exceeded,
                engine="batched",
                batches=batches,
                collisions=collisions,
                joined=joined,
                departed=departed,
            )
        return SimulationResult(
            final=dense,
            verdict=verdict,
            silent=silent,
            interactions=interactions,
            productive=productive,
            population=m,
            output_trace=trace,
            deadline_exceeded=deadline_exceeded,
            joined=joined,
            departed=departed,
        )

    def flip_check(step):
        nonlocal out, stable_since, conv_at
        new_out = (
            (True if accept == m else (False if accept == 0 else None))
            if m
            else None
        )
        if new_out != out:
            out = new_out
            stable_since = productive
            conv_at = (
                stable_since + convergence_window if out is not None else _NEVER
            )
            trace.append((step, out))
            if obs is not None:
                obs.on_output_flip(step, out, LAYER_PROTOCOL)

    def silent_now(occ):
        # Exact: silent iff no ordered pair of occupied states (a state
        # with itself only when it holds two agents) has a
        # configuration-changing key.  O(|support|²) lookups, first hit
        # exits.
        for a in occ:
            solo = cnt[a] < 2
            base = a * S
            for b in occ:
                if a == b and solo:
                    continue
                i = upair[base + b]
                if i < 0:
                    continue
                changing = uchanging[i]
                if changing is None:
                    ufill(i)
                    changing = uchanging[i]
                if changing:
                    return False
        return True

    while interactions < max_interactions:
        if deadline_at is not None and monotonic() >= deadline_at:
            return finish(None, False, deadline_exceeded=True)

        # ---- due faults (fire at batch barriers only) ----------------
        if inj is not None and interactions >= inj.next_at:
            view.accept_delta = 0
            inj.fire(interactions, view, obs)
            if view.accept_delta:
                accept += view.accept_delta
            if view.size_delta:
                m += view.size_delta
                view.size_delta = 0
                if m >= NUMPY_POPULATION_LIMIT and sampler.backend == "numpy":
                    # Joins crossed numpy's limit: the pure sampler takes
                    # the run over, on the same Python stream.
                    sampler = _PureSampler(rng, S, m)
                elif m >= 2:
                    sampler.set_population(m)
            flip_check(interactions)

        if m < 2:
            # One (or zero) agents: no pair will ever interact.  Only a
            # pending join can revive the run — fast-forward to it, or
            # drain the budget as null steps.
            if inj is not None and inj.next_at <= max_interactions:
                nxt = int(inj.next_at)
                if obs is not None:
                    obs.on_batch(
                        nxt, kind="null_skip", count=nxt - interactions
                    )
                interactions = nxt
                continue
            span = max_interactions - interactions
            interactions = max_interactions
            if obs is not None and span:
                obs.on_batch(interactions, kind="null_skip", count=span)
            break

        occ = dense.occupied()
        if silent_now(occ):
            if inj is not None and inj.next_at <= max_interactions:
                # Silent *for now*: a pending join/leave may re-enable
                # transitions, so silence is only final once the plan
                # is drained.
                nxt = int(inj.next_at)
                if obs is not None:
                    obs.on_batch(
                        nxt, kind="null_skip", count=nxt - interactions
                    )
                interactions = nxt
                continue
            if obs is not None:
                obs.on_silence_check(interactions, True)
            return finish(out, True)

        # ---- one batch ----------------------------------------------
        remaining = max_interactions - interactions
        if inj is not None:
            # The next trigger is a barrier no batch may cross; the
            # truncation there is exact (see the driver docstring).
            gap = inj.next_at - interactions  # inf when drained
            if gap < remaining:
                remaining = int(gap)
        length = sampler.batch_length()
        # A collision interaction follows the batch only if it fits the
        # budget; otherwise truncate the (all-distinct) batch exactly.
        collide = length < remaining
        if not collide:
            length = remaining
        pairs, fresh = sampler.sample_pairs(
            occ, [cnt[s] for s in occ], length
        )
        end_step = interactions + length

        # Sparse over the states the batch touches: net count deltas, and
        # the post-batch states of the agents it used.
        delta_acc: Dict[int, int] = {}
        upost: Dict[int, int] = {}
        nulls = 0
        batch_productive = 0
        accept_acc = 0
        for code, k in pairs:
            i = upair[code]
            if i < 0:
                # Null interactions: no transition, but the agents are
                # still consumed by the batch.
                a, b = divmod(code, S)
                upost[a] = upost.get(a, 0) + k
                upost[b] = upost.get(b, 0) + k
                nulls += k
                continue
            cands = (ukeys[i] or ufill(i))[4]
            if len(cands) == 1 or tie_first:
                chunks = ((cands[0], k),)
            else:
                chunks = zip(cands, sampler.split(k, len(cands)))
            for cand, kc in chunks:
                if not kc:
                    continue
                _q, _r, q2, r2, ch, ad, cdeltas, t = cand
                upost[q2] = upost.get(q2, 0) + kc
                upost[r2] = upost.get(r2, 0) + kc
                for s, d in cdeltas:
                    delta_acc[s] = delta_acc.get(s, 0) + d * kc
                if ch:
                    batch_productive += kc
                accept_acc += ad * kc
                if obs is not None:
                    obs.on_batch(
                        end_step,
                        kind="multinomial",
                        count=kc,
                        transition=t,
                        productive=kc if ch else 0,
                    )
        if nulls and obs is not None:
            obs.on_batch(
                end_step, kind="multinomial", count=nulls, transition=None
            )

        # Ascending state ids: a state that turns positive enters the
        # count map in a fixed order, so iteration order is deterministic.
        dense.apply_sid_deltas(sorted(delta_acc.items()))
        interactions = end_step
        productive += batch_productive
        accept += accept_acc
        batches += 1
        flip_check(interactions)
        if obs is not None and next_snapshot and interactions >= next_snapshot:
            obs.on_snapshot(interactions, dense.to_dict(), LAYER_PROTOCOL)
            next_snapshot = (
                interactions - interactions % snapshot_every + snapshot_every
            )
        if productive >= conv_at:
            return finish(out, False)

        # ---- the collision interaction ------------------------------
        if collide:
            interactions += 1
            collisions += 1
            a, b = sampler.sample_collision(
                upost, list(zip(occ, fresh)), 2 * length, m - 2 * length
            )
            i = upair[a * S + b]
            if i < 0:
                if obs is not None:
                    obs.on_batch(interactions, kind="collision", count=1)
            else:
                cands = (ukeys[i] or ufill(i))[4]
                if len(cands) == 1 or tie_first:
                    cand = cands[0]
                else:
                    cand = cands[int(rng.random() * len(cands))]
                _q, _r, _q2, _r2, ch, ad, cdeltas, t = cand
                if cdeltas:
                    dense.apply_sid_deltas(cdeltas)
                if ch:
                    productive += 1
                accept += ad
                if obs is not None:
                    obs.on_batch(
                        interactions,
                        kind="collision",
                        count=1,
                        transition=t,
                        productive=1 if ch else 0,
                    )
                if ad:
                    flip_check(interactions)
                if productive >= conv_at:
                    return finish(out, False)

    silent = silent_now(dense.occupied())
    if obs is not None:
        obs.on_silence_check(interactions, silent)
    return finish(out if silent else None, silent)
