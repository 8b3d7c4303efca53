"""Fast-path simulation engine: incremental scheduling without rescans.

The legacy schedulers rebuild their candidate lists from the full support
on every step, making each interaction cost ``O(|support|² · |δ|)``.  One
interaction changes at most four state counts, so almost all of that work
is recomputation of unchanged weights.  This module rebuilds the hot path
around that observation:

* :class:`TransitionTable` — a per-protocol compilation (cached on the
  protocol instance): states are encoded as dense integers, every ``(q,
  r)`` pair with transitions becomes a *key* with the precomputed data the
  inner loop needs (pair-weight offset, candidate tuples with net deltas
  and output deltas), plus per-state lists of the keys each state touches.
* :class:`EnabledIndex` — the incremental index.  It maintains, per key,
  the ordered-pair weight ``c_q·(c_r − [q=r])`` (times the candidate
  multiplicity in enabled mode) and a dense *active list* of keys with
  positive weight used for weighted sampling by linear scan.  A step's
  repair recomputes just the keys touching the (≤ 4, usually fewer)
  states whose count changed, via static per-state record lists.  The
  index can :meth:`~EnabledIndex.attach` to a :class:`Multiset` and stay
  exact through arbitrary ``inc``/``dec`` calls via the multiset's change
  hooks.
* :func:`run_fast_simulation` — the drop-in driver used by
  :func:`repro.core.simulate` for the fast schedulers.  It adds O(Δ)
  output tracking (an incrementally maintained count of agents in
  accepting states replaces ``protocol.output(current)`` per step),
  geometric null-step skip-ahead for the uniform model (null runs are
  sampled from the exact geometric distribution and jumped in one go,
  preserving interaction counts and parallel time exactly), and a
  run-collapsing batch mode that applies a transition ``k`` times at once
  while it is provably the only enabled choice.  It is also the one
  place protocol-level faults are injected: a faulted run executes the
  same loops between fault barriers, fires the due faults through an
  :class:`~repro.resilience.IndexView`, and resumes; only the short
  per-step fault windows take the slower :func:`_window_step` (see
  :func:`run_fast_simulation` for the driver contract).

Sampling invariants (why the fast path is distribution-equivalent):

* enabled mode: a key's weight is ``pair_weight × #non-noop candidates``
  and the candidate within the key is chosen uniformly — identical to the
  legacy flat ``rng.choices`` over (candidate, pair_weight) pairs;
* uniform mode: a *matched* step picks a key with probability
  ``pair_weight / M`` (``M`` = total matched weight), the candidate by the
  legacy tie-break rule, and the number of null steps before it follows
  ``Geometric(M/T)`` with ``T = m(m−1)`` — exactly the law of the
  textbook "pick an ordered pair uniformly" process.

The silence predicate is exact, not heuristic: the configuration is
silent iff no key with a configuration-changing candidate has positive
pair weight, which the index answers by scanning the (small) active list.
"""

from __future__ import annotations

import random
from math import log
from time import monotonic
from typing import Dict, List, Optional, Tuple

from repro.core._gc import gc_paused
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol
from repro.core.scheduler import EnabledTransitionScheduler, UniformPairScheduler
from repro.observability.events import LAYER_PROTOCOL

#: Above this total weight ``int(random() * total)`` loses low bits; the
#: sampler switches to ``randrange`` (bit-exact, slightly slower).
_FLOAT_SAFE_TOTAL = 1 << 53

#: Convergence threshold sentinel while the output is undefined — an
#: integer ``productive`` counter never reaches it.
_NEVER = float("inf")


class FastEnabledScheduler(EnabledTransitionScheduler):
    """Incremental-index version of :class:`EnabledTransitionScheduler`.

    Samples the same distribution (enabled non-no-op transitions weighted
    by matching pair counts) but lets :func:`repro.core.simulate` run the
    incremental fast path: per-step cost proportional to the *change* per
    interaction instead of the support size.  ``select`` falls back to the
    legacy implementation, so the class is a drop-in replacement; runs are
    distribution-equivalent but not bit-identical to the legacy scheduler
    under the same seed (the random stream is consumed differently).
    """


class FastUniformScheduler(UniformPairScheduler):
    """Incremental-index version of :class:`UniformPairScheduler`.

    Preserves the textbook uniform-pair semantics — interaction counts
    include null steps and parallel time is unchanged — but null runs are
    skipped in one geometric jump and matched pairs are sampled from the
    incremental index.  Distribution-equivalent, not bit-identical, to
    the legacy scheduler under the same seed.
    """


# ----------------------------------------------------------------------
# Per-protocol compiled table
# ----------------------------------------------------------------------
class ModeTable:
    """The compiled key set for one sampling mode (enabled or uniform).

    ``keys[i] = (a, b, off, mult, cands)`` with ``off = 1`` for same-state
    pairs (pair weight ``c·(c−1)``) and ``mult`` the candidate count.
    Candidate records are ``(q, r, q2, r2, changes, accept_delta, deltas,
    transition)`` — state ids, a changed-configuration flag (no-ops *and*
    swaps are changeless), the accepting-count delta, the nonzero
    ``(state_id, net_delta)`` pairs, and the original transition.
    ``hot[i]`` carries just ``(changes, accept_delta, deltas)`` per
    candidate: the inner loops apply the *net* deltas, so a catalyst-style
    transition (one agent unchanged) touches one fewer state than a naive
    4-count update would.  ``srecs[s]`` is the static repair list of state
    ``s`` — one ``(i, partner, off, weight_mult)`` record per key touching
    ``s``, in key order (``weight_mult`` folds ``mult`` into the weight in
    enabled mode and is 1 in uniform mode); ``changing[i]`` flags keys
    with at least one configuration-changing candidate.  ``hot1[i]`` is
    the sole ``hot`` record of a single-candidate key (``None``
    otherwise), so the common case skips the tie-break draw; it is built
    here, once per table, so that entering a loop costs O(1) however
    often a faulted run re-enters it.

    Side-specific repair records: from state ``s``'s point of view a
    key's weight is ``cnt[s]·(cnt[partner] − off)·mult`` (for
    distinct-state keys ``off = 0`` and the product commutes; for
    same-state keys the partner is ``s`` itself), so the repair loops can
    hoist ``cnt[s]`` out of the per-record recomputation.  The lists are
    static — every key touching ``s``, occupied partner or not — which
    keeps repairs branch-free: a vacated partner just yields weight 0.

    :class:`TransitionTable` fills both modes in one pass through
    :meth:`add`; :meth:`freeze` then creates the repair records.
    """

    __slots__ = ("keys", "changing", "srecs", "hot", "hot1")

    def __init__(self, n_states: int):
        self.keys: list = []
        self.changing: list = []
        self.srecs: list = [[] for _ in range(n_states)]  # key ids until freeze
        self.hot: list = []
        self.hot1: list = []

    def add(self, key: tuple, changing: int, hots: tuple) -> None:
        """Append ``key`` with its flag and hot records."""
        i = len(self.keys)
        a, b = key[0], key[1]
        self.keys.append(key)
        self.changing.append(changing)
        self.hot.append(hots)
        self.hot1.append(hots[0] if len(hots) == 1 else None)
        self.srecs[a].append(i)
        if b != a:
            self.srecs[b].append(i)

    def freeze(self, fold_mult: bool) -> "ModeTable":
        """Turn the columns into tuples and the per-state key ids into
        repair records.  The records are created here, state by state, so
        that each state's list lies contiguously in memory: the index
        build and every repair walk whole lists, and records created
        inside the key loop, interleaved with the candidate records, made
        the index build twice as slow."""
        keys = self.keys = tuple(self.keys)
        srecs = []
        for s, ids in enumerate(self.srecs):
            recs = []
            for i in ids:
                a, b, off, mult, _cands = keys[i]
                recs.append((i, b if a == s else a, off, mult if fold_mult else 1))
            srecs.append(tuple(recs))
        self.srecs = tuple(srecs)
        self.changing = tuple(self.changing)
        self.hot = tuple(self.hot)
        self.hot1 = tuple(self.hot1)
        return self


class TransitionTable:
    """Dense-integer compilation of a protocol's transition structure.

    States are numbered in ``repr`` order and keys are ordered by the
    ``repr`` of their ``(q, r)`` pair, so the encoding is the same in
    every process.  The compile is one pass over the pairs, with cyclic
    GC paused (the table is acyclic): each transition's candidate record
    and hot record are built once, and the enabled key shares them with
    the uniform key.  Enabled mode samples only non-no-op transitions
    (the legacy ``EnabledTransitionScheduler``'s candidate set), uniform
    mode every matched pair; a key without no-ops is one object in both
    modes.  A no-op changes no count, so a key's ``changing`` flag is the
    same in both modes.
    """

    __slots__ = ("states", "sid", "accepting", "enabled", "uniform")

    def __init__(self, protocol: PopulationProtocol):
        with gc_paused():
            self._compile(protocol)

    def _compile(self, protocol: PopulationProtocol) -> None:
        rep = {s: repr(s) for s in protocol.states}
        self.states: Tuple[object, ...] = tuple(
            sorted(protocol.states, key=rep.__getitem__)
        )
        sid = self.sid = {s: i for i, s in enumerate(self.states)}
        acc = self.accepting = tuple(
            s in protocol.accepting_states for s in self.states
        )
        n = len(self.states)
        enabled, uniform = ModeTable(n), ModeTable(n)
        # ``(state_id, net_delta)`` pairs, one object per value (a net
        # delta is ±1 or ±2): a few thousand distinct pairs stand for
        # millions of mentions.
        dpair = [[(s, v) for v in range(-2, 3)] for s in range(n)]
        pairs = sorted(
            protocol._index.items(),
            key=lambda item: f"({rep[item[0][0]]}, {rep[item[0][1]]})",
        )
        for (q, r), ts in pairs:
            a, b = sid[q], sid[r]
            acc_pre = acc[a] + acc[b]
            recs: List[tuple] = []
            hots: List[tuple] = []
            changing = noops = 0
            for t in ts:
                c, d = sid[t.q2], sid[t.r2]
                if c == a and d == b:
                    recs.append((a, b, c, d, 0, 0, (), t))
                    hots.append((0, 0, ()))
                    noops += 1
                    continue
                # Net deltas in first-mention order q, r, q2, r2.
                net = {a: -1}
                net[b] = net.get(b, 0) - 1
                net[c] = net.get(c, 0) + 1
                net[d] = net.get(d, 0) + 1
                deltas = tuple([dpair[s][v + 2] for s, v in net.items() if v])
                ch = 1 if deltas else 0
                changing |= ch
                ad = acc[c] + acc[d] - acc_pre
                recs.append((a, b, c, d, ch, ad, deltas, t))
                hots.append((ch, ad, deltas))
            off = 1 if a == b else 0
            key = (a, b, off, len(recs), tuple(recs))
            hot_t = tuple(hots)
            uniform.add(key, changing, hot_t)
            if not noops:
                enabled.add(key, changing, hot_t)
            elif noops < len(recs):
                kept = [j for j, rec in enumerate(recs) if rec[2] != a or rec[3] != b]
                enabled.add(
                    (a, b, off, len(kept), tuple([recs[j] for j in kept])),
                    changing,
                    tuple([hots[j] for j in kept]),
                )
        self.enabled = enabled.freeze(fold_mult=True)
        self.uniform = uniform.freeze(fold_mult=False)


def get_table(protocol: PopulationProtocol) -> TransitionTable:
    """The protocol's compiled :class:`TransitionTable` (built once and
    cached on the protocol instance)."""
    table = getattr(protocol, "_fastpath_table", None)
    if table is None:
        table = TransitionTable(protocol)
        protocol._fastpath_table = table
    return table


# ----------------------------------------------------------------------
# Incremental index
# ----------------------------------------------------------------------
class EnabledIndex:
    """Incrementally maintained weights for every transition key.

    Invariant (checked by :meth:`validate`): for every key ``i = (a, b)``,

    * ``w[i] == cnt[a]·(cnt[b] − off) · weight_mult`` (never negative:
      ``off = 1`` only for same-state keys, whose ``c·(c−1)`` is ≥ 0 for
      every integer count);
    * ``active`` lists exactly the keys with ``w[i] > 0`` and ``total``
      is their sum.

    After a count change of state ``s`` the keys whose weight may have
    moved are exactly ``srecs[s]`` — the *static* list of keys touching
    ``s`` — so a repair is a branch-free O(degree of ``s``) recompute
    with no membership bookkeeping.  (An earlier design kept dynamic
    per-state lists restricted to occupied partners; the dict churn of
    maintaining them on support flips cost more than the few extra
    multiply-and-compare no-ops the static lists admit.)
    """

    __slots__ = (
        "table",
        "mode",
        "keys",
        "changing",
        "srecs",
        "hot",
        "hot1",
        "cnt",
        "w",
        "active",
        "activepos",
        "total",
        "churn",
        "_watched",
    )

    def __init__(
        self,
        protocol: PopulationProtocol,
        config: Optional[Multiset] = None,
        *,
        mode: str = "enabled",
    ):
        if mode not in ("enabled", "uniform"):
            raise ValueError("mode must be 'enabled' or 'uniform'")
        self.table = get_table(protocol)
        self.mode = mode
        mt = self.table.enabled if mode == "enabled" else self.table.uniform
        self.keys = mt.keys
        self.changing = mt.changing
        self.srecs = mt.srecs
        self.hot = mt.hot
        self.hot1 = mt.hot1
        n_states = len(self.table.states)
        self.cnt: List[int] = [0] * n_states
        self.w: List[int] = [0] * len(self.keys)
        self.active: List[int] = []
        self.activepos: Dict[int, int] = {}
        self.total = 0
        self.churn = 0
        self._watched: Optional[Multiset] = None
        if config is not None:
            self.rebuild(config)

    # -- construction / sync -------------------------------------------
    def rebuild(self, config: Multiset) -> None:
        """Reset all incremental state from a configuration snapshot."""
        sid = self.table.sid
        n_states = len(self.table.states)
        self.cnt = [0] * n_states
        for state, count in config.items():
            self.cnt[sid[state]] = count
        self.w = [0] * len(self.keys)
        self.active = []
        self.activepos = {}
        self.total = 0
        for s in range(n_states):
            self.fix_state(s)

    # -- multiset change hooks -----------------------------------------
    def attach(self, config: Multiset) -> None:
        """Keep the index exact through ``config.inc``/``dec`` calls."""
        if self._watched is not None:
            self.detach()
        self.rebuild(config)
        config.watch(self._on_change)
        self._watched = config

    def detach(self) -> None:
        if self._watched is not None:
            self._watched.unwatch(self._on_change)
            self._watched = None

    def _on_change(self, state, new_count: int) -> None:
        s = self.table.sid.get(state)
        if s is None:  # state foreign to the protocol: no keys touch it
            return
        self.cnt[s] = new_count
        self.fix_state(s)

    # -- incremental repair --------------------------------------------
    def fix_state(self, s: int) -> None:
        """Re-establish the invariant for every key touching state ``s``.

        Idempotent and correct regardless of how ``cnt[s]`` got to its
        current value, so it serves the watcher path and the bulk count
        updates of the batch mode alike.

        ``churn`` counts active-set membership changes made here (batch
        apply, fault repair, attach/rebuild).  The single-step loops keep
        their own inlined copy of this repair and deliberately do *not*
        count — the hot path stays branch-free for the null-observer
        overhead budget — so the counter measures index turnover on the
        repair path, not per-interaction flips.
        """
        cnt = self.cnt
        w = self.w
        active = self.active
        activepos = self.activepos
        c_s = cnt[s]
        for i, partner, off, m_eff in self.srecs[s]:
            v = c_s * (cnt[partner] - off) * m_eff
            old = w[i]
            if v != old:
                self.total += v - old
                w[i] = v
                if not old:
                    activepos[i] = len(active)
                    active.append(i)
                    self.churn += 1
                elif not v:
                    pos = activepos.pop(i)
                    last = active.pop()
                    if last != i:
                        active[pos] = last
                        activepos[last] = pos
                    self.churn += 1

    # -- dynamic population --------------------------------------------
    def grow(self, s: int, k: int = 1) -> None:
        """Add ``k`` agents in state id ``s`` and repair the invariant —
        the join half of dynamic-population support.  ``fix_state`` is
        idempotent and count-driven, so a resize is indistinguishable
        from any other count change to the index."""
        self.cnt[s] += k
        self.fix_state(s)

    def shrink(self, s: int, k: int = 1) -> None:
        """Remove ``k`` agents from state id ``s`` (the leave half);
        raises ``ValueError`` rather than driving a count negative."""
        if self.cnt[s] < k:
            raise ValueError(
                f"cannot remove {k} agents from state "
                f"{self.table.states[s]!r} (count {self.cnt[s]})"
            )
        self.cnt[s] -= k
        self.fix_state(s)

    @property
    def population(self) -> int:
        """Current number of agents (live sum of the count vector —
        never cached by callers that outlive a fault fire)."""
        return sum(self.cnt)

    # -- queries --------------------------------------------------------
    def weight(self, q, r) -> int:
        """Current sampling weight of the ordered key ``(q, r)``."""
        sid = self.table.sid
        a, b = sid.get(q), sid.get(r)
        if a is None or b is None:
            return 0
        for i, (ka, kb, _off, _mult, _cands) in enumerate(self.keys):
            if ka == a and kb == b:
                return self.w[i]
        return 0

    def enabled_weights(self) -> Dict[Tuple[object, object], int]:
        """``{(q, r): weight}`` for every key with positive weight."""
        states = self.table.states
        return {
            (states[self.keys[i][0]], states[self.keys[i][1]]): self.w[i]
            for i in self.active
        }

    def is_silent_now(self) -> bool:
        """Exact silence: no configuration-changing candidate is enabled."""
        changing = self.changing
        return not any(changing[i] for i in self.active)

    def sample_key(self, rng: random.Random) -> Optional[int]:
        """A key index drawn with probability ``w[i] / total`` (``None``
        when no key is enabled)."""
        total = self.total
        if total <= 0:
            return None
        if total > _FLOAT_SAFE_TOTAL:
            x = rng.randrange(total)
        else:
            x = int(rng.random() * total)
            if x >= total:
                x = total - 1
        acc = 0
        i = self.active[0]
        for i in self.active:
            acc += self.w[i]
            if acc > x:
                break
        return i

    def validate(self, config: Multiset) -> None:
        """Brute-force check of the index invariant against ``config``
        (test hook; raises ``AssertionError`` on any divergence)."""
        sid = self.table.sid
        for state, count in config.items():
            assert self.cnt[sid[state]] == count, (state, count)
        expected_total = 0
        for i, (a, b, off, mult, _cands) in enumerate(self.keys):
            m_eff = mult if self.mode == "enabled" else 1
            pair = self.cnt[a] * (self.cnt[b] - off)
            v = max(pair, 0) * m_eff
            assert self.w[i] == v, (i, self.w[i], v)
            expected_total += v
            assert (i in self.activepos) == (v > 0)
        assert self.total == expected_total
        assert sorted(self.active) == sorted(self.activepos)


# ----------------------------------------------------------------------
# Batch-mode bound computation
# ----------------------------------------------------------------------
def _first_reach(c: int, d: int, lo: int) -> Optional[int]:
    """Smallest ``j ≥ 0`` with ``c + j·d ≥ lo`` (``None`` if never)."""
    if c >= lo:
        return 0
    if d <= 0:
        return None
    return (lo - c + d - 1) // d


def _last_reach(c: int, d: int, lo: int) -> Optional[int]:
    """Largest ``j`` with ``c + j·d ≥ lo`` (``None`` = forever), assuming
    ``c ≥ lo`` holds at ``j = 0``; returns -1 if it fails immediately."""
    if c < lo:
        return -1
    if d >= 0:
        return None
    return (c - lo) // (-d)


def _first_positive_weight(key, cnt, delta_map) -> Optional[int]:
    """The first ``j ≥ 0`` at which ``key``'s pair weight is positive
    while counts evolve as ``cnt[s] + j·delta[s]`` (``None`` if never:
    some factor never reaches its threshold, or the factors' positive
    windows do not overlap)."""
    a, b, off, _mult, _cands = key
    if a == b:
        bounds = ((cnt[a], delta_map.get(a, 0), 2),)
    else:
        bounds = (
            (cnt[a], delta_map.get(a, 0), 1),
            (cnt[b], delta_map.get(b, 0), 1),
        )
    start = 0
    end: Optional[int] = None
    for c, d, lo in bounds:
        first = _first_reach(c, d, lo)
        if first is None:
            return None
        if first > start:
            start = first
        if d < 0:
            last = (c - lo) // (-d) if c >= lo else -1
            if end is None or last < end:
                end = last
    if end is not None and start > end:
        return None
    return start


def _first_output_flip(accept: int, ad: int, m: int, category) -> Optional[int]:
    """Smallest ``j ≥ 1`` at which the output category of ``accept +
    j·ad`` differs from ``category`` (``None`` if it never does)."""
    if ad == 0:
        return None
    if category is False:  # accept == 0 and ad > 0: leaves False at once
        return 1
    if category is True:  # accept == m and ad < 0: leaves True at once
        return 1
    if ad > 0:
        gap = m - accept
        return gap // ad if gap % ad == 0 else None
    gap = accept
    return gap // (-ad) if gap % (-ad) == 0 else None


def _batch_length(
    index: EnabledIndex,
    i: int,
    cand,
    *,
    budget,
    window_left,
    accept,
    m,
    category,
    snapshot_gap,
):
    """How many times the sole enabled candidate may be applied at once.

    While counts evolve linearly (``cnt[s] + j·d_s``), the batch must end
    no later than: the sole key losing its weight, any other key gaining
    weight (the choice would stop being deterministic), the interaction
    budget, the convergence window completing, the output category
    changing, or the next snapshot point.  All bounds are exact integer
    solutions of the linear threshold inequalities, so the collapsed run
    is step-for-step identical to executing the transition ``k`` times.
    """
    _q, _r, _q2, _r2, _ch, ad, deltas, _t = cand
    cnt = index.cnt
    keys = index.keys
    k = budget
    if window_left is not None and window_left < k:
        k = window_left
    if snapshot_gap is not None and snapshot_gap < k:
        k = snapshot_gap
    if k <= 1:
        return k
    delta_map = dict(deltas)

    # The sole key must keep positive weight for steps j = 0..k-1.
    a, b, off, _mult, _cands = keys[i]
    if a == b:
        last = _last_reach(cnt[a], delta_map.get(a, 0), 2)
    else:
        last = _last_reach(cnt[a], delta_map.get(a, 0), 1)
        last_b = _last_reach(cnt[b], delta_map.get(b, 0), 1)
        if last is None or (last_b is not None and last_b < last):
            last = last_b
    if last is not None and last + 1 < k:
        k = last + 1
    if k <= 1:
        return k

    # No other key may become enabled before the batch ends: the first j
    # at which another key's weight turns positive caps k at that j.
    # (Only keys touching a state the batch changes can newly turn on.)
    w = index.w
    srecs = index.srecs
    seen = set()
    for s, _d in deltas:
        for i2, _partner, _off, _mult in srecs[s]:
            if i2 == i or w[i2] or i2 in seen:
                continue
            seen.add(i2)
            first = _first_positive_weight(keys[i2], cnt, delta_map)
            if first is not None and first < k:
                k = first
    if k <= 1:
        return k

    # The output category may change only at the batch's final step.
    flip = _first_output_flip(accept, ad, m, category)
    if flip is not None and flip < k:
        k = flip
    return k


# ----------------------------------------------------------------------
# The fast simulation drivers
# ----------------------------------------------------------------------
#: Loop exit statuses: ``stop`` reached, provably silent, the output held
#: for the convergence window, or the wall-clock deadline passed.
_STOP, _SILENT, _CONVERGED, _DEADLINE = range(4)


class _Run:
    """The state of one fast run that outlives a loop segment.

    A faulted run enters the loops once per stretch between fault
    barriers; each loop loads these fields into locals on entry and
    stores them back on every exit, and only the driver turns them into
    a result.  ``m`` is the live population size, refreshed at barriers.
    """

    __slots__ = (
        "interactions",
        "productive",
        "stable_since",
        "out",
        "conv_at",
        "accept",
        "m",
        "window",
        "trace",
        "ticks",
    )

    def __init__(self, index, m, out, window, trace):
        self.interactions = 0
        self.productive = 0
        self.stable_since = 0
        self.out = out
        self.conv_at = window if out is not None else _NEVER
        self.accept = sum(
            c for c, acc in zip(index.cnt, index.table.accepting) if acc
        )
        self.m = m
        self.window = window
        self.trace = trace
        self.ticks = 0

    def refresh_output(self, obs) -> None:
        """Re-derive the output from ``accept`` and ``m`` and record a
        flip.  An empty population (``m == 0``) has no output."""
        accept, m = self.accept, self.m
        out = (True if accept == m else (False if accept == 0 else None)) if m else None
        if out != self.out:
            self.out = out
            self.stable_since = self.productive
            self.conv_at = self.productive + self.window if out is not None else _NEVER
            self.trace.append((self.interactions, out))
            if obs is not None:
                obs.on_output_flip(self.interactions, out, LAYER_PROTOCOL)

    def past_deadline(self, deadline_at) -> bool:
        """One tick of the deadline clock, read every 256 ticks."""
        if deadline_at is None:
            return False
        self.ticks += 1
        return not self.ticks & 255 and monotonic() >= deadline_at


def run_fast_simulation(
    protocol: PopulationProtocol,
    current: Multiset,
    *,
    population: int,
    rng: random.Random,
    scheduler,
    max_interactions: int,
    convergence_window: int,
    check_silence_every: int,
    obs,
    trace,
    stable_output,
    injector=None,
    deadline_at=None,
):
    """Run the incremental-index hot loop; returns a ``SimulationResult``.

    Called by :func:`repro.core.simulate` after the common prologue
    (validation, rng setup, ``on_run_start``).  ``current`` is the working
    copy of the configuration; the loops operate on the index's flat count
    array and materialise configurations only at observation points and at
    exit, which is what makes per-step cost O(Δ).

    ``deadline_at`` is an absolute ``time.monotonic()`` bound; past it the
    run returns a verdictless result flagged ``deadline_exceeded``.

    ``injector`` (a bound :class:`repro.resilience.FaultInjector`) splits
    the run at its fault barriers.  The driver contract:

    * a trigger fires at the top of its step through an
      :class:`~repro.resilience.IndexView`; the view's ``accept_delta``
      and ``size_delta`` are folded into the run (which re-derives
      ``T = m(m−1)`` in uniform mode) and the output is recomputed;
    * between barriers the uninjected loops run unchanged, with
      ``min(next_at, max_interactions)`` as their stop: a batch collapse
      is cut there and resumed after the fire, and a geometric null run
      is cut there and re-drawn after the fire (null runs are memoryless,
      so the law is the same);
    * the short per-step windows — an armed drop or duplicate token, an
      unfair or adversarial step — go one step at a time through
      :func:`_window_step`, shared by both modes;
    * a silent configuration with a pending trigger within the budget
      fast-forwards to that trigger (one ``null_skip`` batch): silence
      is final only once the plan is drained.

    Uninjected runs take the loops once, with ``max_interactions`` as the
    stop, and stay bit-identical to earlier releases.
    """
    uniform = isinstance(scheduler, FastUniformScheduler)
    index = EnabledIndex(protocol, current, mode="uniform" if uniform else "enabled")
    run = _Run(index, population, stable_output, convergence_window, trace)
    tie_first = uniform and scheduler.tie_break == "first"

    def segment(stop):
        if uniform:
            return _uniform_loop(
                index, run, rng=rng, tie_first=tie_first, stop=stop,
                check_silence_every=check_silence_every, obs=obs,
                deadline_at=deadline_at,
            )
        return _enabled_loop(
            index, run, rng=rng, stop=stop, obs=obs, deadline_at=deadline_at
        )

    inj = injector
    if inj is None:
        status = segment(max_interactions)
    else:
        from repro.resilience.faults import IndexView

        view = IndexView(index)
        while True:
            if run.interactions >= max_interactions:
                status = _STOP
                break
            if run.interactions >= inj.next_at:
                view.accept_delta = view.size_delta = 0
                inj.fire(run.interactions, view, obs)
                run.accept += view.accept_delta
                run.m += view.size_delta
                run.refresh_output(obs)
            stop = min(inj.next_at, max_interactions)
            if index.total > 0 and inj.window_open(run.interactions + 1):
                status = _window_step(
                    index, run, inj, rng, uniform=uniform, tie_first=tie_first,
                    stop=stop, obs=obs, deadline_at=deadline_at,
                )
            else:
                status = segment(stop)
            if status == _SILENT and inj.next_at <= max_interactions:
                nxt = int(inj.next_at)
                if obs is not None and nxt > run.interactions:
                    obs.on_batch(nxt, kind="null_skip", count=nxt - run.interactions)
                run.interactions = nxt
            elif status != _STOP:
                break

    if status == _DEADLINE:
        return _result(index, run, inj, obs, None, False, deadline_exceeded=True)
    if status == _CONVERGED:
        return _result(index, run, inj, obs, run.out, False)
    if status == _SILENT and not uniform:
        # No productive transition enabled: provably silent, matching the
        # legacy enabled scheduler's single null step + break.
        run.interactions += 1
        if obs is not None:
            obs.on_scheduler_select(
                run.interactions,
                scheduler="fast_enabled",
                null=True,
                candidates=0,
                weight=0,
            )
            obs.on_interaction(run.interactions, None, None, False)
            obs.on_silence_check(run.interactions, True)
    silent = index.is_silent_now()
    return _result(index, run, inj, obs, run.out if silent else None, silent)


def _snapshot_dict(states, cnt):
    return {states[s]: c for s, c in enumerate(cnt) if c}


def _result(index, run, inj, obs, verdict, silent, deadline_exceeded=False):
    from repro.core.simulation import SimulationResult  # late: avoids cycle

    joined = inj.joined if inj is not None else 0
    departed = inj.departed if inj is not None else 0
    if obs is not None:
        obs.on_run_end(
            run.interactions,
            LAYER_PROTOCOL,
            verdict=verdict,
            silent=silent,
            interactions=run.interactions,
            productive=run.productive,
            population=run.m,
            deadline_exceeded=deadline_exceeded,
            enabled_keys=len(index.active),
            index_churn=index.churn,
            joined=joined,
            departed=departed,
        )
    return SimulationResult(
        final=Multiset(_snapshot_dict(index.table.states, index.cnt)),
        verdict=verdict,
        silent=silent,
        interactions=run.interactions,
        productive=run.productive,
        population=run.m,
        output_trace=run.trace,
        deadline_exceeded=deadline_exceeded,
        joined=joined,
        departed=departed,
    )


def _window_step(
    index: EnabledIndex,
    run: _Run,
    inj,
    rng,
    *,
    uniform,
    tie_first,
    stop,
    obs,
    deadline_at,
):
    """One step inside a per-step fault window, in either mode; returns
    a loop exit status (``_STOP`` to carry on).

    Fault semantics:

    * inside an unfair window the sampler is bypassed: the lowest-indexed
      active key with a configuration-changing candidate (first such
      candidate) is played;
    * inside an adversarial window the worst-case pick
      (:func:`repro.resilience.churn.adversarial_index_pick`) replaces
      fair sampling, except on the fairness-budget steps the injector's
      ``take_adversarial`` yields back;
    * both kinds of pick consume no randomness, so a window's choices
      never shift the downstream random stream, and in uniform mode they
      come with no null run (the adversary always schedules an
      interacting pair); elsewhere the geometric null run is capped at
      ``stop``;
    * a drop token makes the step count but change nothing; a duplicate
      token re-applies a productive step once more while its key is
      still enabled, as productive work but not as a step.
    """
    from repro.resilience.churn import adversarial_index_pick

    if run.past_deadline(deadline_at):
        return _DEADLINE
    active = index.active
    hot = index.hot
    total = index.total
    step = run.interactions + 1
    if uniform and step > inj.unfair_until and step > inj.adv_until:
        T = run.m * (run.m - 1)
        if total < T:
            nulls = int(log(1.0 - rng.random()) / log((T - total) / T))
            if nulls:
                span = min(nulls, stop - run.interactions)
                run.interactions += span
                if obs is not None:
                    obs.on_batch(run.interactions, kind="null_skip", count=span)
                if run.interactions >= stop:
                    return _STOP
                step = run.interactions + 1
    run.interactions = step

    if step <= inj.unfair_until:
        changing = index.changing
        i = min((k for k in active if changing[k]), default=min(active))
        j = next((j for j, c in enumerate(hot[i]) if c[0]), 0)
        picked_by = "unfair"
    elif step <= inj.adv_until and inj.take_adversarial():
        i, j = adversarial_index_pick(index, run.accept, run.m, run.out)
        picked_by = "adversarial"
    else:
        i = index.sample_key(rng)
        n = len(hot[i])
        j = int(rng.random() * n) if n > 1 and not tie_first else 0
        picked_by = "fast_uniform" if uniform else "fast_enabled"
    ch, ad, deltas = hot[i][j]
    t = index.keys[i][4][j][7] if obs is not None else None
    if obs is not None:
        if picked_by in ("unfair", "adversarial"):
            candidates = 1
        elif uniform:
            candidates = len(hot[i])
        else:
            candidates = sum(index.keys[k][3] for k in active)
        obs.on_scheduler_select(
            step, scheduler=picked_by, null=False, candidates=candidates,
            weight=total,
        )

    if inj.drop_left and inj.take_drop():
        if obs is not None:
            obs.on_fault(step, "drop", LAYER_PROTOCOL, transition=repr(t))
            obs.on_interaction(step, None, (t.q, t.r), False)
        return _STOP

    _apply(index, run, ch, ad, deltas)
    if obs is not None:
        obs.on_interaction(step, t, (t.q, t.r), bool(ch))
        snapshot_every = obs.snapshot_interval
        if snapshot_every and step % snapshot_every == 0:
            obs.on_snapshot(
                step, _snapshot_dict(index.table.states, index.cnt), LAYER_PROTOCOL
            )
    if ad:
        run.refresh_output(obs)

    if ch and inj.duplicate_left and index.w[i] > 0 and inj.take_duplicate():
        _apply(index, run, ch, ad, deltas)
        if obs is not None:
            obs.on_fault(step, "duplicate", LAYER_PROTOCOL, transition=repr(t))
        if ad:
            run.refresh_output(obs)
    return _CONVERGED if run.productive >= run.conv_at else _STOP


def _apply(index, run, ch, ad, deltas):
    """Apply one candidate's net deltas through the repairing index."""
    if ch:
        run.productive += 1
        cnt = index.cnt
        for s, d in deltas:
            cnt[s] += d
        for s, _d in deltas:
            index.fix_state(s)
        run.accept += ad


def _enabled_loop(index: EnabledIndex, run: _Run, *, rng, stop, obs, deadline_at):
    """Enabled-mode steps from ``run`` until ``run.interactions`` reaches
    ``stop`` or the run ends; returns the exit status."""
    states = index.table.states
    cnt = index.cnt
    w = index.w
    srecs = index.srecs
    active = index.active
    activepos = index.activepos
    hot = index.hot
    hot1 = index.hot1
    keys = index.keys
    fix_state = index.fix_state
    rnd = rng.random
    randrange = rng.randrange

    snapshot_every = obs.snapshot_interval if obs is not None else None
    convergence_window = run.window
    interactions = run.interactions
    productive = run.productive
    stable_since = run.stable_since
    accept = run.accept
    m = run.m
    out = run.out
    conv_at = run.conv_at
    trace = run.trace
    ticks = run.ticks
    total = index.total
    status = _STOP

    while interactions < stop:
        if deadline_at is not None:
            ticks += 1
            if not ticks & 255 and monotonic() >= deadline_at:
                status = _DEADLINE
                break
        if total <= 0:
            status = _SILENT
            break

        # ---- run-collapsing batch mode -------------------------------
        if len(active) == 1:
            i = active[0]
            cands = keys[i][4]
            if len(cands) == 1:
                cand = cands[0]
                ch = cand[4]
                index.total = total
                k = _batch_length(
                    index,
                    i,
                    cand,
                    budget=stop - interactions,
                    window_left=(
                        convergence_window - (productive - stable_since)
                        if (out is not None and ch)
                        else None
                    ),
                    accept=accept,
                    m=m,
                    category=out,
                    snapshot_gap=(
                        snapshot_every - interactions % snapshot_every
                        if snapshot_every
                        else None
                    ),
                )
                if k > 1:
                    ad = cand[5]
                    interactions += k
                    for s, d in cand[6]:
                        cnt[s] += d * k
                    for s, _d in cand[6]:
                        fix_state(s)
                    total = index.total
                    if ch:
                        productive += k
                    accept += ad * k
                    if obs is not None:
                        obs.on_batch(
                            interactions,
                            kind="collapse",
                            count=k,
                            transition=cand[7],
                            productive=k if ch else 0,
                        )
                        if snapshot_every and interactions % snapshot_every == 0:
                            obs.on_snapshot(
                                interactions,
                                _snapshot_dict(states, cnt),
                                LAYER_PROTOCOL,
                            )
                    if ad:
                        new_out = (
                            True
                            if accept == m
                            else (False if accept == 0 else None)
                        )
                        if new_out != out:
                            out = new_out
                            stable_since = productive
                            conv_at = (
                                stable_since + convergence_window
                                if out is not None
                                else _NEVER
                            )
                            trace.append((interactions, out))
                            if obs is not None:
                                obs.on_output_flip(
                                    interactions, out, LAYER_PROTOCOL
                                )
                    if productive >= conv_at:
                        status = _CONVERGED
                        break
                    continue

        # ---- one sampled step ----------------------------------------
        interactions += 1
        if total <= _FLOAT_SAFE_TOTAL:
            x = int(rnd() * total)
            if x >= total:
                x = total - 1
        else:
            x = randrange(total)
        acc = 0
        for i in active:
            acc += w[i]
            if acc > x:
                break
        hc = hot1[i]
        j = 0
        if hc is None:
            hcands = hot[i]
            j = int(rnd() * len(hcands))
            hc = hcands[j]
        ch, ad, deltas = hc

        if obs is not None:
            ncand = 0
            for k2 in active:
                ncand += keys[k2][3]
            obs.on_scheduler_select(
                interactions,
                scheduler="fast_enabled",
                null=False,
                candidates=ncand,
                weight=total,
            )

        # Enabled-mode candidates are non-no-ops but may still be
        # changeless (swaps); those leave every count untouched.  Only the
        # keys touching a state with a nonzero net delta can move, and
        # the recompute is idempotent, so a key shared by two changed
        # states is just a no-op the second time.
        if ch:
            productive += 1
            for s, d in deltas:
                cnt[s] += d
            for s, _d in deltas:
                c_s = cnt[s]
                for i2, partner, off, m_eff in srecs[s]:
                    v = c_s * (cnt[partner] - off) * m_eff
                    old = w[i2]
                    if v != old:
                        total += v - old
                        w[i2] = v
                        if not old:
                            activepos[i2] = len(active)
                            active.append(i2)
                        elif not v:
                            pos = activepos.pop(i2)
                            last = active.pop()
                            if last != i2:
                                active[pos] = last
                                activepos[last] = pos

        if obs is not None:
            t = keys[i][4][j][7]
            obs.on_interaction(interactions, t, (t.q, t.r), bool(ch))
            if snapshot_every and interactions % snapshot_every == 0:
                obs.on_snapshot(
                    interactions, _snapshot_dict(states, cnt), LAYER_PROTOCOL
                )

        if ad:
            accept += ad
            new_out = True if accept == m else (False if accept == 0 else None)
            if new_out != out:
                out = new_out
                stable_since = productive
                conv_at = (
                    stable_since + convergence_window
                    if out is not None
                    else _NEVER
                )
                trace.append((interactions, out))
                if obs is not None:
                    obs.on_output_flip(interactions, out, LAYER_PROTOCOL)
        if productive >= conv_at:
            status = _CONVERGED
            break

    index.total = total
    run.interactions = interactions
    run.productive = productive
    run.stable_since = stable_since
    run.accept = accept
    run.out = out
    run.conv_at = conv_at
    run.ticks = ticks
    return status


def _uniform_loop(
    index: EnabledIndex,
    run: _Run,
    *,
    rng,
    tie_first,
    stop,
    check_silence_every,
    obs,
    deadline_at,
):
    """Uniform-mode steps from ``run`` until ``run.interactions`` reaches
    ``stop`` or the run ends; returns the exit status."""
    states = index.table.states
    cnt = index.cnt
    w = index.w
    srecs = index.srecs
    active = index.active
    activepos = index.activepos
    hot = index.hot
    hot1 = index.hot1
    keys = index.keys
    changing = index.changing
    rnd = rng.random
    randrange = rng.randrange

    snapshot_every = obs.snapshot_interval if obs is not None else None
    convergence_window = run.window
    interactions = run.interactions
    productive = run.productive
    stable_since = run.stable_since
    accept = run.accept
    m = run.m
    out = run.out
    conv_at = run.conv_at
    trace = run.trace
    ticks = run.ticks
    total = index.total
    # Below two agents no pair exists (total is 0): T = 1 turns the rest
    # of the run into one null run, ended by the next silence check.
    T = m * (m - 1) or 1
    cse = check_silence_every
    status = _STOP

    while interactions < stop:
        if deadline_at is not None:
            ticks += 1
            if not ticks & 255 and monotonic() >= deadline_at:
                status = _DEADLINE
                break
        if total < T:
            # ---- geometric null-step skip-ahead ----------------------
            # P(null) = 1 − M/T; the null-run length before the next
            # matched pair is Geometric(M/T), sampled exactly by
            # inversion with u ∈ (0, 1] (so nulls = 0 has probability
            # M/T, matching the step-by-step Bernoulli process).
            remaining = stop - interactions
            if total > 0:
                u = 1.0 - rnd()
                nulls = int(log(u) / log((T - total) / T))
            else:
                nulls = remaining + cse  # no matched pair exists at all
            if nulls:
                span = remaining if nulls > remaining else nulls
                next_check = interactions - interactions % cse + cse
                if next_check <= interactions + span:
                    # The null run crosses silence-check points; the
                    # configuration is frozen, so silence is constant
                    # across the whole run and one test settles it.
                    if not any(changing[j2] for j2 in active):
                        count = next_check - interactions
                        interactions = next_check
                        if obs is not None:
                            obs.on_batch(
                                interactions, kind="null_skip", count=count
                            )
                            obs.on_silence_check(interactions, True)
                        status = _SILENT
                        break
                    if obs is not None:
                        check = next_check
                        limit = interactions + span
                        while check <= limit:
                            obs.on_silence_check(check, False)
                            check += cse
                if nulls >= remaining:
                    interactions = stop
                    if obs is not None:
                        obs.on_batch(
                            interactions, kind="null_skip", count=remaining
                        )
                    break
                interactions += nulls
                if obs is not None:
                    obs.on_batch(interactions, kind="null_skip", count=nulls)

        # ---- one matched step ----------------------------------------
        interactions += 1
        if total <= _FLOAT_SAFE_TOTAL:
            x = int(rnd() * total)
            if x >= total:
                x = total - 1
        else:
            x = randrange(total)
        acc = 0
        for i in active:
            acc += w[i]
            if acc > x:
                break
        hc = hot1[i]
        j = 0
        if hc is None:
            hcands = hot[i]
            if not tie_first:
                j = int(rnd() * len(hcands))
            hc = hcands[j]
        ch, ad, deltas = hc

        if obs is not None:
            obs.on_scheduler_select(
                interactions,
                scheduler="fast_uniform",
                null=False,
                candidates=len(hot[i]),
                weight=total,
            )

        # Uniform-mode candidates include no-ops; both no-ops and swaps
        # are changeless and leave every count untouched.  Only the keys
        # touching a state with a nonzero net delta can move, and the
        # recompute is idempotent, so a key shared by two changed states
        # is just a no-op the second time.
        if ch:
            productive += 1
            for s, d in deltas:
                cnt[s] += d
            for s, _d in deltas:
                c_s = cnt[s]
                for i2, partner, off, m_eff in srecs[s]:
                    v = c_s * (cnt[partner] - off) * m_eff
                    old = w[i2]
                    if v != old:
                        total += v - old
                        w[i2] = v
                        if not old:
                            activepos[i2] = len(active)
                            active.append(i2)
                        elif not v:
                            pos = activepos.pop(i2)
                            last = active.pop()
                            if last != i2:
                                active[pos] = last
                                activepos[last] = pos

        if obs is not None:
            t = keys[i][4][j][7]
            obs.on_interaction(interactions, t, (t.q, t.r), bool(ch))
            if snapshot_every and interactions % snapshot_every == 0:
                obs.on_snapshot(
                    interactions, _snapshot_dict(states, cnt), LAYER_PROTOCOL
                )

        if ad:
            accept += ad
            new_out = True if accept == m else (False if accept == 0 else None)
            if new_out != out:
                out = new_out
                stable_since = productive
                conv_at = (
                    stable_since + convergence_window
                    if out is not None
                    else _NEVER
                )
                trace.append((interactions, out))
                if obs is not None:
                    obs.on_output_flip(interactions, out, LAYER_PROTOCOL)
        if productive >= conv_at:
            status = _CONVERGED
            break

    index.total = total
    run.interactions = interactions
    run.productive = productive
    run.stable_since = stable_since
    run.accept = accept
    run.out = out
    run.conv_at = conv_at
    run.ticks = ticks
    return status
