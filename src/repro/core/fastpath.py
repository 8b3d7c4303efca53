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
  and output deltas), plus a dense ``(q, r) → key`` map.  The data of a
  pair that one class rule covers is built on the key's first use.
* :class:`EnabledIndex` — the incremental index.  It maintains, per key,
  the ordered-pair weight ``c_q·(c_r − [q=r])`` (times the candidate
  multiplicity in enabled mode), a dense *active list* of keys with
  positive weight used for weighted sampling by linear scan, and the
  list of occupied states.  A step's repair recomputes just the keys
  between the (≤ 4, usually fewer) states whose count changed and the
  occupied states, found through the pair map, so it costs O(|support|)
  however many keys a state has.  :meth:`~EnabledIndex.update` is the
  one way its counts change.
* :func:`run_fast_simulation` — the drop-in driver used by
  :func:`repro.core.simulate` for the fast schedulers.  It adds O(Δ)
  output tracking (an incrementally maintained count of agents in
  accepting states replaces ``protocol.output(current)`` per step),
  geometric null-step skip-ahead for the uniform model (null runs are
  sampled from the exact geometric distribution and jumped in one go,
  preserving interaction counts and parallel time exactly); every
  enabled-mode interaction and every matched uniform step is one sampled
  step.  It is also the one
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
from array import array
from math import log
from time import monotonic
from typing import Dict, List, Optional, Tuple

from repro.core._gc import gc_paused
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol, Transition
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
    4-count update would.  ``changing[i]`` flags keys with at least one
    configuration-changing candidate.  ``hot1[i]`` is the sole ``hot``
    record of a single-candidate key (``None`` otherwise), so the common
    case skips the tie-break draw; it is built here, once per table, so
    that entering a loop costs O(1) however often a faulted run re-enters
    it.

    Keys run in ``(a, b)`` order, so a key's id is its rank among the
    keyed pairs.  ``pair[a·n + b]`` is the id of the key for the ordered
    pair ``(a, b)``, or −1: one dense ``array('i')`` of ``n²`` entries
    (3.1 MB on Theorem 1's protocol at n=1), and ``kpos[i] = a·n + b``
    maps back.  The index repairs a changed state ``s`` by looking up
    ``(s, p)`` and ``(p, s)`` for each *occupied* partner ``p``, so a
    repair costs O(|support|) rather than O(degree of ``s``): the
    paper's protocol has about 970 keys per state but is decided on
    15–16 agents.  ``wmult[i]`` is the factor a key's pair weight is
    multiplied by: ``mult`` in enabled mode, 1 in uniform mode.

    A pair that only one class rule covers is a *rule key*: its id, pair
    entry and ``wmult`` (1) are set at compile, but ``keys``,
    ``changing``, ``hot`` and ``hot1`` hold ``None`` until :meth:`fill`
    builds its records, in both modes at once.  Every reader of those
    columns calls it first where a key may be unbuilt; a key's records
    are a function of the protocol alone, so a run samples the same
    whatever was built before it.
    """

    __slots__ = (
        "n", "keys", "changing", "hot", "hot1", "pair", "wmult", "kpos", "owner"
    )

    def __init__(self, n_states: int, owner: "TransitionTable"):
        self.n = n_states
        self.pair = array("i", [-1]) * (n_states * n_states)
        self.kpos = array("i")
        self.owner = owner

    def add_row(self, a: int, runs: List[Tuple[int, int]], iota) -> None:
        """Key row ``a`` on the columns ``runs`` lists as ascending,
        disjoint ``(first column, length)`` runs.  ``iota[j] = j``: a run
        is two array copies however long it is, and a rule's row is a
        few runs of hundreds of columns."""
        pair = self.pair
        kpos = self.kpos
        row = a * self.n
        i = len(kpos)
        for b, k in runs:
            pos = row + b
            pair[pos : pos + k] = iota[i : i + k]
            kpos.extend(iota[pos : pos + k])
            i += k

    def finish(self, built: List[Tuple[int, tuple]], fold_mult: bool) -> "ModeTable":
        """Fill the columns: the ``(id, (key, changing, hots))`` records
        of ``built``, ``None`` for every rule key, and ``wmult`` (``mult``
        in enabled mode, 1 in uniform mode)."""
        size = len(self.kpos)
        self.keys: list = [None] * size
        self.changing: list = [None] * size
        self.hot: list = [None] * size
        self.hot1: list = [None] * size
        self.wmult = wmult = array("i", [1]) * size
        for i, record in built:
            self._put(i, *record)
            if fold_mult:
                wmult[i] = record[0][3]
        return self.freeze()

    def _put(self, i: int, key: tuple, changing: int, hots: tuple) -> None:
        self.keys[i] = key
        self.changing[i] = changing
        self.hot[i] = hots
        self.hot1[i] = hots[0] if len(hots) == 1 else None

    def fill(self, i: int) -> tuple:
        """Build rule key ``i``'s records (in both modes) and return
        ``keys[i]``.  The one builder of rule keys: the index calls it
        when a key turns active, the batched engine when a chunk or a
        silence check reaches one, and :meth:`TransitionTable.materialise`
        for all of them."""
        self.owner._fill(*divmod(self.kpos[i], self.n))
        return self.keys[i]

    def freeze(self) -> "ModeTable":
        """Turn the columns into tuples once every key is built."""
        if None not in self.hot:
            self.keys = tuple(self.keys)
            self.changing = tuple(self.changing)
            self.hot = tuple(self.hot)
            self.hot1 = tuple(self.hot1)
        return self

    @property
    def srecs(self) -> tuple:
        """Per-state records ``(i, partner, off, wmult[i])`` of every key
        touching the state, in key order: the static repair lists of the
        earlier design, derived from ``kpos`` on each access (no record is
        built).  A read-only view for measurement and tests; nothing on
        the compile, load or run path reads it.  The records are acyclic,
        so cyclic GC is paused while they are built (1.8 → 0.2 s on
        Lipton n=1)."""
        n = self.n
        recs: List[list] = [[] for _ in range(n)]
        wmult = self.wmult
        with gc_paused():
            for i, pos in enumerate(self.kpos):
                a, b = divmod(pos, n)
                m = wmult[i]
                if b == a:
                    recs[a].append((i, a, 1, m))
                else:
                    recs[a].append((i, b, 0, m))
                    recs[b].append((i, a, 0, m))
            return tuple(map(tuple, recs))


class TransitionTable:
    """Dense-integer compilation of a protocol's transition structure.

    States are numbered in ``repr`` order and keys are ordered by their
    ``(q, r)`` state ids, so the encoding is the same in every process.
    The compile is one pass over the rows, with cyclic GC paused (the
    table is acyclic but for the modes' back-references): each explicit
    transition's candidate record and hot record are built once, and the
    enabled key shares them with the uniform key.  A pair that one class
    rule alone covers becomes a rule key, built on first use
    (:meth:`ModeTable.fill`): on Theorem 1's protocol at n=1 that is
    395,720 of the 429,768 uniform keys, of which a 10 s run of the e2e
    paper path (235 cycles) builds 124.  Enabled mode samples only non-no-op transitions (the
    legacy ``EnabledTransitionScheduler``'s candidate set), uniform mode
    every matched pair; a key without no-ops is one object in both
    modes.  A no-op changes no count, so a key's ``changing`` flag is
    the same in both modes.
    """

    __slots__ = (
        "states", "sid", "accepting", "enabled", "uniform", "rule_rows", "dpair"
    )

    def __init__(self, protocol: PopulationProtocol):
        with gc_paused():
            self._compile(protocol)

    def _compile(self, protocol: PopulationProtocol) -> None:
        rep = {s: repr(s) for s in protocol.states}
        states = self.states = tuple(sorted(protocol.states, key=rep.__getitem__))
        sid = self.sid = {s: i for i, s in enumerate(states)}
        self.accepting = tuple(s in protocol.accepting_states for s in states)
        n = len(states)
        enabled, uniform = ModeTable(n, self), ModeTable(n, self)
        # ``(state_id, net_delta)`` pairs, one object per value (a net
        # delta is ±1 or ±2): a few thousand distinct pairs stand for
        # millions of mentions.
        self.dpair = [[(s, v) for v in range(-2, 3)] for s in range(n)]
        explicit: List[Dict[int, list]] = [{} for _ in range(n)]
        for (q, r), ts in protocol._index.items():
            explicit[sid[q]][sid[r]] = ts
        # Row a → (B as state ids, sid(q2), sid(r2)) per covering rule.
        ruled: Dict[int, Tuple[frozenset, int, int]] = {}
        rule_rows: Dict[int, tuple] = {}
        for q, rows in protocol._rule_rows.items():
            entries = []
            for rule, _bset in rows:
                entry = ruled.get(id(rule))
                if entry is None:
                    entry = ruled[id(rule)] = (
                        frozenset([sid[r] for r in rule.B]),
                        sid[rule.q2],
                        sid[rule.r2],
                    )
                entries.append(entry)
            rule_rows[sid[q]] = tuple(entries)
        self.rule_rows = rule_rows

        # The columns the rules of a row cover, by the row's rules:
        # (covered, covered twice, covered as runs).
        blocks: Dict[tuple, tuple] = {}
        iota = array("i", range(n * n))
        ubuilt: List[Tuple[int, tuple]] = []
        ebuilt: List[Tuple[int, tuple]] = []
        for a in range(n):
            xcols = explicit[a]
            covering = rule_rows.get(a, ())
            if not covering:
                runs = _runs(sorted(xcols))
                built = {b: self._records(a, b, ts) for b, ts in xcols.items()}
            else:
                # Rule keys: columns one rule covers and no explicit
                # transition shares; the rest is built now.
                block = blocks.get(tuple(map(id, covering)))
                if block is None:
                    covered, shared = set(), set()
                    for bset, _c, _d in covering:
                        shared |= covered & bset
                        covered |= bset
                    block = blocks[tuple(map(id, covering))] = (
                        covered, shared, _runs(sorted(covered))
                    )
                covered, shared, covered_runs = block
                runs = _runs(
                    sorted(covered_runs + [(b, 1) for b in xcols if b not in covered])
                )
                q = states[a]
                built = {
                    b: self._records(
                        a,
                        b,
                        protocol.transitions_from(q, states[b]) if b in covered else ts,
                    )
                    for b, ts in xcols.items()
                }
                for b in shared.difference(xcols):
                    built[b] = self._records(
                        a, b, protocol.transitions_from(q, states[b])
                    )
            # Enabled mode keys no all-no-op pair: neither a built one nor
            # a rule key on its rule's one no-op instance (q2, r2).
            skip = {b for b, rec in built.items() if rec[3] is None}
            skip.update(
                d for bset, c, d in covering if c == a and d in bset and d not in built
            )
            uniform.add_row(a, runs, iota)
            enabled.add_row(a, _without(runs, skip), iota)
            row = a * n
            for b, rec in built.items():
                ubuilt.append((uniform.pair[row + b], rec[:3]))
                if rec[3] is not None:
                    ebuilt.append((enabled.pair[row + b], rec[3:]))
        del iota, explicit  # n² ints: freed before the columns are allocated
        self.enabled = enabled.finish(ebuilt, fold_mult=True)
        self.uniform = uniform.finish(ubuilt, fold_mult=False)

    def _records(self, a: int, b: int, ts) -> tuple:
        """The uniform ``(key, changing, hots)`` and the enabled ``(key,
        changing, hots)`` (``None`` parts when every candidate is a
        no-op) of the pair ``(a, b)`` with candidates ``ts`` in order."""
        sid = self.sid
        acc = self.accepting
        dpair = self.dpair
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
        if not noops:
            return key, changing, hot_t, key, changing, hot_t
        if noops == len(recs):
            return key, changing, hot_t, None, None, None
        kept = [j for j, rec in enumerate(recs) if rec[2] != a or rec[3] != b]
        return (
            key,
            changing,
            hot_t,
            (a, b, off, len(kept), tuple([recs[j] for j in kept])),
            changing,
            tuple([hots[j] for j in kept]),
        )

    def _fill(self, a: int, b: int) -> None:
        """Build the rule key ``(a, b)`` in both modes (see
        :meth:`ModeTable.fill`)."""
        for bset, c, d in self.rule_rows[a]:
            if b in bset:
                break
        states = self.states
        t = Transition(states[a], states[b], states[c], states[d])
        record = self._records(a, b, (t,))
        pos = a * len(states) + b
        self.uniform._put(self.uniform.pair[pos], *record[:3])
        i = self.enabled.pair[pos]
        if i >= 0:
            self.enabled._put(i, *record[3:])

    def materialise(self) -> "TransitionTable":
        """Build every rule key and freeze the columns into tuples: the
        table an all-explicit compile would have produced.  For tests,
        the static checks and measurement; returns the table."""
        uniform = self.uniform
        with gc_paused():
            for i, key in enumerate(uniform.keys):
                if key is None:
                    uniform.fill(i)
        self.enabled.freeze()
        uniform.freeze()
        return self


def _runs(parts) -> List[Tuple[int, int]]:
    """Ascending ``(first, length)`` runs of the ascending columns
    ``parts`` lists, each a column or a ``(first, length)`` run;
    adjacent ones merge."""
    runs: List[Tuple[int, int]] = []
    for part in parts:
        b, k = part if isinstance(part, tuple) else (part, 1)
        if runs and sum(runs[-1]) == b:
            runs[-1] = (runs[-1][0], runs[-1][1] + k)
        else:
            runs.append((b, k))
    return runs


def _without(runs: List[Tuple[int, int]], skip) -> List[Tuple[int, int]]:
    """``runs`` with the columns in ``skip`` cut out."""
    if not skip:
        return runs
    out: List[Tuple[int, int]] = []
    for b, k in runs:
        for s in sorted(c for c in skip if b <= c < b + k):
            if s > b:
                out.append((b, s - b))
            k -= s + 1 - b
            b = s + 1
        if k:
            out.append((b, k))
    return out


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

    * ``w[i] == cnt[a]·(cnt[b] − off) · wmult[i]`` (never negative:
      ``off = 1`` only for same-state keys, whose ``c·(c−1)`` is ≥ 0 for
      every integer count);
    * ``active`` lists exactly the keys with ``w[i] > 0`` and ``total``
      is their sum;
    * ``occ`` lists exactly the occupied states (``cnt[s] > 0``), and
      ``occpos[s]`` is the position of ``s`` in it, or −1.

    A key's weight is nonzero only while both of its states are occupied,
    so after a count change of state ``s`` the repair looks up the keys
    ``(s, p)`` and ``(p, s)`` of each occupied ``p`` through the table's
    ``pair`` map: O(|support|) work, not O(degree of ``s``).  Two rules
    make the outcome — ``active`` order included, and with it every
    seeded run — equal to a walk over every key touching ``s`` in key
    order:

    * Occupancy.  An update first adds all of its count changes, and a
      state whose count turns positive joins ``occ`` before any repair of
      that update; a state leaves ``occ`` at the end of its own repair
      once its count is 0.  So both states of a key whose weight moves
      are in ``occ`` when the first of them is repaired: a nonzero old
      weight means both were occupied, a nonzero new weight means both
      are.
    * Order.  One state's repair applies its active-set flips
      (activations and swap-removals) in ascending key id, the order the
      key-order walk met them.  Weight and ``total`` updates commute and
      need no ordering.

    :meth:`_update` is the one place that applies both rules; every count
    change, the single-step loops' included, goes through it.  It is also
    where a rule key's records get built (:meth:`ModeTable.fill`): a key
    turning active is built if it is not yet, so every active key is.

    Supports are small where it matters.  Wrapping the repair over two
    cycles of each e2e benchmark workload (seed 5) counted 15.0 occupied
    states per repaired state on average (at most 18) on Theorem 1's
    protocol at n=1, 10.6 (at most 14) in the compiled sweep, 2 in the
    large-n fast-uniform reference and 14.7 (at most 39) under dense
    faults.  A repair can see more occupied states than there are agents
    — 18 on 16 agents — because an update's destinations join ``occ``
    before its sources leave; the support itself peaked at 16, 13, 2 and
    38 (of 294) states.  A state of the paper's protocol touches about
    970 keys, so the earlier design — a static list of every key
    touching each state, occupied partner or not — walked about 1,980
    records per update on the paper path, where the pair map makes about
    74 lookups; about 5 weights actually change.  The trade runs the
    other way only when a state touches fewer keys than there are
    occupied states: on the 4-state majority protocol (2–3 keys per
    state, all 4 occupied) a repair makes 7 lookups where the static
    walk read 2–3 records.
    """

    __slots__ = (
        "table",
        "mode",
        "n",
        "keys",
        "changing",
        "hot",
        "hot1",
        "pair",
        "wmult",
        "kpos",
        "fill",
        "cnt",
        "w",
        "active",
        "activepos",
        "occ",
        "occpos",
        "total",
        "churn",
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
        self.n = mt.n
        self.keys = mt.keys
        self.changing = mt.changing
        self.hot = mt.hot
        self.hot1 = mt.hot1
        self.pair = mt.pair
        self.wmult = mt.wmult
        self.kpos = mt.kpos
        self.fill = mt.fill
        self.churn = 0
        self.rebuild(config if config is not None else Multiset())

    @property
    def srecs(self) -> tuple:
        """The mode table's derived per-state key records
        (:attr:`ModeTable.srecs`); no repair reads them."""
        mt = self.table.enabled if self.mode == "enabled" else self.table.uniform
        return mt.srecs

    # -- construction / sync -------------------------------------------
    def rebuild(self, config: Multiset) -> None:
        """Reset all incremental state from a configuration snapshot."""
        self.cnt: List[int] = [0] * self.n
        self.w: List[int] = [0] * len(self.keys)
        self.active: List[int] = []
        self.activepos: Dict[int, int] = {}
        self.occ: List[int] = []
        self.occpos: List[int] = [-1] * self.n
        self.total = 0
        sid = self.table.sid
        self.update(sorted((sid[state], count) for state, count in config.items()))

    # -- incremental repair --------------------------------------------
    def update(self, deltas) -> None:
        """Add ``d`` to the count of state ``s`` for each ``(s, d)`` in
        ``deltas`` and repair the index (:meth:`_update`).  Fault repair,
        fault-window steps, resizes and :meth:`rebuild` all update through
        here.

        ``churn`` counts the active-set membership changes made here.  The
        single-step loops call :meth:`_update` directly and deliberately
        do *not* count, so the counter measures index turnover on the
        repair path, not per-interaction flips.
        """
        dtotal, flipped = self._update(deltas)
        self.total += dtotal
        self.churn += flipped

    def _update(self, deltas) -> Tuple[int, int]:
        """The one repair.  Add every count change, occupy every state
        whose count turned positive (the occupancy rule), then repair each
        changed state ``s`` in turn: recompute the keys between ``s`` and
        each occupied state, apply the active-set flips in ascending key
        id, and vacate ``s`` if its count is 0.  Returns the change of
        ``total``, which it leaves to the caller (the single-step loops
        keep ``total`` in a local), and the number of flips."""
        cnt = self.cnt
        w = self.w
        pair = self.pair
        wmult = self.wmult
        occ = self.occ
        occpos = self.occpos
        hot = self.hot
        n = self.n
        for s, d in deltas:
            c = cnt[s] + d
            cnt[s] = c
            if c > 0 and occpos[s] < 0:
                occpos[s] = len(occ)
                occ.append(s)
        dtotal = nflips = 0
        for s, _d in deltas:
            c_s = cnt[s]
            row = s * n
            flips = []
            for p in occ:
                # A product is formed only for a key that exists: on a
                # sparse table most of the occupied partners share none.
                i = pair[row + p]  # the key (s, p)
                if p == s:
                    if i >= 0:
                        v = c_s * (c_s - 1) * wmult[i]
                        old = w[i]
                        if v != old:
                            dtotal += v - old
                            w[i] = v
                            if not (old and v):
                                flips.append(i)
                    continue
                if i >= 0:
                    v = c_s * cnt[p] * wmult[i]
                    old = w[i]
                    if v != old:
                        dtotal += v - old
                        w[i] = v
                        if not (old and v):
                            flips.append(i)
                i = pair[p * n + s]  # the key (p, s)
                if i >= 0:
                    v = cnt[p] * c_s * wmult[i]
                    old = w[i]
                    if v != old:
                        dtotal += v - old
                        w[i] = v
                        if not (old and v):
                            flips.append(i)
            if flips:
                # Ascending key id: the order in which a walk over every
                # key touching s, in key order, flips them.
                flips.sort()
                nflips += len(flips)
                active = self.active
                activepos = self.activepos
                for i in flips:
                    if w[i]:
                        if hot[i] is None:
                            self.fill(i)
                        activepos[i] = len(active)
                        active.append(i)
                    else:
                        pos = activepos.pop(i)
                        last = active.pop()
                        if last != i:
                            active[pos] = last
                            activepos[last] = pos
            if not c_s:
                pos = occpos[s]
                if pos >= 0:
                    last = occ.pop()
                    if last != s:
                        occ[pos] = last
                        occpos[last] = pos
                    occpos[s] = -1
        return dtotal, nflips

    # -- dynamic population --------------------------------------------
    def grow(self, s: int, k: int = 1) -> None:
        """Add ``k`` agents in state id ``s`` and repair the invariant —
        the join half of dynamic-population support.  The repair is
        count-driven, so a resize is indistinguishable from any other
        count change to the index."""
        self.update(((s, k),))

    def shrink(self, s: int, k: int = 1) -> None:
        """Remove ``k`` agents from state id ``s`` (the leave half);
        raises ``ValueError`` rather than driving a count negative."""
        if self.cnt[s] < k:
            raise ValueError(
                f"cannot remove {k} agents from state "
                f"{self.table.states[s]!r} (count {self.cnt[s]})"
            )
        self.update(((s, -k),))

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
        i = self.pair[a * self.n + b]
        return self.w[i] if i >= 0 else 0

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
        (test hook; raises ``AssertionError`` on any divergence).  Every
        key's weight is checked, every active key must be built, and a
        built key must agree with its pair and weight factor."""
        sid = self.table.sid
        for state, count in config.items():
            assert self.cnt[sid[state]] == count, (state, count)
        expected_total = 0
        for i, pos in enumerate(self.kpos):
            a, b = divmod(pos, self.n)
            off = 1 if a == b else 0
            key = self.keys[i]
            if key is not None:
                m_eff = key[3] if self.mode == "enabled" else 1
                assert key[:3] == (a, b, off) and self.wmult[i] == m_eff, (i, key[:4])
            pair = self.cnt[a] * (self.cnt[b] - off)
            v = max(pair, 0) * self.wmult[i]
            assert self.w[i] == v, (i, self.w[i], v)
            expected_total += v
            assert (i in self.activepos) == (v > 0)
            assert v == 0 or key is not None, (i, "active but not built")
        assert self.total == expected_total
        assert sorted(self.active) == sorted(self.activepos)
        support = [s for s, c in enumerate(self.cnt) if c > 0]
        assert sorted(self.occ) == support, (sorted(self.occ), support)
        assert [self.occ[p] for p in map(self.occpos.__getitem__, self.occ)] == (
            self.occ
        )
        assert sum(p >= 0 for p in self.occpos) == len(self.occ)


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
      ``min(next_at, max_interactions)`` as their stop: a geometric null
      run is cut there and re-drawn after the fire (null runs are
      memoryless, so the law is the same);
    * the short per-step windows — an armed drop or duplicate token, an
      unfair or adversarial step — go one step at a time through
      :func:`_window_step`, shared by both modes;
    * a silent configuration with a pending trigger within the budget
      fast-forwards to that trigger (one ``null_skip`` batch): silence
      is final only once the plan is drained.

    Uninjected runs take the loops once, with ``max_interactions`` as the
    stop.  They draw once per sampled step, also where one candidate is
    the only enabled choice for a stretch: such a stretch, which earlier
    releases applied in one go without a draw, is drawn step by step, so
    its law is unchanged but a seeded run through one samples differently.
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
        index.update(deltas)
        run.accept += ad


def _enabled_loop(index: EnabledIndex, run: _Run, *, rng, stop, obs, deadline_at):
    """Enabled-mode steps from ``run`` until ``run.interactions`` reaches
    ``stop`` or the run ends; returns the exit status."""
    states = index.table.states
    cnt = index.cnt
    w = index.w
    active = index.active
    hot = index.hot
    hot1 = index.hot1
    keys = index.keys
    repair = index._update
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
            total += repair(deltas)[0]

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
    active = index.active
    hot = index.hot
    hot1 = index.hot1
    keys = index.keys
    changing = index.changing
    repair = index._update
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
            total += repair(deltas)[0]

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
