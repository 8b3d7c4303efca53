"""Multisets over a finite set of states, with native-bignum multiplicities.

The paper (Section 3) works with multisets ``C ∈ ℕ^Q``.  Thresholds in this
reproduction reach ``2^(2^n)``, so multiplicities must be arbitrary-precision
integers; Python's native ``int`` gives us that for free.

:class:`Multiset` is a thin, explicit wrapper around a ``dict`` that

* never stores zero counts (so ``support`` and equality are canonical),
* validates non-negativity on every construction and mutation,
* offers both *pure* operators (``+``, ``-``, ``<=``) used by the semantics
  and *in-place* mutators (:meth:`inc`, :meth:`dec`) used by the hot loops
  of the schedulers and interpreters.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Tuple

from repro.core.errors import InvalidConfigurationError

State = Hashable


class Multiset:
    """A finite multiset ``C ∈ ℕ^Q`` with non-negative integer counts.

    >>> c = Multiset({"a": 2, "b": 1})
    >>> c["a"], c["z"]
    (2, 0)
    >>> c.size
    3
    >>> (c + Multiset({"a": 1}))["a"]
    3
    """

    __slots__ = ("_counts", "_size")

    def __init__(self, counts: Mapping[State, int] | Iterable[State] | None = None):
        self._counts: Dict[State, int] = {}
        self._size: int = 0
        if counts is None:
            return
        if isinstance(counts, Mapping):
            items: Iterable[Tuple[State, int]] = counts.items()
        else:
            items = ((q, 1) for q in counts)
        for state, count in items:
            if count < 0:
                raise InvalidConfigurationError(
                    f"negative multiplicity {count} for state {state!r}"
                )
            if count:
                self._counts[state] = self._counts.get(state, 0) + count
                self._size += count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __getitem__(self, state: State) -> int:
        return self._counts.get(state, 0)

    def count(self, states: Iterable[State]) -> int:
        """Total count ``C(S)`` over a collection of states (paper notation
        ``C(S) = Σ_{q∈S} C(q)``)."""
        return sum(self._counts.get(q, 0) for q in states)

    @property
    def size(self) -> int:
        """Total number of elements, written ``|C|`` in the paper."""
        return self._size

    def __len__(self) -> int:
        return self._size

    def support(self) -> frozenset:
        """The set of states with strictly positive count."""
        return frozenset(self._counts)

    def items(self) -> Iterator[Tuple[State, int]]:
        return iter(self._counts.items())

    def __iter__(self) -> Iterator[State]:
        return iter(self._counts)

    def __contains__(self, state: State) -> bool:
        return state in self._counts

    def is_empty(self) -> bool:
        return self._size == 0

    def to_dict(self) -> Dict[State, int]:
        """A fresh plain-dict copy of the nonzero counts."""
        return dict(self._counts)

    # ------------------------------------------------------------------
    # Pure operators (paper Section 3)
    # ------------------------------------------------------------------
    def __add__(self, other: "Multiset") -> "Multiset":
        result = dict(self._counts)
        for state, count in other._counts.items():
            result[state] = result.get(state, 0) + count
        return Multiset(result)

    def __sub__(self, other: "Multiset") -> "Multiset":
        """Componentwise difference; defined only when ``other <= self``."""
        if not other <= self:
            raise InvalidConfigurationError("multiset difference would be negative")
        result = dict(self._counts)
        for state, count in other._counts.items():
            remaining = result[state] - count
            if remaining:
                result[state] = remaining
            else:
                del result[state]
        return Multiset(result)

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return all(count <= other[state] for state, count in self._counts.items())

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self <= other and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def scale(self, factor: int) -> "Multiset":
        """The multiset with every count multiplied by ``factor >= 0``."""
        if factor < 0:
            raise InvalidConfigurationError("cannot scale a multiset negatively")
        return Multiset({q: c * factor for q, c in self._counts.items()})

    # ------------------------------------------------------------------
    # In-place mutators (used by simulation hot loops)
    # ------------------------------------------------------------------
    def inc(self, state: State, amount: int = 1) -> None:
        """Add ``amount`` (may be negative) to ``state``'s count, in place."""
        new = self._counts.get(state, 0) + amount
        if new < 0:
            raise InvalidConfigurationError(
                f"count of {state!r} would become negative"
            )
        if new:
            self._counts[state] = new
        else:
            self._counts.pop(state, None)
        self._size += amount

    def dec(self, state: State, amount: int = 1) -> None:
        """Remove ``amount`` from ``state``'s count, in place."""
        self.inc(state, -amount)

    def copy(self) -> "Multiset":
        fresh = Multiset()
        fresh._counts = dict(self._counts)
        fresh._size = self._size
        return fresh

    # ------------------------------------------------------------------
    # Pickling (used by repro.runtime to ship configurations to workers)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle only the counts; the size is re-derived on load."""
        return dict(self._counts)

    def __setstate__(self, counts) -> None:
        self._counts = dict(counts)
        self._size = sum(counts.values())

    # ------------------------------------------------------------------
    # Convenience constructors / display
    # ------------------------------------------------------------------
    @classmethod
    def singleton(cls, state: State, count: int = 1) -> "Multiset":
        """The multiset containing ``count`` copies of ``state`` (the paper's
        abuse of notation identifying ``q`` with the multiset ``{q}``)."""
        return cls({state: count})

    def freeze(self) -> frozenset:
        """A hashable canonical snapshot, usable as a dict key."""
        return frozenset(self._counts.items())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{state!r}: {count}" for state, count in sorted(
                self._counts.items(), key=lambda item: repr(item[0])
            )
        )
        return f"Multiset({{{inner}}})"
