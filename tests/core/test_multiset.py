"""Unit and property tests for multiset configurations (Section 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import InvalidConfigurationError, Multiset

STATES = ["a", "b", "c", "d"]

counts_strategy = st.dictionaries(
    st.sampled_from(STATES), st.integers(min_value=0, max_value=50), max_size=4
)


class TestConstruction:
    def test_empty(self):
        c = Multiset()
        assert c.size == 0
        assert c.is_empty()
        assert c.support() == frozenset()

    def test_from_mapping(self):
        c = Multiset({"a": 2, "b": 0, "c": 1})
        assert c["a"] == 2
        assert c["b"] == 0
        assert "b" not in c  # zero counts are canonicalised away
        assert c.size == 3

    def test_from_iterable(self):
        c = Multiset(["a", "a", "b"])
        assert c["a"] == 2 and c["b"] == 1

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Multiset({"a": -1})

    def test_singleton(self):
        c = Multiset.singleton("q", 3)
        assert c["q"] == 3 and c.size == 3

    def test_bignum_counts(self):
        huge = 2 ** (2**10)
        c = Multiset({"a": huge})
        assert c.size == huge
        assert (c + c)["a"] == 2 * huge


class TestOperators:
    def test_addition(self):
        c = Multiset({"a": 1}) + Multiset({"a": 2, "b": 1})
        assert c["a"] == 3 and c["b"] == 1

    def test_subtraction(self):
        c = Multiset({"a": 3, "b": 1}) - Multiset({"a": 1, "b": 1})
        assert c["a"] == 2 and "b" not in c

    def test_subtraction_underflow_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Multiset({"a": 1}) - Multiset({"a": 2})

    def test_ordering(self):
        small = Multiset({"a": 1})
        big = Multiset({"a": 2, "b": 1})
        assert small <= big
        assert small < big
        assert not big <= small

    def test_le_incomparable(self):
        x = Multiset({"a": 2})
        y = Multiset({"b": 2})
        assert not x <= y and not y <= x

    def test_comparison_with_non_multiset_not_implemented(self):
        c = Multiset({"a": 1})
        assert c.__le__({"a": 1}) is NotImplemented
        assert c.__lt__({"a": 1}) is NotImplemented
        with pytest.raises(TypeError):
            c <= {"a": 1}
        with pytest.raises(TypeError):
            c < 5

    def test_equality_and_hash(self):
        assert Multiset({"a": 1, "b": 0}) == Multiset({"a": 1})
        assert hash(Multiset({"a": 2})) == hash(Multiset({"a": 2}))

    def test_scale(self):
        c = Multiset({"a": 2, "b": 1}).scale(3)
        assert c["a"] == 6 and c["b"] == 3
        assert Multiset({"a": 1}).scale(0).is_empty()

    def test_scale_negative_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Multiset({"a": 1}).scale(-1)

    def test_count_over_subset(self):
        c = Multiset({"a": 2, "b": 3, "c": 5})
        assert c.count(["a", "c"]) == 7
        assert c.count([]) == 0


class TestMutation:
    def test_inc_dec(self):
        c = Multiset({"a": 1})
        c.inc("b")
        c.dec("a")
        assert c["b"] == 1 and "a" not in c and c.size == 1

    def test_dec_underflow(self):
        c = Multiset({"a": 1})
        with pytest.raises(InvalidConfigurationError):
            c.dec("a", 2)

    def test_copy_is_independent(self):
        c = Multiset({"a": 1})
        d = c.copy()
        d.inc("a")
        assert c["a"] == 1 and d["a"] == 2

    def test_freeze_roundtrip(self):
        c = Multiset({"a": 2, "b": 1})
        assert dict(c.freeze()) == {"a": 2, "b": 1}


@given(counts_strategy, counts_strategy)
def test_addition_commutes(x, y):
    assert Multiset(x) + Multiset(y) == Multiset(y) + Multiset(x)


@given(counts_strategy, counts_strategy, counts_strategy)
def test_addition_associates(x, y, z):
    a, b, c = Multiset(x), Multiset(y), Multiset(z)
    assert (a + b) + c == a + (b + c)


@given(counts_strategy, counts_strategy)
def test_add_then_subtract_roundtrips(x, y):
    a, b = Multiset(x), Multiset(y)
    assert (a + b) - b == a


@given(counts_strategy, counts_strategy)
def test_size_additive(x, y):
    a, b = Multiset(x), Multiset(y)
    assert (a + b).size == a.size + b.size


@given(counts_strategy, counts_strategy)
def test_le_iff_subtraction_defined(x, y):
    a, b = Multiset(x), Multiset(y)
    if a <= b:
        assert (b - a) + a == b
    else:
        with pytest.raises(InvalidConfigurationError):
            b - a


@given(counts_strategy)
def test_support_matches_positive_counts(x):
    c = Multiset(x)
    assert c.support() == frozenset(k for k, v in x.items() if v > 0)


@given(counts_strategy)
def test_hash_consistent_with_equality(x):
    assert hash(Multiset(x)) == hash(Multiset(dict(x)))
