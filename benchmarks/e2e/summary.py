"""Statistics helpers shared by the e2e runner, ``compare.py`` and the tests.

Kept free of ``repro`` imports so the comparison tool works on run JSONs
alone.
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered by :func:`tail_percentile`, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
TAIL_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (the default exclusive method); a single value is its own
    quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def tail_percentile(
    values: Sequence[float], beyond: int = TAIL_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(p, value, samples_beyond)`` using the nearest-rank
    definition (the value at rank ``ceil(p·n/100)``), or ``None`` when
    even the median leaves fewer than ``beyond`` samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100.0))
        if n - rank >= beyond:
            best = (p, ordered[rank - 1], n - rank)
    return best


def span_label(name: str) -> str:
    """Metric label of a span name: a numeric suffix is dropped
    (``attempt:2`` → ``attempt``) and ``:`` becomes ``.``
    (``cache:table`` → ``cache.table``)."""
    head, sep, tail = name.partition(":")
    if sep and tail.isdigit():
        return head
    return name.replace(":", ".")


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Total self seconds per span label.

    ``spans`` are dicts with ``name``, ``path``, ``start`` and ``end`` (the
    shape of :meth:`SpanTracer.to_payload`).  A span's self time is its
    duration minus the part of its interval covered by its children — the
    spans one level below it on the path whose intervals meet its own.
    Overlapping children are counted once (the union of their intervals),
    and a child sticking out of its parent counts only inside it.
    """
    done = [s for s in spans if s.get("end") is not None]
    groups: Dict[tuple, List[dict]] = defaultdict(list)
    for s in done:
        groups[tuple(s["path"][:-1])].append(s)
    index = {}
    for parent, kids in groups.items():
        kids.sort(key=lambda s: s["start"])
        longest = max(s["end"] - s["start"] for s in kids)
        index[parent] = ([s["start"] for s in kids], kids, longest)
    out: Dict[str, float] = defaultdict(float)
    for s in done:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        entry = index.get(tuple(s["path"]))
        if entry is not None:
            starts, kids, longest = entry
            first = bisect.bisect_left(starts, lo - longest)
            last = bisect.bisect_left(starts, hi)
            covered = _covered(
                ((k["start"], k["end"]) for k in kids[first:last]), lo, hi
            )
        out[span_label(s["name"])] += (hi - lo) - covered
    return dict(out)
