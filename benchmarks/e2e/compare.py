#!/usr/bin/env python3
"""Paired comparison of two sets of e2e runs (parent commit vs change).

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... \\
                                      --change c1.json c2.json ...

Each file is a ``run.py --out`` record set.  Runs are paired in the order
given (the i-th parent run of a workload with its i-th change run); run
the pairs alternately, parent first in one pair and change first in the
next.  For every workload and end-to-end metric in ``BENCHMARK.json`` the
verdict follows the rule of the ``choosing-metrics`` guide, section 8:

* ``GAIN`` — at least 10 pairs, the change wins at least 90% of them
  (ties count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``UNRESOLVED`` — the run-to-run spread (IQR / median, the wider side)
  exceeds the metric's bound, and not every change run beats every
  parent run;
* ``REGRESSION`` — the change's median is worse than the parent's by more
  than the bound;
* ``ok`` — no worse than its bound.

A gain does not count (``void-gain``) on a workload where the change
failed more calls than the parent.  Exit status 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from summary import quartiles, spread

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths) -> Dict[str, List[dict]]:
    """Untraced run records by workload, in file order."""
    out: Dict[str, List[dict]] = {}
    for path in paths:
        for record in json.loads(Path(path).read_text())["runs"]:
            if not record["trace"]:
                out.setdefault(record["workload"], []).append(record)
    return out


def judge(parent: List[float], change: List[float], better: str, bound: float) -> dict:
    """Verdict for one metric on one workload from paired values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    improvement = sign * (cmed - pmed)
    worse_share = -improvement / abs(pmed) if pmed else 0.0
    wide = max(spread(parent), spread(change)) > bound
    enough = len(pairs) >= MIN_PAIRS and won >= WIN_SHARE * len(pairs)
    if enough and improvement > pq3 - pq1:
        verdict = "GAIN"
    elif wide:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        verdict = "better" if all_better else "UNRESOLVED"
    elif worse_share > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    return {
        "verdict": verdict,
        "pairs": len(pairs),
        "won": won / len(pairs) if pairs else 0.0,
        "parent": (pq1, pmed, pq3),
        "change": (cq1, cmed, cq3),
        "delta": (cmed - pmed) / abs(pmed) if pmed else 0.0,
    }


def compare(parent_runs, change_runs, spec) -> Dict[str, Dict[str, dict]]:
    table: Dict[str, Dict[str, dict]] = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        p_runs, c_runs = parent_runs.get(name, []), change_runs.get(name, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        more_failures = sum(r["result"]["failed"] for r in c_runs) > sum(
            r["result"]["failed"] for r in p_runs
        )
        row = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            cell = judge(
                [r["result"]["metrics"][key]["value"] for r in p_runs],
                [r["result"]["metrics"][key]["value"] for r in c_runs],
                metric["better"],
                metric["bound"],
            )
            if cell["verdict"] == "GAIN" and more_failures:
                cell["verdict"] = "void-gain"
            row[key] = cell
        row["_order"] = {
            "parent_first": sum(
                p["started_at"] < c["started_at"] for p, c in zip(p_runs, c_runs)
            ),
            "pairs": n,
        }
        table[name] = row
    return table


def render(table, spec) -> str:
    metrics = [m["name"] for m in spec["end_to_end"]]
    lines = ["workload        " + "".join(f"{m:>28s}" for m in metrics) + "   pairs (parent first)"]
    for workload, row in table.items():
        cells = "".join(
            f"{row[m]['verdict']} {row[m]['delta']:+.1%} won {row[m]['won']:.0%}".rjust(28)
            for m in metrics
        )
        order = row["_order"]
        lines.append(f"{workload:16s}{cells}   {order['pairs']} ({order['parent_first']})")
    lines.append("")
    lines.append("detail: median [q1, q3] parent -> change")
    for workload, row in table.items():
        for m in metrics:
            c = row[m]
            p1, pm, p3 = c["parent"]
            c1, cm, c3 = c["change"]
            lines.append(
                f"  {workload:15s} {m:12s} {pm:.6g} [{p1:.6g}, {p3:.6g}] -> "
                f"{cm:.6g} [{c1:.6g}, {c3:.6g}]  won {c['won']:.0%} of {c['pairs']}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = compare(load_runs(args.parent), load_runs(args.change), spec)
    print(render(table, spec))
    regressed = any(
        cell["verdict"] == "REGRESSION"
        for row in table.values()
        for key, cell in row.items()
        if key != "_order"
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
