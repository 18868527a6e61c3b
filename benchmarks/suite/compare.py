#!/usr/bin/env python3
"""Compare two result files of ``run.py --repeat N --out``.

    python3 benchmarks/suite/compare.py A.json [B.json]

For every (end-to-end metric, workload) pair: both medians, each side's
quartile spread (Q3 - Q1 as a share of the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them), the ratio B/A with
its base, and whether B is within the metric's bound of A.  A pair whose
own spread exceeds the bound is *unresolved*, not unchanged.  With one
file, prints that file's medians and spreads.  Exits 1 when a pair is
out of bound (or, with one file, when a spread exceeds its bound).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import common

Pair = Tuple[str, str]  # (workload, metric)


def load(path: str) -> Dict[Pair, List[float]]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    values: Dict[Pair, List[float]] = {}
    for run in document["runs"]:
        for metric, value in run["end_to_end"].items():
            values.setdefault((run["workload"], metric), []).append(value)
    return values


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of base."""
    if not base:
        return 0.0
    change = (other - base) / base
    return -change if better == "higher" else change


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) not in (1, 2):
        print(__doc__)
        return 2
    entries = {e["name"]: e for e in common.catalogue()["end_to_end"]}
    a = load(paths[0])
    b = load(paths[1]) if len(paths) == 2 else None
    out_of_bound = 0
    header = f"{'workload':18} {'metric':26} {'median A':>12} {'spread A':>9}"
    if b is not None:
        header += f" {'median B':>12} {'spread B':>9} {'B/A':>7}  verdict"
    else:
        header += f" {'bound':>6} {'n':>3}  verdict"
    print(header)
    for pair in sorted(a):
        workload, metric = pair
        entry = entries.get(metric)
        if entry is None:
            continue
        bound = entry["bound"]
        median_a, spread_a = statistics.median(a[pair]), spread(a[pair])
        line = f"{workload:18} {metric:26} {median_a:12.4f} {spread_a:9.2%}"
        if b is None:
            steady = spread_a <= bound
            out_of_bound += not steady
            verdict = "steady" if spread_a <= bound / 3 else ("within bound" if steady else "SPREAD > BOUND")
            print(f"{line} {bound:6.0%} {len(a[pair]):3}  {verdict}")
            continue
        if pair not in b:
            print(f"{line}  missing in B")
            out_of_bound += 1
            continue
        median_b, spread_b = statistics.median(b[pair]), spread(b[pair])
        worse = worsening(median_a, median_b, entry["better"])
        ratio = median_b / median_a if median_a else float("nan")
        if max(spread_a, spread_b) > bound:
            verdict = "unresolved (spread > bound)"
        elif worse > bound:
            verdict = f"OUT of bound ({worse:+.1%} worse, bound {bound:.0%})"
            out_of_bound += 1
        else:
            verdict = f"in bound ({worse:+.1%} worse, bound {bound:.0%})"
        print(f"{line} {median_b:12.4f} {spread_b:9.2%} {ratio:7.3f}  {verdict}"
              f"  [base {median_a:.4g} {entry['unit']}]")
    return 1 if out_of_bound else 0


if __name__ == "__main__":
    sys.exit(main())
