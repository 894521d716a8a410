#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json

A is the parent, B the change.  One row per (workload, end-to-end
metric): both values, the quartiles of their per-repetition samples,
and the relative worsening of B judged by the metric's direction and
bound from ``BENCHMARK.json``.  A pair is *unresolved* — not
"unchanged" — when either side's repetition spread (interquartile
range over median) exceeds the bound.  Exits 1 on any worsening beyond
its bound or any rise in ``fail_frac``, and 2 without comparing when
the two files were not made with the same run length.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(a: dict, b: dict, spec: dict) -> tuple:
    """Rows and the number of regressions of ``b`` against ``a``."""
    rows, bad = [], 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        # a workload that stalled before it was measured has no metrics;
        # its failed operations are caught below
        both = "end_to_end" in wa and "end_to_end" in wb
        for m in spec["end_to_end"] if both else ():
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse = (mb["value"] - ma["value"]) / ma["value"]
            if m["better"] == "higher":
                worse = -worse
            qa, qb = quartiles(ma["per_rep"]), quartiles(mb["per_rep"])
            spread = max(
                (qa[1] - qa[0]) / statistics.median(ma["per_rep"]),
                (qb[1] - qb[0]) / statistics.median(mb["per_rep"]),
            )
            if worse > m["bound"]:
                verdict = "WORSE"
                bad += 1
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((name, m["name"], m["unit"], ma["value"], qa, mb["value"], qb, worse, m["bound"], verdict))
        if wb["fail_frac"] > wa["fail_frac"]:
            bad += 1
            rows.append((name, "fail_frac", "ratio", wa["fail_frac"], None, wb["fail_frac"], None, 0.0, 0.0, "WORSE"))
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb, open(ROOT / "BENCHMARK.json") as fs:
        a, b, spec = json.load(fa), json.load(fb), json.load(fs)
    length = [{k: r["provenance"][k] for k in ("seconds", "smoke")} for r in (a, b)]
    if length[0] != length[1]:
        print(f"not comparable: run lengths differ, A {length[0]} B {length[1]}", file=sys.stderr)
        return 2
    rows, bad = compare(a, b, spec)

    def q(pair) -> str:
        return "" if pair is None else f"[{pair[0]:.4g}, {pair[1]:.4g}]"

    print(f"{'workload':16s} {'metric':15s} {'unit':7s} {'A':>11s} {'A quartiles':>22s} {'B':>11s} {'B quartiles':>22s} {'worse':>8s} {'bound':>6s}")
    for name, metric, unit, va, qa, vb, qb, worse, bound, verdict in rows:
        print(
            f"{name:16s} {metric:15s} {unit:7s} {va:11.4g} {q(qa):>22s} {vb:11.4g} {q(qb):>22s} "
            f"{worse:+8.3f} {bound:6.2f}  {verdict}"
        )
    print(f"\n{bad} regression(s) beyond bound")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
