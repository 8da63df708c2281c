#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts of this repository.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seed S]

Pair k runs ``perfbench/run.py --workload W --seed S+k --trace 0`` once in
each checkout, each with its own sources, the parent first when k is even
and the change first when k is odd.  The run length (``run_seconds``) and
the end-to-end metrics, with their directions and bounds, are read from
CHANGE's ``BENCHMARK.json``.

Prints every pair, then per metric each side's median and quartiles, the
pairs the change wins (ties count for neither side), whether the gain rule
holds (the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range) and whether the
change's median stays within the metric's bound.  The last line is one
JSON object with the pairs and that summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``checkout``: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolating between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric (``name``, ``better``, ``bound`` as in
    BENCHMARK.json), each side's quartiles over ``pairs``, whose items map
    "parent" and "change" to {metric: value}, with the change's wins, the
    gain rule and the bound."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [p[side][name] for p in pairs] for side in SIDES}
        p1, pm, p3 = quartiles(vals["parent"])
        c1, cm, c3 = quartiles(vals["change"])
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        ties = sum(p == c for p, c in zip(vals["parent"], vals["change"]))
        better = pm - cm if lower else cm - pm
        worse = (cm - pm if lower else pm - cm) / pm if pm else 0.0
        out[name] = {
            "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "wins": wins, "ties": ties, "pairs": len(pairs),
            "gain_rule": 10 * wins >= 9 * len(pairs) and better > p3 - p1,
            "within_bound": worse <= m["bound"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        record: dict = {"seed": seed, "first": order[0]}
        for side in order:
            res = run_side(checkouts[side], args.workload, seed,
                           bench["run_seconds"])
            record[side] = {n: v["value"] for n, v in res["metrics"].items()}
            record.setdefault("attempted", {})[side] = res["attempted"]
            record.setdefault("failed", {})[side] = res["failed"]
        pairs.append(record)
        print(f"pair {k + 1} seed {seed}, {order[0]} first: " + ", ".join(
            f"{m['name']} {record['parent'][m['name']]:.4g} -> "
            f"{record['change'][m['name']]:.4g}" for m in metrics),
            flush=True)
    summary = summarize(pairs, metrics)
    for name, s in summary.items():
        print(f"{name}: parent {s['parent_median']:.4g} "
              f"({s['parent_q1']:.4g}-{s['parent_q3']:.4g}), change "
              f"{s['change_median']:.4g} ({s['change_q1']:.4g}-"
              f"{s['change_q3']:.4g}), change wins {s['wins']}/{s['pairs']} "
              f"({s['ties']} ties), gain rule "
              f"{'met' if s['gain_rule'] else 'not met'}, "
              f"{'within' if s['within_bound'] else 'OVER'} bound")
    print(json.dumps({"workload": args.workload, "pairs": pairs,
                      "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
