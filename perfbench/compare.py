#!/usr/bin/env python3
"""Compare the benchmark on two checkouts, or measure the spread on one.

    python3 perfbench/compare.py --head . --base ../parent --workload classes --runs 10

Run i uses seed i (1, 2, ..., --runs, at least 10), the same on both
sides, for run_seconds of BENCHMARK.json, and the side that runs first
alternates.  For every
end-to-end metric in BENCHMARK.json this prints each side's median and
quartiles, the spread (q3 - q1) / median, and, with --base, the change
of the medians against the metric's bound.  A gain is claimed only when
the head wins at least nine tenths of the pairs and the medians differ by
more than the base's own quartile distance.  Without --base it reports the
spread of the head alone.  Each checkout runs its own perfbench/, so copy
the head's perfbench/ into the base checkout when the parent predates it;
a change that claims a gain leaves perfbench/ untouched.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--head", default=str(HERE.parent), help="checkout with the change")
    ap.add_argument("--base", help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="seeds 1..runs; at least 10")
    args = ap.parse_args(argv)
    if args.runs < 10:
        ap.error("--runs must be at least 10")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"head": args.head} if not args.base else {"base": args.base, "head": args.head}
    results = {side: [] for side in sides}
    for i in range(args.runs):
        order = list(sides) if i % 2 == 0 else list(reversed(list(sides)))
        for side in order:
            doc = run_once(sides[side], args.workload, i + 1, seconds)
            results[side].append(doc)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items())
            print(f"run {i + 1} {side} seed {i + 1}: correct={doc['correct']} "
                  f"failed={doc['failed']}/{doc['attempted']} {values}", file=sys.stderr)

    status = 0
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        lower = m["better"] == "lower"
        row = [f"{name:14s}"]
        values = {side: [d["metrics"][name]["value"] for d in docs] for side, docs in results.items()}
        for side in sides:
            med, q1, q3, spread = summary(values[side])
            row.append(f"{side} median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
        if args.base:
            base_med, base_q1, base_q3, base_spread = summary(values["base"])
            head_med = summary(values["head"])[0]
            worse = (head_med - base_med) / base_med * (1 if lower else -1)
            wins = sum((h < b) if lower else (h > b) for b, h in zip(values["base"], values["head"]))
            if worse > bound:
                verdict, status = "REGRESSED", 1
            elif base_spread > bound:
                verdict = "unresolved (spread above bound)"
            elif wins >= 0.9 * args.runs and abs(head_med - base_med) > base_q3 - base_q1:
                verdict = "gain"
            else:
                verdict = "no change beyond bound"
            row.append(f"worse by {worse:+.3f} (bound {bound}), head wins {wins}/{args.runs}: {verdict}")
        elif summary(values["head"])[3] > bound:
            status = 1
            row.append(f"SPREAD ABOVE BOUND {bound}")
        print("  ".join(row))
    return status


if __name__ == "__main__":
    sys.exit(main())
