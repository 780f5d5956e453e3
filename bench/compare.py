#!/usr/bin/env python3
"""Compare two reports written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json [--agree]

Per workload and end-to-end metric: both values, B's change relative
to A, and ``ok`` / ``regression`` / ``improved`` against the bound
``BENCHMARK.json`` fixes for the metric.  Where both reports carry
per-layer metrics, the program's own work counters must match exactly
on the single-threaded workloads.  Exits 1 on a regression or a counter
mismatch; with ``--agree`` (two runs of one commit) an improvement
beyond the bound fails too, since it is run-to-run noise the bound is
meant to contain.
"""

from __future__ import annotations

import argparse
import json
import sys

import spec


def verdict(before: float, after: float, better: str, bound: float) -> "tuple[float, str]":
    change = (after - before) / abs(before)
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return change, "regression"
    if worsening < -bound:
        return change, "improved"
    return change, "ok"


def compare(first: dict, second: dict, agree: bool) -> int:
    benchmark = spec.load_benchmark()
    problems = 0
    for report, label in ((first, "A"), (second, "B")):
        if not report.get("comparable", False):
            print(f"note: report {label} was run at another --scale or "
                  f"--seconds and is not comparable")
    for name in spec.WORKLOADS:
        a = first["workloads"].get(name)
        b = second["workloads"].get(name)
        if a is None or b is None:
            continue
        print(f"== {name}")
        if a["fingerprint"] != b["fingerprint"]:
            print("  inputs differ (seed or generator): counters are not comparable")
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            change, word = verdict(a["end_to_end"][key], b["end_to_end"][key],
                                   metric["better"], metric["bound"])
            if word == "regression" or (agree and word == "improved"):
                problems += 1
            print(f"  {key:<16} {a['end_to_end'][key]:>14.4f} "
                  f"{b['end_to_end'][key]:>14.4f} {metric['unit']:<5} "
                  f"{change:>+8.1%}  (bound {metric['bound']:.0%})  {word}")
        for side, label in ((a, "A"), (b, "B")):
            if side["failed"]:
                print(f"  {label}: {side['failed']} of {side['attempted']} ops failed")
        if (a.get("per_layer") and b.get("per_layer")
                and name in spec.EXACT_WORKLOADS
                and a["fingerprint"] == b["fingerprint"]):
            for key in sorted(spec.COUNTERS):
                left, right = a["per_layer"].get(key, 0), b["per_layer"].get(key, 0)
                if left != right:
                    problems += 1
                    print(f"  {key:<42} {left!r} != {right!r}  counter mismatch")
    print("no regression" if problems == 0 else f"{problems} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--agree", action="store_true",
                        help="two runs of one commit: fail on any change beyond a bound")
    args = parser.parse_args(argv)
    with open(args.first, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(args.second, encoding="utf-8") as handle:
        second = json.load(handle)
    return compare(first, second, args.agree)


if __name__ == "__main__":
    sys.exit(main())
