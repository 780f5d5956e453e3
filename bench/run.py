#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 bench/run.py --all --trace 1 --out bench/out/report.json

Prints every metric by name and unit, checks answers against the
benchmark's own brute-force oracle, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(``--all`` runs each workload in a process of its own, one such line
each).  Exits non-zero when an answer is wrong or an input pin does
not match.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import spec

SOURCE = os.path.join(spec.ROOT, "src")
# The program under test is the checkout's own source, never an
# installed copy (main() checks).
sys.path.insert(0, SOURCE)

try:
    import repro  # noqa: E402
except ImportError:
    sys.exit(f"{SOURCE} does not hold the repro package: "
             "the benchmark runs from a checkout of the repository")
import environment  # noqa: E402
import ingest_workload  # noqa: E402
import query_workload  # noqa: E402
import serve_workload  # noqa: E402
import spans  # noqa: E402
from common import Options, Outcome  # noqa: E402

RUNNERS = {
    "query_narrow": lambda options: query_workload.run("query_narrow", options),
    "query_broad": lambda options: query_workload.run("query_broad", options),
    "ingest_stream": ingest_workload.run,
    "serve_mixed": serve_workload.run,
}


def parse(argv, benchmark):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=spec.WORKLOADS)
    which.add_argument("--all", action="store_true",
                       help="run the four workloads in sequence")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="length of the measured phase (sets the op counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the traced pass and reports per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply corpus and op counts (smoke runs; "
                             "marks the output non-comparable)")
    parser.add_argument("--out", help="write the full report to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def check_pin(name, options, benchmark, outcome):
    """At the pinned seed and the reference sizes the generated inputs
    must be the ones this benchmark was defined on."""
    pins = spec.load_pins()
    if (options.seed != pins["seed"] or options.scale != 1.0
            or options.seconds != benchmark["run_seconds"]):
        return
    want = pins["sha256"][name]
    if outcome.fingerprint != want:
        sys.exit(f"{name}: generated inputs changed: sha256 "
                 f"{outcome.fingerprint} is not the pinned {want} "
                 f"(bench/pins.json); repro.data no longer makes the inputs "
                 f"this benchmark was defined on")


def metrics_line(name, options, benchmark, outcome):
    """The driver's result object; also enforces that the names emitted
    are exactly the names ``BENCHMARK.json`` declares."""
    section = "per_layer" if options.trace else "end_to_end"
    measured = outcome.per_layer if options.trace else outcome.end_to_end
    declared = {metric["name"]: metric["unit"] for metric in benchmark[section]}
    unnamed = sorted(set(measured) - set(declared))
    if unnamed:
        sys.exit(f"{name}: metrics not named in BENCHMARK.json: {unnamed}")
    if not options.trace:
        missing = sorted(set(declared) - set(measured))
        if missing:
            sys.exit(f"{name}: end-to-end metrics not measured: {missing}")
    # A layer this workload does not exercise reads 0.
    return {
        "correct": outcome.mismatches == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": float(measured.get(metric, 0.0)), "unit": unit}
                    for metric, unit in declared.items()},
    }


def show(name, benchmark, outcome, traced):
    print(f"== {name}  attempted={outcome.attempted} failed={outcome.failed} "
          f"sizes={outcome.sizes} samples={outcome.samples}")
    sections = [("end_to_end", outcome.end_to_end)]
    if traced:
        sections.append(("per_layer", outcome.per_layer))
    for section, measured in sections:
        for metric in benchmark[section]:
            if metric["name"] in measured:
                print(f"  {metric['name']:<42} {measured[metric['name']]:>16.6f} "
                      f"{metric['unit']}")
    for warning in outcome.warnings:
        print(f"  warning: {warning}", file=sys.stderr)


def run_all(args, report):
    """One child process per workload, so that each workload's peak RSS
    is its own; their reports are merged into one."""
    os.makedirs(spec.OUT_DIR, exist_ok=True)
    status = 0
    for name in spec.WORKLOADS:
        part = os.path.join(spec.OUT_DIR, f"part-{os.getpid()}-{name}.json")
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--scale", repr(args.scale),
             "--out", part])
        status = status or done.returncode
        if os.path.exists(part):
            with open(part, encoding="utf-8") as handle:
                report["workloads"].update(json.load(handle)["workloads"])
            os.remove(part)
    return status


def main(argv=None):
    if not os.path.abspath(repro.__file__).startswith(SOURCE):
        sys.exit(f"repro was imported from {repro.__file__}, not this checkout")
    benchmark = spec.load_benchmark()
    args = parse(argv, benchmark)
    options = Options(seed=args.seed, seconds=args.seconds, scale=args.scale,
                      trace=bool(args.trace))
    report = {"environment": environment.describe(options),
              "comparable": options.scale == 1.0
              and options.seconds == benchmark["run_seconds"],
              "workloads": {}}
    for warning in report["environment"]["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)

    if args.all:
        status = run_all(args, report)
    else:
        name = args.workload
        outcome: Outcome = RUNNERS[name](options)
        check_pin(name, options, benchmark, outcome)
        show(name, benchmark, outcome, options.trace)
        line = metrics_line(name, options, benchmark, outcome)
        if options.trace:
            os.makedirs(spec.OUT_DIR, exist_ok=True)
            spans.write_jsonl(os.path.join(spec.OUT_DIR, f"{name}.spans.jsonl"),
                              outcome.spans)
        report["workloads"][name] = {
            "sizes": outcome.sizes, "samples": outcome.samples,
            "fingerprint": outcome.fingerprint,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "mismatches": outcome.mismatches,
            "warnings": outcome.warnings,
            "end_to_end": outcome.end_to_end,
            "per_layer": outcome.per_layer if options.trace else None,
        }
        status = 0 if line["correct"] else 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if not args.all:
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not vary between runs, or the
        # program's work counters would not repeat exactly.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
