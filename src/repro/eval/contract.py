"""The perf contract: committed bench headlines checked against a
committed baseline.

The bench harnesses write ``BENCH_query.json`` / ``BENCH_ingest.json``;
this module distils them into *headline* metrics (each with a
direction and a relative tolerance), persists them as
``benchmarks/baselines/perf_contract.json``, and checks a fresh pair of
reports against that baseline.  CI fails when a headline regresses
beyond its tolerance — the T²K²-style idea of recorded performance as
an enforced contract rather than a graph someone eyeballs.

Both the reports and the baseline are committed from the same machine,
so the comparison is deterministic in CI (no re-measuring latency on
unknown runner hardware); correctness headlines (result parity,
recovery fidelity, telemetry overhead within budget) are additionally
asserted absolutely, baseline or not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

CONTRACT_SCHEMA_VERSION = 1
BASELINE_PATH = "benchmarks/baselines/perf_contract.json"

#: default relative tolerances by headline kind
LATENCY_TOL = 0.25      # wall-clock: noisy even on one machine
THROUGHPUT_TOL = 0.25
RATIO_TOL = 0.10        # deterministic decode/compression ratios
OVERHEAD_TOL = 0.05     # telemetry overhead ratio drift


@dataclass(frozen=True)
class Headline:
    """One contract metric: where it comes from and how it may move."""

    key: str                 # dotted name in the contract file
    source: str              # "query" | "ingest" | "serve"
    extract: Callable[[Dict[str, Any]], Any]
    direction: str           # "higher" | "lower" | "exact"
    rel_tol: float = 0.0     # allowed regression in the bad direction

    def pull(self, payload: Dict[str, Any]) -> Any:
        try:
            return self.extract(payload)
        except (KeyError, IndexError, TypeError):
            return None


def _workload(payload: Dict[str, Any], name: str) -> Dict[str, Any]:
    for workload in payload["workloads"]:
        if workload["name"] == name:
            return workload
    raise KeyError(name)


def _headlines() -> List[Headline]:
    out: List[Headline] = []
    for name in ("fig8_single", "fig8_single_windowed", "fig10_multi"):
        out.append(Headline(
            key=f"query.{name}.results_identical", source="query",
            extract=lambda p, n=name: _workload(p, n)["results_identical"],
            direction="exact"))
        out.append(Headline(
            key=f"query.{name}.decoded_bytes_reduction", source="query",
            extract=lambda p, n=name: _workload(p, n)[
                "decoded_bytes_reduction"],
            direction="higher", rel_tol=RATIO_TOL))
        out.append(Headline(
            key=f"query.{name}.block.latency_p95_ms", source="query",
            extract=lambda p, n=name: _workload(p, n)["formats"]["block"][
                "latency_ms"]["p95"],
            direction="lower", rel_tol=LATENCY_TOL))
    out.append(Headline(
        key="query.telemetry.overhead_ratio", source="query",
        extract=lambda p: p["telemetry_overhead"]["overhead_ratio"],
        direction="lower", rel_tol=OVERHEAD_TOL))
    out.append(Headline(
        key="query.telemetry.within_budget", source="query",
        extract=lambda p: p["telemetry_overhead"]["within_budget"],
        direction="exact"))
    out.append(Headline(
        key="ingest.appends_per_second", source="ingest",
        extract=lambda p: p["ingest"]["appends_per_second"],
        direction="higher", rel_tol=THROUGHPUT_TOL))
    out.append(Headline(
        key="ingest.query_latency_p95_ms", source="ingest",
        extract=lambda p: p["query_latency_ms"]["p95"],
        direction="lower", rel_tol=LATENCY_TOL))
    out.append(Headline(
        key="ingest.recovery_seconds", source="ingest",
        extract=lambda p: p["recovery"]["seconds"],
        direction="lower", rel_tol=LATENCY_TOL))
    out.append(Headline(
        key="ingest.recovery.posts_match", source="ingest",
        extract=lambda p: p["recovery"]["posts_match"],
        direction="exact"))
    out.append(Headline(
        key="ingest.compaction.read_amp_reduction", source="ingest",
        extract=lambda p: p["compaction"]["read_amp_reduction"],
        direction="higher", rel_tol=RATIO_TOL))
    out.append(Headline(
        key="ingest.compaction.results_identical", source="ingest",
        extract=lambda p: p["compaction"]["results_identical"],
        direction="exact"))
    out.append(Headline(
        key="serve.cached_results_identical", source="serve",
        extract=lambda p: p["cached_results_identical"],
        direction="exact"))
    out.append(Headline(
        key="serve.scaling.peak_qps", source="serve",
        extract=lambda p: p["scaling"]["peak_qps"],
        direction="higher", rel_tol=THROUGHPUT_TOL))
    out.append(Headline(
        key="serve.overload.shed_tail_bounded", source="serve",
        extract=lambda p: p["overload"]["shed_tail_bounded"],
        direction="exact"))
    out.append(Headline(
        key="serve.overload.p99_on_ms", source="serve",
        extract=lambda p: p["overload"]["shedding_on"]["latency_ms"]["p99"],
        direction="lower", rel_tol=LATENCY_TOL))
    out.append(Headline(
        key="serve.mixed.cache_hit_rate", source="serve",
        extract=lambda p: p["mixed"]["cache_hit_rate"],
        direction="higher", rel_tol=RATIO_TOL))
    return out


HEADLINES = _headlines()

#: headlines that must hold absolutely (not merely vs. baseline)
MUST_BE_TRUE = (
    "query.fig8_single.results_identical",
    "query.fig8_single_windowed.results_identical",
    "query.fig10_multi.results_identical",
    "query.telemetry.within_budget",
    "ingest.recovery.posts_match",
    "ingest.compaction.results_identical",
    "serve.cached_results_identical",
)

def extract_headlines(query_payload: Optional[Dict[str, Any]],
                      ingest_payload: Optional[Dict[str, Any]],
                      serve_payload: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Dict[str, Any]]:
    """Pull every headline present in the given reports.  A missing
    report just skips its headlines (the checker reports coverage)."""
    payloads = {"query": query_payload, "ingest": ingest_payload,
                "serve": serve_payload}
    out: Dict[str, Dict[str, Any]] = {}
    for headline in HEADLINES:
        payload = payloads[headline.source]
        if payload is None:
            continue
        value = headline.pull(payload)
        if value is None:
            continue
        out[headline.key] = {
            "value": value,
            "direction": headline.direction,
            "rel_tol": headline.rel_tol,
        }
    return out


def build_baseline(query_payload: Optional[Dict[str, Any]],
                   ingest_payload: Optional[Dict[str, Any]],
                   serve_payload: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    return {
        "schema_version": CONTRACT_SCHEMA_VERSION,
        "headlines": extract_headlines(query_payload, ingest_payload,
                                       serve_payload),
    }


def write_baseline(baseline: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    version = baseline.get("schema_version")
    if version != CONTRACT_SCHEMA_VERSION:
        raise ValueError(f"unsupported contract schema_version {version!r} "
                         f"(expected {CONTRACT_SCHEMA_VERSION})")
    return baseline


def check_contract(current: Dict[str, Dict[str, Any]],
                   baseline: Dict[str, Any]) -> List[str]:
    """Compare freshly extracted headlines against the baseline; returns
    human-readable violations (empty = contract holds).

    Absolute checks (``MUST_BE_TRUE``) run first; then every baseline headline must be present and must not
    have regressed in its bad direction by more than ``rel_tol``.
    Improvements never fail."""
    problems: List[str] = []
    for key in MUST_BE_TRUE:
        entry = current.get(key)
        if entry is not None and entry["value"] is not True:
            problems.append(f"{key} must be true, got {entry['value']!r}")
    for key, base_entry in sorted(baseline.get("headlines", {}).items()):
        entry = current.get(key)
        if entry is None:
            problems.append(f"{key}: missing from current reports "
                            f"(baseline has {base_entry['value']!r})")
            continue
        direction = base_entry.get("direction", "exact")
        if direction == "exact":
            if entry["value"] != base_entry["value"]:
                problems.append(
                    f"{key}: expected {base_entry['value']!r}, "
                    f"got {entry['value']!r}")
            continue
        base_value = float(base_entry["value"])
        value = float(entry["value"])
        tol = float(base_entry.get("rel_tol", 0.0))
        if direction == "higher":
            floor = base_value * (1.0 - tol)
            if value < floor:
                problems.append(
                    f"{key}: {value:g} regressed below {floor:g} "
                    f"(baseline {base_value:g}, tol {tol:.0%})")
        elif direction == "lower":
            ceiling = base_value * (1.0 + tol)
            if value > ceiling:
                problems.append(
                    f"{key}: {value:g} regressed above {ceiling:g} "
                    f"(baseline {base_value:g}, tol {tol:.0%})")
        else:
            problems.append(f"{key}: unknown direction {direction!r}")
    return problems


def render_contract(current: Dict[str, Dict[str, Any]],
                    baseline: Optional[Dict[str, Any]] = None) -> str:
    """Terminal listing of every headline, with baseline deltas when a
    baseline is supplied."""
    base_headlines = (baseline or {}).get("headlines", {})
    lines: List[str] = []
    for key in sorted(current):
        entry = current[key]
        value = entry["value"]
        text = f"{value:g}" if isinstance(value, (int, float)) \
            and not isinstance(value, bool) else str(value)
        line = f"{key:<44} {text:>10}  ({entry['direction']}"
        if entry["rel_tol"]:
            line += f" ±{entry['rel_tol']:.0%}"
        line += ")"
        base = base_headlines.get(key)
        if base is not None and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            base_value = base["value"]
            if isinstance(base_value, (int, float)) and base_value:
                delta = (value - base_value) / base_value
                line += f"  baseline {base_value:g} ({delta:+.1%})"
        lines.append(line)
    return "\n".join(lines)
