"""Tests for the perf-contract headline extraction and checker."""

import json

import pytest

from repro.eval.contract import (
    CONTRACT_SCHEMA_VERSION,
    MUST_BE_TRUE,
    build_baseline,
    check_contract,
    extract_headlines,
    load_baseline,
    render_contract,
    write_baseline,
)


def make_query_payload(p95_ms=4.0, overhead=1.01, within=True,
                       identical=True):
    workloads = []
    for name in ("fig8_single", "fig8_single_windowed", "fig10_multi"):
        workloads.append({
            "name": name,
            "results_identical": identical,
            "decoded_bytes_reduction": 0.6,
            "formats": {"block": {"latency_ms": {"p95": p95_ms}}},
        })
    return {
        "workloads": workloads,
        "telemetry_overhead": {"overhead_ratio": overhead,
                               "within_budget": within},
    }


def make_ingest_payload(aps=5000.0, recovery_s=0.2, posts_match=True,
                        read_amp_reduction=2.5, identical=True):
    return {
        "ingest": {"appends_per_second": aps},
        "query_latency_ms": {"p95": 3.0},
        "recovery": {"seconds": recovery_s, "posts_match": posts_match},
        "compaction": {"read_amp_reduction": read_amp_reduction,
                       "results_identical": identical,
                       "meets_target": True},
    }


def make_serve_payload(peak_qps=450.0, p99_on_ms=120.0, hit_rate=0.4,
                       tail_bounded=True, identical=True):
    return {
        "scaling": {"peak_qps": peak_qps, "peak_workers": 4},
        "overload": {
            "shed_tail_bounded": tail_bounded,
            "shedding_on": {"latency_ms": {"p99": p99_on_ms}},
            "shedding_off": {"latency_ms": {"p99": p99_on_ms * 8}},
        },
        "mixed": {"cache_hit_rate": hit_rate},
        "cache_identity": {"identical": identical, "checks": 8,
                           "hits_observed": 8},
        "cached_results_identical": identical,
    }


class TestExtractHeadlines:
    def test_full_extraction(self):
        current = extract_headlines(make_query_payload(),
                                    make_ingest_payload(),
                                    make_serve_payload())
        assert current["query.fig8_single.results_identical"]["value"] is True
        assert current["query.telemetry.overhead_ratio"]["value"] == 1.01
        assert current["ingest.appends_per_second"]["value"] == 5000.0
        assert current["ingest.recovery.posts_match"]["value"] is True
        assert current["serve.cached_results_identical"]["value"] is True
        assert current["serve.scaling.peak_qps"]["value"] == 450.0
        assert current["serve.overload.shed_tail_bounded"]["value"] is True
        assert current["serve.overload.p99_on_ms"]["value"] == 120.0
        assert current["serve.mixed.cache_hit_rate"]["value"] == 0.4
        # Every headline carries its comparison rules.
        for entry in current.values():
            assert entry["direction"] in ("higher", "lower", "exact")
            assert entry["rel_tol"] >= 0.0

    def test_missing_report_skips_its_headlines(self):
        current = extract_headlines(make_query_payload(), None)
        assert "query.telemetry.overhead_ratio" in current
        assert not any(key.startswith("ingest.") for key in current)
        assert not any(key.startswith("serve.") for key in current)

    def test_malformed_payload_skips_headline(self):
        payload = make_query_payload()
        del payload["telemetry_overhead"]
        current = extract_headlines(payload, None)
        assert "query.telemetry.overhead_ratio" not in current
        assert "query.fig8_single.block.latency_p95_ms" in current


class TestCheckContract:
    def _baseline(self, **kwargs):
        return build_baseline(make_query_payload(**kwargs),
                              make_ingest_payload())

    def test_identical_reports_hold(self):
        baseline = self._baseline()
        current = extract_headlines(make_query_payload(),
                                    make_ingest_payload())
        assert check_contract(current, baseline) == []

    def test_improvements_never_fail(self):
        baseline = self._baseline()
        current = extract_headlines(
            make_query_payload(p95_ms=1.0, overhead=0.99),
            make_ingest_payload(aps=9999.0, recovery_s=0.05))
        assert check_contract(current, baseline) == []

    def test_latency_regression_within_tolerance_passes(self):
        baseline = self._baseline()
        current = extract_headlines(make_query_payload(p95_ms=4.9),
                                    make_ingest_payload())
        assert check_contract(current, baseline) == []

    def test_latency_regression_beyond_tolerance_fails(self):
        baseline = self._baseline()
        current = extract_headlines(make_query_payload(p95_ms=5.1),
                                    make_ingest_payload())
        problems = check_contract(current, baseline)
        assert len(problems) == 3   # one per workload's block p95
        assert all("latency_p95_ms" in p for p in problems)

    def test_throughput_regression_fails(self):
        baseline = self._baseline()
        current = extract_headlines(make_query_payload(),
                                    make_ingest_payload(aps=3000.0))
        problems = check_contract(current, baseline)
        assert problems == [
            "ingest.appends_per_second: 3000 regressed below 3750 "
            "(baseline 5000, tol 25%)"]

    def test_must_be_true_fails_absolutely(self):
        # Even with a baseline that also says False, the absolute check
        # fires — correctness is not baseline-relative.
        baseline = self._baseline(identical=False, within=False)
        current = extract_headlines(
            make_query_payload(identical=False, within=False),
            make_ingest_payload())
        problems = check_contract(current, baseline)
        must_fail = [p for p in problems if "must be true" in p]
        assert len(must_fail) == 4   # 3 parity keys + within_budget

    def test_missing_headline_detected(self):
        baseline = self._baseline()
        current = extract_headlines(make_query_payload(), None)
        problems = check_contract(current, baseline)
        assert any("ingest.appends_per_second" in p and "missing" in p
                   for p in problems)

    def test_must_be_true_covers_committed_keys(self):
        assert set(MUST_BE_TRUE) <= set(
            extract_headlines(make_query_payload(), make_ingest_payload(),
                              make_serve_payload()))

    def test_serve_cache_identity_fails_absolutely(self):
        # A baseline recorded with a broken cache cannot launder a
        # cached-result mismatch past the contract.
        bad = make_serve_payload(identical=False)
        baseline = build_baseline(None, None, bad)
        current = extract_headlines(None, None, bad)
        problems = check_contract(current, baseline)
        assert problems == ["serve.cached_results_identical must be true, "
                            "got False"]

    def test_serve_qps_regression_fails(self):
        baseline = build_baseline(None, None, make_serve_payload())
        current = extract_headlines(None, None,
                                    make_serve_payload(peak_qps=200.0))
        problems = check_contract(current, baseline)
        assert any("serve.scaling.peak_qps" in p for p in problems)

    def test_serve_tail_bound_is_exact(self):
        baseline = build_baseline(None, None, make_serve_payload())
        current = extract_headlines(
            None, None, make_serve_payload(tail_bounded=False))
        problems = check_contract(current, baseline)
        assert any("serve.overload.shed_tail_bounded" in p
                   for p in problems)


class TestBaselineIO:
    def test_round_trip(self, tmp_path):
        baseline = build_baseline(make_query_payload(),
                                  make_ingest_payload())
        path = tmp_path / "perf_contract.json"
        write_baseline(baseline, str(path))
        loaded = load_baseline(str(path))
        assert loaded == baseline
        assert loaded["schema_version"] == CONTRACT_SCHEMA_VERSION

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema_version": 999,
                                    "headlines": {}}))
        with pytest.raises(ValueError, match="schema_version"):
            load_baseline(str(path))


class TestRenderContract:
    def test_lists_headlines_with_deltas(self):
        baseline = build_baseline(make_query_payload(),
                                  make_ingest_payload())
        current = extract_headlines(make_query_payload(p95_ms=4.4),
                                    make_ingest_payload())
        text = render_contract(current, baseline)
        assert "query.fig8_single.block.latency_p95_ms" in text
        assert "+10.0%" in text
        assert "True" in text           # exact headlines print verbatim

    def test_renders_without_baseline(self):
        current = extract_headlines(make_query_payload(), None)
        text = render_contract(current)
        assert "baseline" not in text


class TestCommittedArtifacts:
    """The repo commits BENCH reports and a baseline; they must agree
    (this is exactly what the CI perf-contract job runs)."""

    def test_committed_reports_satisfy_committed_baseline(self):
        with open("BENCH_query.json", encoding="utf-8") as handle:
            query_payload = json.load(handle)
        with open("BENCH_ingest.json", encoding="utf-8") as handle:
            ingest_payload = json.load(handle)
        with open("BENCH_serve.json", encoding="utf-8") as handle:
            serve_payload = json.load(handle)
        baseline = load_baseline("benchmarks/baselines/perf_contract.json")
        current = extract_headlines(query_payload, ingest_payload,
                                    serve_payload)
        assert check_contract(current, baseline) == []
        assert current["query.telemetry.within_budget"]["value"] is True
        assert current["serve.cached_results_identical"]["value"] is True
        assert current["serve.overload.shed_tail_bounded"]["value"] is True
