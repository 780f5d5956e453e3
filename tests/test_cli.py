"""Tests for the command-line interface."""

import os
import re

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    exit_code = main(["generate", "-o", str(path),
                      "--users", "80", "--roots", "300", "--seed", "5"])
    assert exit_code == 0
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_query_requires_target(self):
        with pytest.raises(SystemExit):
            main(["query", "--lat", "0", "--lon", "0",
                  "--radius", "5", "--keywords", "x"])


class TestGenerate(object):
    def test_generates_jsonl(self, corpus_file):
        assert os.path.getsize(corpus_file) > 0
        with open(corpus_file) as handle:
            first = handle.readline()
        assert first.startswith("{")

    def test_deterministic(self, tmp_path, corpus_file):
        other = tmp_path / "again.jsonl"
        main(["generate", "-o", str(other),
              "--users", "80", "--roots", "300", "--seed", "5"])
        assert open(corpus_file).read() == open(str(other)).read()


class TestStats:
    def test_prints_summary(self, corpus_file, capsys):
        assert main(["stats", corpus_file, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "posts:" in out and "top keywords:" in out
        assert "restaur" in out  # rank-1 keyword


class TestBuildAndQuery:
    def test_build_then_query(self, corpus_file, tmp_path, capsys):
        deployment = str(tmp_path / "deployment")
        assert main(["build", corpus_file, "-o", deployment]) == 0
        capsys.readouterr()
        assert main(["query", deployment,
                     "--lat", "43.65", "--lon", "-79.38",
                     "--radius", "25", "--keywords", "restaurant",
                     "--k", "3", "--method", "sum"]) == 0
        out = capsys.readouterr().out
        assert "#1" in out and "user" in out

    def test_query_from_corpus_directly(self, corpus_file, capsys):
        assert main(["query", "--corpus", corpus_file,
                     "--lat", "40.71", "--lon", "-74.00",
                     "--radius", "25", "--keywords", "game",
                     "--semantics", "or"]) == 0
        out = capsys.readouterr().out
        assert "user" in out or "no local users" in out

    def test_and_semantics_flag(self, corpus_file, capsys):
        assert main(["query", "--corpus", corpus_file,
                     "--lat", "40.71", "--lon", "-74.00",
                     "--radius", "30", "--keywords", "game", "night",
                     "--semantics", "and"]) == 0

    def test_empty_corpus_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["stats", str(empty)])


class TestExplain:
    def test_all_paths_print_plans(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        # One plan block per execution path.
        assert out.count("plan[") >= 6  # incl. the nested server sub-plan
        for token in ("flavour=indexed", "flavour=scan",
                      "flavour=distributed", "federated",
                      "Cover(", "DatasetScan(", "ScatterGather(",
                      "PlatformSearch("):
            assert token in out

    def test_single_path_with_flags(self, capsys):
        assert main(["explain", "--method", "max", "--semantics", "and",
                     "--no-pruning", "--temporal"]) == 0
        out = capsys.readouterr().out
        assert "pruning=off" in out
        assert "BoundsPrune" not in out
        assert "TemporalClip" in out
        assert "semantics=and" in out

    def test_pruned_max_shows_bound_stage(self, capsys):
        assert main(["explain", "--method", "max"]) == 0
        out = capsys.readouterr().out
        assert "BoundsPrune" in out
        assert "Def 11" in out


class TestIngestCommands:
    def test_ingest_synthetic_then_status(self, tmp_path, capsys):
        directory = str(tmp_path / "stream")
        assert main(["ingest", directory, "--users", "40", "--roots", "200",
                     "--flush-posts", "80"]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out and "wal:" in out

        assert main(["ingest-status", directory]) == 0
        out = capsys.readouterr().out
        assert "generations:" in out
        assert "unflushed WAL records" in out

    def test_ingest_from_corpus_file_and_reopen(self, corpus_file,
                                                tmp_path, capsys):
        # Two disjoint halves of one corpus: the second run must recover
        # the first half's state before appending the rest.
        with open(corpus_file) as handle:
            lines = handle.readlines()
        first, second = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        with open(first, "w") as handle:
            handle.writelines(lines[:len(lines) // 2])
        with open(second, "w") as handle:
            handle.writelines(lines[len(lines) // 2:])

        directory = str(tmp_path / "fromfile")
        assert main(["ingest", directory, "--corpus", first,
                     "--flush-posts", "100", "--flush"]) == 0
        capsys.readouterr()
        assert main(["ingest", directory, "--corpus", second,
                     "--flush-posts", "100"]) == 0
        out = capsys.readouterr().out
        assert "recovered on open" in out

    def test_ingest_status_json_and_missing(self, tmp_path, capsys):
        import json as json_mod
        directory = str(tmp_path / "jsonly")
        assert main(["ingest", directory, "--users", "20", "--roots", "60",
                     "--json"]) == 0
        status = json_mod.loads(capsys.readouterr().out)
        assert status["wal"]["appends"] > 0

        assert main(["ingest-status", str(tmp_path / "missing")]) == 2


class TestTopCommand:
    def test_renders_requested_frames(self, capsys):
        assert main(["top", "--users", "40", "--roots", "160",
                     "--frames", "2", "--interval", "0.05",
                     "--flush-posts", "50", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 2
        assert "SLO" in out and "queries" in out and "health" in out
        # --no-clear means no ANSI clear-screen escapes in the stream.
        assert "\x1b[2J" not in out


class TestServeCommand:
    @pytest.mark.parametrize("traffic", [
        ["--clients", "2", "--ingest-rate", "20"],
        ["--rate", "20"],
    ], ids=["closed_loop", "open_loop"])
    def test_serves_and_reports(self, traffic, capsys):
        assert main(["serve", "--users", "40", "--roots", "160",
                     "--duration", "0.5"] + traffic) == 0
        out = capsys.readouterr().out
        served = re.search(r"served (\d+)/(\d+) queries", out)
        assert served is not None
        completed, issued = map(int, served.groups())
        assert 0 < completed <= issued
        assert re.search(r"^  shed \d+ ", out, re.MULTILINE)
