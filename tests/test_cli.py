import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohg import engine, gadgets, model, pairwise, states
from ohg.cli import _COMMANDS, _command, _read_args, main
from ohg.commands._dot import _DOT_PALETTE
from ohg.commands._parser import build_parser
from ohg.formats import parse_matrix, parse_ohg, write_ohg

from conftest import chain, chain_count, child_options, disjoint_union, ohg_argv, run_ohg

GIB = 1 << 30
# a DOT double-quoted string, in which a backslash escapes the next character
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


@pytest.fixture
def bug_file(tmp_path):
    path = tmp_path / "bug.ohg"
    path.write_text(write_ohg(gadgets.fixture("bug").hypergraph))
    return str(path)


@pytest.fixture
def g32_file(tmp_path):
    path = tmp_path / "g32.ohg"
    path.write_text(write_ohg(gadgets.fixture("g32").hypergraph))
    return str(path)


@pytest.fixture
def bind_g32_bug_file(tmp_path, bug_file):
    """bind(g32) beside bug, a disjoint union: 43,008 states, all contexts of
    3 vertices, no 3-colouring from states."""
    g32 = gadgets.fixture("g32").hypergraph
    bind_g32 = gadgets.bind(gadgets.BindSpec(g32, "v1", "v13"))
    path = tmp_path / "bind_g32+bug.ohg"
    path.write_text(disjoint_union(write_ohg(bind_g32),
                                   Path(bug_file).read_text()))
    return str(path)


@pytest.fixture
def bind_fig4_file(tmp_path, bind_fig4):
    path = tmp_path / "bind_fig4.ohg"
    path.write_text(write_ohg(bind_fig4))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStates:
    def test_count_only(self, capsys, bug_file):
        code, out, _ = run(capsys, "states", bug_file, "--count-only")
        assert code == 0
        assert out == "14\n"

    def test_matrix_output(self, capsys, bug_file):
        code, out, _ = run(capsys, "states", bug_file)
        assert code == 0
        parsed = parse_matrix(out)
        assert parsed.n_rows == 14
        assert parsed.vertices == gadgets.fixture("bug").hypergraph.vertices

    def test_out_file(self, capsys, bug_file, tmp_path):
        target = tmp_path / "bug.mat"
        code, out, _ = run(capsys, "states", bug_file, "--out", str(target))
        assert code == 0 and out == "14\n"
        parsed = parse_matrix(target.read_text())
        enumerated = states.enumerate_states(gadgets.fixture("bug").hypergraph)
        assert parsed.rows == enumerated.rows

    def test_json(self, capsys, bug_file):
        code, out, _ = run(capsys, "states", bug_file, "--format", "json")
        payload = json.loads(out)
        assert payload["nTS"] == 14
        assert len(payload["rows"]) == 14
        assert all(set(r) <= {"0", "1"} for r in payload["rows"])

    def test_out_unwritable(self, capsys, bug_file, tmp_path):
        target = tmp_path / "missing" / "bug.mat"
        code, out, err = run(capsys, "states", bug_file, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}")

    def test_refused_table_leaves_no_file(self, capsys, bug_file, tmp_path,
                                          monkeypatch):
        monkeypatch.setattr(states, "ROW_BUDGET", 5)
        target = tmp_path / "bug.mat"
        code, _, err = run(capsys, "states", bug_file, "--out", str(target))
        assert code == 2 and "row budget of 5" in err
        assert not target.exists()

    def test_closed_pipe_ends_quietly(self, tmp_path):
        # ``ohg states quads.ohg | head -c 10``: seven disjoint 4-contexts
        # give 4**7 rows (917 kB, four write blocks), far more than a pipe holds
        path = tmp_path / "quads.ohg"
        path.write_text("".join(f"q{c}a q{c}b q{c}c q{c}d\n" for c in range(7)))
        proc = subprocess.Popen(ohg_argv("states", str(path)),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                **child_options())
        try:
            assert proc.stdout.read(10) == b"vertices: "
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == ""
        assert code == 141

    def test_jobs_flag(self, capsys, bug_file):
        code, out, _ = run(capsys, "states", bug_file, "--count-only",
                           "--jobs", "2")
        assert code == 0 and out == "14\n"

    def test_limit(self, capsys, bug_file):
        code, _, err = run(capsys, "states", bug_file, "--limit", "5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("extra", [(), ("--count-only",)])
    def test_negative_limit_is_a_usage_error(self, capsys, bug_file, monkeypatch,
                                             extra):
        def refuse(*args, **kwargs):
            raise AssertionError("counted despite a negative limit")
        monkeypatch.setattr(engine, "count_states", refuse)
        monkeypatch.setattr(states, "enumerate_states", refuse)
        code, out, err = run(capsys, "states", bug_file, "--limit", "-1", *extra)
        assert code == 2 and out == ""
        assert err == "error: the row limit must not be negative, got --limit -1\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("extra", [(), ("--count-only",)])
    def test_jobs_below_one_is_a_usage_error(self, capsys, bug_file, monkeypatch,
                                             jobs, extra):
        # refused before the file is read, as a negative --limit is
        def refuse(*args, **kwargs):
            raise AssertionError("read the file despite a usage error")
        monkeypatch.setattr(model, "parse_ohg", refuse)
        code, out, err = run(capsys, "states", bug_file, "--jobs", jobs, *extra)
        assert code == 2 and out == ""
        assert err == f"error: the number of jobs must be positive, got --jobs {jobs}\n"

    @pytest.mark.parametrize("extra, flags", [
        (("--count-only",), "--count-only and --out"),
        (("--format", "json"), "--out and --format json"),
    ], ids=["count-only", "json"])
    def test_out_refuses_what_it_would_ignore(self, capsys, bug_file, tmp_path,
                                              extra, flags):
        # --out writes the text matrix; neither a count nor JSON reaches it
        target = tmp_path / "bug.mat"
        code, out, err = run(capsys, "states", bug_file, "--out", str(target), *extra)
        assert code == 2 and out == ""
        assert err == f"error: {flags} cannot be combined\n"
        assert not target.exists()

    def test_zero_limit_admits_no_states(self, capsys, tmp_path):
        # a Kochen-Specker set has an empty table, which a limit of 0 admits
        path = tmp_path / "contradictory.ohg"
        path.write_text("a b\nb c\na c\n")
        code, out, _ = run(capsys, "states", str(path), "--limit", "0")
        assert code == 0 and out == "vertices: a b c\n"

    def test_count_looks_up_the_engine_when_it_runs(self, capsys, bug_file,
                                                    monkeypatch):
        # the benchmark's tracer swaps engine.count_states after the import
        count_states = engine.count_states
        seen = []

        def traced(h, **kwargs):
            seen.append(len(h.vertices))
            return count_states(h, **kwargs)
        monkeypatch.setattr(engine, "count_states", traced)
        code, out, _ = run(capsys, "states", bug_file, "--count-only")
        assert code == 0 and out == "14\n"
        assert seen == [13]

    def test_progress_stream(self, capsys, bug_file):
        code, out, err = run(capsys, "states", bug_file, "--count-only",
                             "--progress")
        assert code == 0 and out == "14\n"
        assert "states so far:" in err

    @pytest.mark.parametrize("argv, message", [
        (("--progress",), "--progress needs --count-only"),
        (("--count-only", "--limit", "3"), "--count-only and --limit cannot be combined"),
    ], ids=["progress", "count-only-limit"])
    def test_refuses_flags_it_would_ignore(self, capsys, bug_file, monkeypatch,
                                           argv, message):
        # refused before the file is read: a progress report is made only
        # by a count, and a count builds no table for --limit to bound
        def refuse(*args, **kwargs):
            raise AssertionError("read the file despite a usage error")
        monkeypatch.setattr(model, "parse_ohg", refuse)
        code, out, err = run(capsys, "states", bug_file, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestClassify:
    def test_text(self, capsys, bug_file):
        code, out, _ = run(capsys, "classify", bug_file)
        assert code == 0
        assert "separable: yes" in out
        assert "perfectly-separable: no" in out
        assert "semi-perfect: yes" in out

    def test_json_keys(self, capsys, bug_file):
        _, out, _ = run(capsys, "classify", bug_file, "--format", "json")
        payload = json.loads(out)
        assert payload["nTS"] == 14
        verdicts = payload["verdicts"]
        assert verdicts["unital"] and verdicts["separable"]
        assert not verdicts["perfectlySeparable"]
        assert payload["witness"] == ["v1", "v7", 3]


class TestReconstruct:
    def test_bug_ok(self, capsys, bug_file):
        code, out, _ = run(capsys, "reconstruct", bug_file)
        assert code == 0
        assert "verdict: reconstructable" in out

    def test_non_separable(self, capsys, tmp_path):
        path = tmp_path / "ns.ohg"
        path.write_text("a b c\na b d\n")
        code, out, _ = run(capsys, "reconstruct", str(path))
        assert code == 1
        assert "non-separable" in out

    def test_json(self, capsys, bug_file):
        _, out, _ = run(capsys, "reconstruct", bug_file, "--format", "json")
        payload = json.loads(out)
        assert payload["verdicts"]["reconstruction"] == "reconstructable"
        assert payload["extraContexts"] == []
        assert payload["missingContexts"] == []

    def test_n_override(self, capsys, bug_file):
        code, out, _ = run(capsys, "reconstruct", bug_file, "--n", "3")
        assert code == 0 and "reconstructable" in out

    def test_missing_contexts(self, capsys, bug_file, bug):
        # at --n 4 the completion filter drops every context of the source
        missing = sorted(sorted(c) for c in bug.contexts)
        assert len(missing) == 7
        code, out, _ = run(capsys, "reconstruct", bug_file, "--n", "4")
        assert code == 1
        assert out.splitlines() == ["verdict: extra-structure"] + [
            "missing context: " + " ".join(c) for c in missing]
        code, out, _ = run(capsys, "reconstruct", bug_file, "--n", "4",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 1
        assert payload["verdicts"]["reconstruction"] == "extra-structure"
        assert (payload["extraContexts"], payload["missingContexts"]) == ([], missing)


@pytest.mark.parametrize("command", ["classify", "reconstruct"])
def test_verdicts_make_no_cotruth_count(capsys, bug_file, monkeypatch, command):
    # the verdicts read two masks per vertex off the trace, not the counts
    def refuse(*args):
        raise AssertionError("a co-truth count was made")
    monkeypatch.setattr(pairwise, "_true_counts", refuse)
    code, out, _ = run(capsys, command, bug_file)
    assert code == 0 and out


class TestRowBudget:
    """Commands that need the state table refuse an oversized one early."""

    @pytest.mark.parametrize("argv", [
        ["color", "{}", "--n", "3"],
        # more colours than a context has vertices: refused as a table first
        ["color", "{}", "--n", "4"],
        ["color", "{}", "--n", "3", "--algorithm", "relaxed"],
        ["states", "{}"],
    ])
    def test_refused_in_seconds(self, bind_fig4_file, argv):
        # under a 1 GiB address-space cap, so that a missing budget check
        # fails the test instead of exhausting memory
        start = time.perf_counter()
        result = run_ohg(*(a.format(bind_fig4_file) for a in argv),
                         address_space=GIB)
        elapsed = time.perf_counter() - start
        assert result.returncode == 2, result.stderr
        assert "row budget" in result.stderr
        assert elapsed <= 10.0, f"refusal took {elapsed:.2f}s"

    def test_limit_overrides_budget(self, capsys, bug_file, monkeypatch):
        monkeypatch.setattr(states, "ROW_BUDGET", 5)
        code, _, err = run(capsys, "states", bug_file)
        assert code == 2 and "row budget of 5" in err
        code, out, _ = run(capsys, "states", bug_file, "--limit", "14")
        assert code == 0 and parse_matrix(out).n_rows == 14


@pytest.mark.parametrize("command, code, lines", [
    ("classify", 0, ["nTS: 594252343817330688000000"]),
    ("reconstruct", 1, ["verdict: extra-structure", "extra context: a b c",
                        "extra context: a' b' c'",
                        "extra context: a'' b'' c''"]),
])
def test_pairwise_counts_in_small_memory(bind_fig4_file, command,
                                         code, lines):
    # the co-truth counts of bind(fig4) come from passes over one trace
    # of the search; holding a co-truth matrix per component needed
    # ~330 MB and failed with MemoryError under this 256 MiB cap
    result = run_ohg(command, bind_fig4_file, address_space=256 << 20)
    assert result.returncode == code, result.stderr
    assert set(lines) <= set(result.stdout.splitlines())


class TestColor:
    def test_g32_paper_absent(self, capsys, g32_file):
        code, out, _ = run(capsys, "color", g32_file, "--n", "3",
                           "--algorithm", "paper")
        assert code == 1
        assert out == "no 3-coloring from two-valued states\n"

    def test_g32_paper_absent_json(self, capsys, g32_file):
        code, out, err = run(capsys, "color", g32_file, "--n", "3",
                             "--format", "json")
        assert code == 1 and err == ""
        g32 = gadgets.fixture("g32").hypergraph
        assert json.loads(out) == {"vertices": list(g32.vertices), "coloring": None}

    def test_g32_paper_absent_dot(self, capsys, g32_file):
        code, out, err = run(capsys, "color", g32_file, "--n", "3",
                             "--format", "dot")
        assert code == 1 and out == ""
        assert err == "no 3-coloring from two-valued states\n"

    def test_g32_relaxed_four(self, capsys, g32_file):
        code, out, _ = run(capsys, "color", g32_file, "--n", "4",
                           "--algorithm", "relaxed")
        assert code == 0
        assert out.count("color ") == 4

    def test_bug_paper(self, capsys, bug_file):
        code, out, _ = run(capsys, "color", bug_file, "--n", "3")
        assert code == 0
        assert out.startswith("rows: ")

    def test_exact(self, capsys, g32_file):
        code, out, _ = run(capsys, "color", g32_file, "--n", "4",
                           "--algorithm", "exact")
        assert code == 0

    @pytest.mark.parametrize("name, rows", [
        ("bug", [1, 7, 14]),
        ("pentagon", [1, 8, 11]),
        ("fig4", [1, 774, 2553]),
        ("bind_bug", [1, 1231088, 2234304]),
    ])
    def test_canonical_order_selection(self, capsys, tmp_path, bind_bug,
                                       name, rows):
        # the rows algorithm1 finds in the canonically ordered table
        h = bind_bug if name == "bind_bug" else gadgets.fixture(name).hypergraph
        path = tmp_path / f"{name}.ohg"
        path.write_text(write_ohg(h))
        code, out, _ = run(capsys, "color", str(path), "--n", "3")
        assert code == 0
        assert out.splitlines()[0] == "rows: " + " ".join(map(str, rows))
        code, out, _ = run(capsys, "color", str(path), "--n", "3",
                           "--format", "json")
        assert code == 0 and json.loads(out)["rows"] == rows

    def test_json(self, capsys, bug_file):
        code, out, _ = run(capsys, "color", bug_file, "--n", "3",
                           "--format", "json")
        payload = json.loads(out)
        assert len(payload["rows"]) == 3
        coloring = payload["coloring"]
        assert sorted(set(coloring.values())) == [1, 2, 3]

    def test_dot(self, capsys, bug_file):
        code, out, _ = run(capsys, "color", bug_file, "--n", "3",
                           "--format", "dot")
        assert code == 0
        assert out.startswith("graph ") and "fillcolor" in out

    def test_dot_fills_every_colour_apart(self, capsys, tmp_path):
        # one context of 17 vertices takes 17 colours, one per vertex; past
        # the 16 named fills, each colour gets its own
        path = tmp_path / "k17.ohg"
        path.write_text(" ".join(f"x{i}" for i in range(17)) + "\n")
        code, out, _ = run(capsys, "color", str(path), "--n", "17", "--format", "dot")
        fills = re.findall(r'fillcolor="([^"]*)"', out)
        assert code == 0 and len(set(fills)) == len(fills) == 17
        assert fills[:16] == list(_DOT_PALETTE)

    @pytest.mark.parametrize("algorithm", ["paper", "relaxed", "exact"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_non_positive_n_rejected(self, capsys, bug_file, algorithm, n):
        code, out, err = run(capsys, "color", bug_file, "--n", n,
                             "--algorithm", algorithm)
        assert code == 2 and out == ""
        assert err == "error: the number of colors must be positive\n"

    def test_huge_n_refused_quickly(self, bug_file):
        # the 14-row table cannot hold 10**9 distinct rows; under a 1 GiB
        # address-space cap, so that bookkeeping sized by n fails the test
        start = time.perf_counter()
        result = run_ohg("color", bug_file, "--n", "1000000000",
                         address_space=GIB)
        elapsed = time.perf_counter() - start
        assert result.returncode == 1, result.stderr
        assert result.stdout == "no 1000000000-coloring from two-valued states\n"
        assert elapsed <= 10.0, f"refusal took {elapsed:.2f}s"

    def test_more_colors_than_context_vertices(self, tmp_path, bind_bug):
        # each of the 2,239,488 states is true on one of the 3 vertices of
        # every context, so no 4 of them are pairwise disjoint; the answer
        # must come without searching the table
        path = tmp_path / "bind_bug.ohg"
        path.write_text(write_ohg(bind_bug))
        start = time.perf_counter()
        result = run_ohg("color", str(path), "--n", "4", address_space=GIB,
                         timeout=30)
        elapsed = time.perf_counter() - start
        assert result.returncode == 1, result.stderr
        assert result.stdout == "no 4-coloring from two-valued states\n"
        assert elapsed <= 10.0, f"refusal took {elapsed:.2f}s"

    @pytest.mark.parametrize("name", ["bug", "bind_g32+bug"])
    @pytest.mark.parametrize("n", ["1", "2"])
    def test_fewer_colors_than_context_vertices(self, request, bug_file,
                                                name, n):
        # n pairwise disjoint states cover exactly n vertices of every
        # context, so with 3-element contexts their classes leave vertices
        # uncoloured; the answer must come without searching the table, also
        # on bind(g32) beside bug (43,008 rows)
        path = (bug_file if name == "bug"
                else request.getfixturevalue("bind_g32_bug_file"))
        start = time.perf_counter()
        result = run_ohg("color", path, "--n", n, address_space=GIB, timeout=10)
        elapsed = time.perf_counter() - start
        assert result.returncode == 1, result.stderr
        assert result.stdout == f"no {n}-coloring from two-valued states\n"
        assert elapsed <= 10.0, f"refusal took {elapsed:.2f}s"

    def test_selection_search_budget(self, bind_g32_bug_file):
        # row 1 has no disjoint state, and g32 needs four colours, so there
        # is no partition into three states: the answer comes from the
        # chromatic number, without searching the table of 43,008 rows
        start = time.perf_counter()
        result = run_ohg("color", bind_g32_bug_file, "--n", "3",
                         address_space=GIB, timeout=60)
        elapsed = time.perf_counter() - start
        assert result.returncode == 1, result.stderr
        assert result.stdout == "no 3-coloring from two-valued states\n"
        assert elapsed <= 1.0, f"answer took {elapsed:.2f}s"

    def test_table_not_built(self, capsys, tmp_path, bind_bug, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the state table was built")

        monkeypatch.setattr(states, "enumerate_states", refuse)
        path = tmp_path / "bind_bug.ohg"
        path.write_text(write_ohg(bind_bug))
        code, out, _ = run(capsys, "color", str(path), "--n", "3")
        assert code == 0
        assert out.startswith("rows: 1 1231088 2234304\n")

    def test_relaxed_json_has_no_rows(self, capsys, g32_file):
        _, out, _ = run(capsys, "color", g32_file, "--n", "4",
                        "--algorithm", "relaxed", "--format", "json")
        payload = json.loads(out)
        assert "rows" not in payload
        assert sorted(set(payload["coloring"].values())) == [1, 2, 3, 4]


class TestChroma:
    def test_exact(self, capsys, g32_file):
        code, out, _ = run(capsys, "chroma", g32_file)
        assert code == 0 and out == "4\n"

    def test_brooks(self, capsys, g32_file):
        code, out, _ = run(capsys, "chroma", g32_file, "--brooks")
        assert code == 0 and out == "4\n"

    def test_json(self, capsys, g32_file):
        _, out, _ = run(capsys, "chroma", g32_file, "--format", "json")
        assert json.loads(out)["chromatic"] == 4
        _, out, _ = run(capsys, "chroma", g32_file, "--brooks",
                        "--format", "json")
        assert json.loads(out)["brooksBound"] == 4


    def test_components(self, capsys, bind_g32_bug_file):
        # bind(g32) needs 4 colours and the bug beside it 3
        code, out, _ = run(capsys, "chroma", bind_g32_bug_file)
        assert code == 0 and out == "4\n"
        code, out, _ = run(capsys, "classify", bind_g32_bug_file)
        assert code == 0 and out.splitlines()[-1] == "semi-perfect: no"

    def test_bind_bug(self, capsys, tmp_path, bind_bug):
        path = tmp_path / "bind_bug.ohg"
        path.write_text(write_ohg(bind_bug))
        code, out, _ = run(capsys, "chroma", str(path))
        assert code == 0 and out == "3\n"
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and out.splitlines()[-1] == "semi-perfect: yes"


class TestGadget:
    def test_unknown_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["gadget", "nonesuch"])

    @pytest.mark.parametrize("travis", [False, True], ids=["ohg", "travis"])
    @pytest.mark.parametrize("name", gadgets.FIXTURE_NAMES)
    def test_copies_the_shipped_file(self, name, travis):
        # the shipped files are the catalogue: the command copies one
        # unparsed, and a fixture without it is refused with one line
        from importlib import resources

        suffix = ".mat" if travis else ".ohg"
        ships = (name in {"triangle", "pentagon", "bug", "g32", "underlying", "ghz"}
                 if travis else name != "ghz")
        result = subprocess.run(ohg_argv("gadget", name, *["--travis"] * travis),
                                capture_output=True, timeout=60, **child_options())
        if ships:
            text = (resources.files("ohg") / "fixtures" / f"{name}{suffix}").read_bytes()
            assert (result.returncode, result.stdout, result.stderr) == (0, text, b"")
            fixture = gadgets.fixture(name)
            assert ((parse_matrix if travis else parse_ohg)(text.decode())
                    == (fixture.travis if travis else fixture.hypergraph))
        else:
            error = ("has no reference state table" if travis
                     else "ships as a state table only; use --travis")
            assert (result.returncode, result.stdout, result.stderr.decode()) == \
                (2, b"", f"error: fixture {name!r} {error}\n")


class TestCompose:
    def test_layer(self, capsys, bug_file):
        code, out, err = run(capsys, "compose", "layer", bug_file,
                             "--head", "v1", "--tail", "v7")
        assert code == 0
        h = parse_ohg(out)
        assert (len(h.vertices), len(h.contexts)) == (36, 21)
        assert "36 vertices" in err

    def test_bind(self, capsys, bug_file):
        code, out, _ = run(capsys, "compose", "bind", bug_file,
                           "--head", "v1", "--tail", "v7")
        h = parse_ohg(out)
        assert (len(h.vertices), len(h.contexts)) == (108, 66)

    def test_bad_pair(self, capsys, bug_file):
        code, _, err = run(capsys, "compose", "bind", bug_file,
                           "--head", "v1", "--tail", "v4")
        assert code == 2 and "error" in err

    def test_gadget_without_states(self, capsys, tmp_path):
        # a 3-cycle of 2-element contexts admits no state
        path = tmp_path / "nostate.ohg"
        path.write_text("a b\nb c\nc a\na d\nb e\n")
        code, out, err = run(capsys, "compose", "layer", str(path),
                             "--head", "d", "--tail", "e")
        assert (code, out) == (2, "")
        assert err == "error: the gadget has no two-valued state\n"

    def test_json(self, capsys, bug_file):
        code, out, _ = run(capsys, "compose", "layer", bug_file,
                           "--head", "v1", "--tail", "v7", "--format", "json")
        payload = json.loads(out)
        assert len(payload["vertices"]) == 36
        assert len(payload["contexts"]) == 21


class TestCount:
    def test_bug_numbers(self, capsys):
        code, out, _ = run(capsys, "count", "--na", "3", "--nb", "3", "--nn", "8")
        assert code == 0 and out == "2239488\n"

    def test_big_numbers(self, capsys):
        code, out, _ = run(capsys, "count", "--na", "45", "--nb", "504",
                           "--nn", "2040")
        assert out == "594252343817330688000000\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "count", "--na", "1", "--nb", "1", "--nn", "1",
                        "--format", "json")
        assert json.loads(out) == {"count": 6}

    @pytest.mark.parametrize("flag", ["--na", "--nb", "--nn"])
    def test_negative_count_is_a_usage_error(self, capsys, flag):
        argv = {"--na": "3", "--nb": "3", "--nn": "8", flag: "-1"}
        code, out, err = run(capsys, "count", *(x for kv in argv.items() for x in kv))
        assert (code, out) == (2, "")
        assert err == "error: state counts must be nonnegative\n"


class TestVerifyFor:
    def test_valid(self, capsys, tmp_path):
        ohg_path = tmp_path / "k3.ohg"
        ohg_path.write_text("a b c\n")
        vec_path = tmp_path / "k3.vec"
        vec_path.write_text("a: 1 0 0\nb: 0 1 0\nc: 0 0 1\n")
        code, out, _ = run(capsys, "verify-for", str(ohg_path), str(vec_path))
        assert code == 0
        assert "valid" in out

    def test_invalid(self, capsys, tmp_path):
        ohg_path = tmp_path / "k3.ohg"
        ohg_path.write_text("a b c\n")
        vec_path = tmp_path / "k3.vec"
        vec_path.write_text("a: 1 0 0\nb: 1 0 0\nc: 0 0 1\n")
        code, out, _ = run(capsys, "verify-for", str(ohg_path), str(vec_path))
        assert code == 1
        assert "colinear" in out

    def test_json(self, capsys, tmp_path):
        ohg_path = tmp_path / "k3.ohg"
        ohg_path.write_text("a b c\n")
        vec_path = tmp_path / "k3.vec"
        vec_path.write_text("a: 1 0 0\nb: 1 0 0\nc: 0 0 1\n")
        code, out, _ = run(capsys, "verify-for", str(ohg_path), str(vec_path),
                           "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdicts"]["faithfulRepresentation"] is False
        assert payload["violations"]["colinear"]

    def test_shipped_pentagon_labeling(self, capsys, tmp_path):
        from importlib import resources

        ohg_path = tmp_path / "pentagon.ohg"
        ohg_path.write_text(write_ohg(gadgets.fixture("pentagon").hypergraph))
        vec_path = tmp_path / "pentagon.vec"
        vec_path.write_text(
            (resources.files("ohg") / "fixtures" / "pentagon.vec").read_text()
        )
        code, out, _ = run(capsys, "verify-for", str(ohg_path), str(vec_path))
        assert code == 0 and "valid" in out

    def test_orthogonal_but_not_adjacent(self, capsys, tmp_path):
        ohg_path = tmp_path / "two.ohg"
        ohg_path.write_text("a b c\nd e f\n")
        vec_path = tmp_path / "two.vec"
        vec_path.write_text("a: 1 0 0\nb: 0 1 0\nc: 0 0 1\n"
                            "d: 1 0 0\ne: 0 1 0\nf: 0 0 1\n")
        code, out, _ = run(capsys, "verify-for", str(ohg_path), str(vec_path))
        assert code == 1
        assert "orthogonal but not adjacent: a e |cos|=0.000e+00" in out.splitlines()

    def test_composed_hypergraph(self, capsys, tmp_path, bug_file):
        # its vertices are named ``g1:v2``, which the vector file must read back
        _, out, _ = run(capsys, "compose", "layer", bug_file, "--head", "v1", "--tail", "v7")
        ohg_path = tmp_path / "layer.ohg"
        ohg_path.write_text(out)
        vec_path = tmp_path / "layer.vec"
        vec_path.write_text("".join(f"{v}: 1 0 0\n" for v in parse_ohg(out).vertices))
        code, out, _ = run(capsys, "verify-for", str(ohg_path), str(vec_path))
        assert code == 1
        assert "adjacent but not orthogonal: g1:" in out

    @pytest.mark.parametrize("vector", ["nan nan nan", "inf 0 0"])
    def test_non_finite_vector_is_refused(self, capsys, tmp_path, vector):
        ohg_path = tmp_path / "k3.ohg"
        ohg_path.write_text("a b c\n")
        vec_path = tmp_path / "k3.vec"
        vec_path.write_text(f"a: 1 0 0\nb: {vector}\nc: 0 0 1\n")
        code, out, err = run(capsys, "verify-for", str(ohg_path), str(vec_path))
        assert (code, out) == (2, "")
        assert err == "error: vertex 'b' carries a non-finite component\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0.5", "0"])
    def test_tolerance_outside_the_open_half_interval(self, capsys, tmp_path, tol):
        # with --tol nan, five equal vectors on the pentagon passed as valid
        pentagon = gadgets.fixture("pentagon").hypergraph
        ohg_path = tmp_path / "pentagon.ohg"
        ohg_path.write_text(write_ohg(pentagon))
        vec_path = tmp_path / "same.vec"
        vec_path.write_text("".join(f"{v}: 1 0 0\n" for v in pentagon.vertices))
        code, out, err = run(capsys, "verify-for", str(ohg_path), str(vec_path), "--tol", tol)
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerance must lie strictly between 0 and 0.5")


class TestExport:
    def test_json(self, capsys, bug_file):
        code, out, _ = run(capsys, "export", bug_file, "--format", "json")
        payload = json.loads(out)
        assert payload["vertices"][0] == "v1"
        assert ["v1", "v2", "v3"] in payload["contexts"]

    def test_dot(self, capsys, bug_file):
        code, out, _ = run(capsys, "export", bug_file, "--format", "dot")
        assert out.startswith("graph ")
        assert '"v1" -- "v2"' in out

    def test_round_trip_identity(self, capsys, tmp_path):
        for name in gadgets.FIXTURE_NAMES:
            fx = gadgets.fixture(name)
            if fx.hypergraph is None:
                continue
            text = write_ohg(fx.hypergraph)
            assert parse_ohg(text) == fx.hypergraph


@pytest.mark.parametrize("command", [
    ("export", "--format", "dot"),
    ("color", "--n", "3", "--algorithm", "exact", "--format", "dot"),
], ids=lambda c: c[0])
def test_dot_escapes_names(capsys, tmp_path, command):
    # names refuse only whitespace, so they may hold the quote and backslash
    path = tmp_path / "quoted.ohg"
    path.write_text('a"x b\\ c\\"\n')
    code, out, _ = run(capsys, command[0], str(path), *command[1:])
    assert code == 0
    assert '  "a\\"x" -- "b\\\\"' in out
    names = set()
    for line in out.splitlines()[2:-1]:
        assert '"' not in DOT_STRING.sub("", line), line
        names.update(re.sub(r"\\(.)", r"\1", m) for m in DOT_STRING.findall(line))
    assert {'a"x', "b\\", 'c\\"'} <= names


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "states", "/nonexistent/x.ohg")
        assert code == 2 and err.startswith("error:")

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.ohg"
        path.write_text("# only comments\n")
        code, _, err = run(capsys, "states", str(path))
        assert code == 2 and "error" in err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


@pytest.mark.parametrize("n, argv, line, address_space", [
    (1000, ("states", "--count-only"), str(chain_count(1000)), None),
    (600, ("classify",), f"nTS: {chain_count(600)}", 100 * 2**20),
    (600, ("reconstruct",), "verdict: reconstructable", 100 * 2**20),
    (2000, ("chroma",), "3", 100 * 2**20),
], ids=["states", "classify", "reconstruct", "chroma"])
def test_long_chain(tmp_path, n, argv, line, address_space):
    # a chain nests the search once per context, 1,000 contexts far past
    # Python's recursion limit; the verdicts read two masks per vertex off the
    # trace, where all 1,201 x 1,201 co-truth counts of 600 contexts, ints of
    # up to 418 bits, would not fit under the cap; the exact colouring keeps one
    # colouring and an undo trail, where a copy of both per level of 4,001
    # would not
    path = tmp_path / "chain.ohg"
    path.write_text(chain(n))
    result = run_ohg(argv[0], str(path), *argv[1:], address_space=address_space)
    assert result.returncode == 0
    assert result.stderr == ""
    assert line in result.stdout.splitlines()


@pytest.mark.parametrize("argv, lines, address_space", [
    (("chroma",), ["1000"], 100 * 2**20),
    (("classify",), ["nTS: 1000", "unital: yes", "separable: yes",
                     "perfectly-separable: yes", "semi-perfect: yes"], 100 * 2**20),
    (("reconstruct",), ["verdict: reconstructable"], None),
], ids=["chroma", "classify", "reconstruct"])
def test_wide_context(tmp_path, argv, lines, address_space):
    # the clique search nests once per member, 1,000 members far past
    # Python's recursion limit; the exact colouring keeps no undo entry for
    # its seeds, where the 499,500 entries of 1,000 seeds would not fit under
    # the cap; reconstruct still spells out the 499,500 named edges of its
    # adjacency graph, which would not either
    path = tmp_path / "wide.ohg"
    path.write_text(" ".join(f"v{i}" for i in range(1000)) + "\n")
    result = run_ohg(argv[0], str(path), *argv[1:], address_space=address_space)
    assert result.returncode == 0
    assert result.stderr == ""
    assert set(lines) <= set(result.stdout.splitlines())


def test_console_script_installed():
    result = run_ohg("count", "--na", "1", "--nb", "1", "--nn", "1")
    assert result.returncode == 0
    assert result.stdout == "6\n"


class TestProcessEntry:
    """``python -m ohg`` ends through ``ohg.__main__.run``, which skips the
    interpreter's teardown; what it prints and its exit code must be those
    of ``ohg.cli.main`` run in-process."""

    @pytest.fixture
    def files(self, tmp_path, bug_file, g32_file, bind_bug):
        from importlib import resources

        paths = {"bug": bug_file, "g32": g32_file,
                 "missing": str(tmp_path / "missing.ohg")}
        for name, text in [
            ("bind_bug", write_ohg(bind_bug)),
            ("pentagon", write_ohg(gadgets.fixture("pentagon").hypergraph)),
            ("pentagon_vec",
             (resources.files("ohg") / "fixtures" / "pentagon.vec").read_text()),
        ]:
            paths[name] = str(tmp_path / name)
            Path(paths[name]).write_text(text)
        return paths

    @staticmethod
    def in_process(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        ("states", "{bug}", "--count-only"),
        ("classify", "{bug}"),
        ("reconstruct", "{bug}"),
        ("color", "{bug}", "--n", "3"),
        ("chroma", "{bug}"),
        ("gadget", "bug"),
        ("compose", "bind", "{bug}", "--head", "v1", "--tail", "v7"),
        ("count", "--na", "2", "--nb", "3", "--nn", "8"),
        ("verify-for", "{pentagon}", "{pentagon_vec}"),
        ("export", "{bug}", "--format", "dot"),
        # negative verdicts
        ("reconstruct", "{bind_bug}"),
        ("color", "{g32}", "--n", "3"),
        # errors: a refused flag pair, a missing file, a usage error
        ("states", "{bug}", "--count-only", "--limit", "3"),
        ("classify", "{missing}"),
        ("color", "{bug}"),
        ("--help",),
    ], ids=" ".join)
    def test_same_as_main(self, capsys, files, argv):
        argv = [a.format(**files) for a in argv]
        result = run_ohg(*argv)
        assert (result.returncode, result.stdout, result.stderr) == \
            self.in_process(capsys, argv)

    def test_out_file_same_as_main(self, capsys, files, tmp_path):
        child, inside = tmp_path / "child.mat", tmp_path / "main.mat"
        result = run_ohg("states", files["bug"], "--out", str(child))
        assert (result.returncode, result.stdout, result.stderr) == \
            self.in_process(capsys, ["states", files["bug"], "--out", str(inside)])
        assert child.read_bytes() == inside.read_bytes()

    def test_exits_fast_only_after_main_returns(self, capsys, monkeypatch,
                                                files):
        from ohg import __main__ as entry

        exits = []
        monkeypatch.setattr(entry.os, "_exit", exits.append)
        # a usage error leaves through the parser's SystemExit, as before
        monkeypatch.setattr(sys, "argv", ["ohg", "color", files["bug"]])
        with pytest.raises(SystemExit) as exc:
            entry.run()
        assert exc.value.code == 2 and exits == []
        assert "error: the following arguments are required: --n" in capsys.readouterr().err
        # an OhgError is reported by main, which returns its code
        monkeypatch.setattr(sys, "argv", ["ohg", "classify", files["missing"]])
        entry.run()
        assert exits == [2]
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("states", "{bug}"), ("states", "{bug}", "--count-only"), ("classify", "{bug}"),
        ("-m", "ohg.cli", "states", "{bug}"), ("--help",), ("states", "--help"),
    ], ids=lambda argv: " ".join(a for a in argv if a != "{bug}"))
    def test_full_disk_is_an_output_error(self, bug_file, argv):
        # every write to /dev/full fails with ENOSPC, help text's too; the
        # same under ``python -m ohg.cli`` as under ``python -m ohg``
        argv = [a.format(bug=bug_file) for a in argv]
        if argv[0] != "-m":
            argv = ["-m", "ohg", *argv]
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, *argv],
                                    stdout=full, stderr=subprocess.PIPE,
                                    text=True, timeout=60, **child_options())
        assert result.returncode == 2
        assert result.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("classify", "{missing}"), ("states", "{bug}")],
                             ids=["input error", "output error"])
    def test_error_line_that_cannot_be_written(self, files, argv, unbuffered):
        # the error line is lost with standard error, but not the exit code
        options = child_options()
        options["env"]["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            result = subprocess.run(ohg_argv(*(a.format(**files) for a in argv)),
                                    stdout=full, stderr=full, timeout=60, **options)
        assert result.returncode == 2


def parse(parser, argv, capsys):
    """Exit code, stdout and stderr of ``parser.parse_args(argv)``, for an
    ``argv`` on which it exits: a ``--help`` or a usage error."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def built(parser):
    """The subcommand parsers of ``parser``, by name."""
    return parser._subparsers._group_actions[0].choices


# One usage error per subcommand, each found while parsing; the last one is
# reported by the top-level parser, with its usage line.
USAGE_ERRORS = [
    ("states",),
    ("classify",),
    ("reconstruct", "f.ohg", "--n", "x"),
    ("color", "f.ohg"),
    ("chroma", "f.ohg", "--exact", "--brooks"),
    ("chroma", "f.ohg", "--exact"),
    ("gadget", "nonesuch"),
    ("compose", "layer", "f.ohg", "--head", "a"),
    ("count", "--na", "1", "--nb", "1"),
    ("verify-for", "f.ohg"),
    ("export", "f.ohg", "--format", "xml"),
    ("states", "f.ohg", "extra"),
]


class TestParser:
    """The parser of every subcommand answers help and usage errors."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        # argparse wraps its text at COLUMNS; child processes inherit it
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_help(self, capsys, name):
        code, out, _ = parse(build_parser(), [name, "--help"], capsys)
        assert code == 0 and out.startswith(f"usage: ohg {name} ")

    def test_usage_errors_cover_every_subcommand(self):
        assert {argv[0] for argv in USAGE_ERRORS} == set(_COMMANDS)

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_error(self, capsys, argv):
        code, out, err = parse(build_parser(), list(argv), capsys)
        assert code == 2 and out == "" and "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], [], ["frobnicate"]],
                             ids=lambda a: " ".join(a) or "bare")
    def test_top_level_lists_every_subcommand(self, capsys, argv):
        parser = build_parser()
        assert list(built(parser)) == list(_COMMANDS)
        code, out, err = parse(parser, argv, capsys)
        assert code == (0 if argv == ["--help"] else 2)
        assert "{" + ",".join(_COMMANDS) + "}" in out + err

    def test_console_script(self, capsys):
        # run as a program, main() reads its arguments from sys.argv
        result = run_ohg("color", "f.ohg")
        full = parse(build_parser(), ["color", "f.ohg"], capsys)
        assert (result.returncode, result.stdout, result.stderr) == full


def namespaces_equal(read, parsed) -> bool:
    """Equal ``vars()``, NaN included."""
    def key(ns):
        return {k: repr(v) if isinstance(v, float) and math.isnan(v) else v
                for k, v in vars(ns).items()}
    return key(read) == key(parsed)


def parsed_quietly(argv):
    """``vars()`` of the parser's namespace, or ``None`` where it exits."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def tour_lines():
    """The ``ohg`` lines of the README's command-line tour, as argument lists,
    without comments and ``> file`` redirections."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Command-line tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in tour.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["ohg"]:
            if ">" in words:
                del words[words.index(">"):words.index(">") + 2]
            lines.append(words[1:])
    return lines


def workload_lines(tmp_path, monkeypatch):
    """Every command line the benchmark's workloads run: set-ups, timed
    commands and probes, with inputs made by ``main`` in-process."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.chdir(tmp_path)
    import workloads

    def ohg(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(list(args)) == 0
        return out.getvalue()

    lines = []
    for name in ("count", "table", "export"):
        inputs = workloads.Inputs(work=tmp_path, seed=7, ohg=ohg, checkout=root)
        workloads.setup(name, inputs)
        lines += [args for args, _ in inputs.setup_log]
        lines += [c.args for c in workloads.commands(name, inputs)]
        lines += [p.args for p in workloads.probes(name, inputs)]
    # the traced run also counts with --jobs
    return lines + [["states", "bind_fig4.ohg", "--count-only", "--jobs", "2"]]


class TestReader:
    """The reader takes valid command lines without argparse, with the
    namespace the parser would give; it leaves everything else to the
    parser."""

    def test_readme_tour(self):
        lines = tour_lines()
        assert len(lines) == 14 and {argv[0] for argv in lines} == set(_COMMANDS)
        for argv in lines:
            read = _read_args(argv)
            assert read is not None, argv
            assert namespaces_equal(read, parsed_quietly(argv)), argv

    def test_workload_lines(self, tmp_path, monkeypatch):
        lines = workload_lines(tmp_path, monkeypatch)
        assert {"gadget", "compose", "states", "count", "classify"} <= {argv[0] for argv in lines}
        for argv in lines:
            read = _read_args(argv)
            assert read is not None, argv
            assert namespaces_equal(read, parsed_quietly(argv)), argv

    @pytest.mark.parametrize("argv", [
        ("states", "f.ohg", "--help"), ("states", "f.ohg", "-h"), ("states", "f.ohg", "--count"),
        ("states", "f.ohg", "--limit", "-1"), ("states", "f.ohg", "--limit=-1"),
        ("states", "f.ohg", "--jobs", "2", "--jobs", "3"), ("states", "f.ohg", "--count-only=1"),
        ("states", "--", "f.ohg"), ("states", "-"), ("states", ""), ("states", "f.ohg", "--out="),
        ("count", "--na", "1", "--nb", "x", "--nn", "1"), ("export", "f.ohg", "--format", "xml"),
        ("chroma", "f.ohg", "--brooks", "--exact"), ("chroma", "f.ohg", "--exact"),
        ("gadget", "bug", "extra"), ("gadget",),
        ("frobnicate",), (), ("--help",),
    ], ids=lambda a: " ".join(a) or "bare")
    def test_leaves_to_the_parser(self, argv):
        assert _read_args(list(argv)) is None

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_parser(self, data):
        name = data.draw(st.sampled_from(list(_COMMANDS)))
        argv = [name, *data.draw(argument_words(_command(name).ARGUMENTS))]
        read = _read_args(argv)
        if read is not None:
            parsed = parsed_quietly(argv)
            assert parsed is not None and namespaces_equal(read, parsed)


_ODD_VALUES = ("", "-", "--", "-1", "-x", "--help", "x", "1.5", "1_0", " 3", "+3", "nan",
               "inf", "1e-3", "a=b", "a b", "text", "json", "dot", "xml", "paper", "bug")


def value_words(kw):
    """A value for an argument: good ones for its type and choices, and odd ones."""
    if "choices" in kw:
        good = st.sampled_from(list(kw["choices"]))
    elif kw.get("type") is int:
        good = st.integers(-3, 40).map(str)
    elif kw.get("type") is float:
        good = st.floats(allow_nan=True).map(repr)
    else:
        good = st.text("abv1.=", min_size=1, max_size=4)
    return st.one_of(good, good, good, st.sampled_from(_ODD_VALUES))


@st.composite
def argument_words(draw, table):
    """The words after a subcommand: each argument of ``table`` maybe given,
    as ``--name value`` or ``--name=value``, then some noise (abbreviations,
    help, repeats, extra positionals), in any order."""
    groups = []
    for name, kw in table.items():
        if not name.startswith("-"):
            groups.append([draw(value_words(kw))])
        elif draw(st.integers(0, 3)):
            if "action" in kw:
                groups.append([name])
            elif draw(st.booleans()):
                groups.append([f"{name}={draw(value_words(kw))}"])
            else:
                groups.append([name, draw(value_words(kw))])
    options = [name for name in table if name.startswith("-")]
    noise = st.one_of(
        st.sampled_from(options).map(lambda o: [o[:-1]]),
        st.sampled_from(options).map(lambda o: [o]),
        st.sampled_from(options).flatmap(lambda o: value_words(table[o]).map(lambda v: [o, v])),
        st.sampled_from(["-h", "--help", "--", "extra", "-"]).map(lambda w: [w]),
    )
    if not draw(st.integers(0, 2)):
        groups.append(draw(noise))
    return [word for group in draw(st.permutations(groups)) for word in group]
