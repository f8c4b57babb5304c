import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohg import gadgets, states
from ohg.cli import main
from ohg.commands._json_rows import json_with_rows
from ohg.errors import OhgError, ParseError
from ohg.formats import (
    matrix_chunks,
    parse_matrix,
    parse_ohg,
    parse_vectors,
    write_matrix,
    write_ohg,
    write_vectors,
)
from ohg.geometry import VectorLabeling

from conftest import disjoint_union, random_pasting, random_rows, run_ohg


def reference_write_matrix(t: states.TravisMatrix) -> str:
    """The matrix writer as it was first written, one ``str`` per bit."""
    out = ["vertices: " + " ".join(t.vertices)]
    for r in range(t.n_rows):
        out.append(" ".join(str(b) for b in t.row_bits(r)))
    return "\n".join(out) + "\n"


def reference_states_json(t: states.TravisMatrix) -> str:
    rows = ["".join(str(b) for b in t.row_bits(r)) for r in range(t.n_rows)]
    payload = {"vertices": list(t.vertices), "nTS": t.n_rows, "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


def _writer_cases() -> dict[str, str]:
    cases = {name: write_ohg(gadgets.fixture(name).hypergraph)
             for name in gadgets.FIXTURE_NAMES
             if gadgets.fixture(name).hypergraph is not None}
    # no two-valued state: the matrix is its header line alone
    cases["contradictory"] = "a b\nb c\na c\n"
    # 8 columns, a whole number of bytes per packed row (bug has 13)
    cases["two_quads"] = "a b c d\ne f g h\n"
    # 43,008 rows x 139 columns: eleven write blocks
    g32 = gadgets.fixture("g32").hypergraph
    bind_g32 = gadgets.bind(gadgets.BindSpec(g32, "v1", "v13"))
    cases["bind_g32+bug"] = disjoint_union(write_ohg(bind_g32), cases["bug"])
    return cases


WRITER_CASES = _writer_cases()


class TestOhgFormat:
    def test_comments_are_stripped(self):
        text = "# a logic\nv1 v2 v3   # first context\n\nv3 v4 v5\n"
        h = parse_ohg(text)
        assert len(h.contexts) == 2
        assert write_ohg(h) == "v1 v2 v3\nv3 v4 v5\n"

    def test_round_trip_modulo_comments(self):
        text = "# header\nv1 v2 v3\nv3 v4 v5\n"
        assert write_ohg(parse_ohg(text)) == "v1 v2 v3\nv3 v4 v5\n"

    def test_writer_is_idempotent(self):
        scrambled = "v5 v3 v4\nv2 v3 v1\n"
        once = write_ohg(parse_ohg(scrambled))
        assert write_ohg(parse_ohg(once)) == once

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_ohg("# nothing here\n")


class TestMatrixFormat:
    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_matrix("1 0 0\n")

    def test_bad_digit(self):
        with pytest.raises(ParseError):
            parse_matrix("vertices: a b c\n1 0 x\n")

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("vertices: a b c\n1 0 0\n1 0 0\n")

    def test_duplicate_vertex_names_rejected(self):
        with pytest.raises(ValueError, match="distinct names"):
            states.TravisMatrix.from_bit_rows(("a", "a", "b"), [(1, 0, 0)])
        with pytest.raises(ParseError, match="distinct names"):
            parse_matrix("vertices: a a b\n1 0 0\n0 0 1\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("vertices: a b c\n1 0\n")

    def test_row_order_preserved(self):
        text = "vertices: a b c\n0 1 0\n1 0 0\n"
        t = parse_matrix(text)
        assert t.row_bits(0) == (0, 1, 0)
        assert write_matrix(t) == text

    def test_canonical_flag_sorts(self):
        t = states.TravisMatrix.from_bit_rows(
            ("a", "b", "c"), [(0, 1, 0), (1, 0, 0)], canonical=True
        )
        assert t.row_bits(0) == (1, 0, 0)

    def test_reference_matrices_parse(self):
        for name in ("triangle", "pentagon", "bug", "g32", "underlying", "ghz"):
            t = gadgets.fixture(name).travis
            again = parse_matrix(write_matrix(t))
            assert again == t


class TestMatrixWriter:
    """The block formatter writes the same bytes as the per-bit reference,
    through the library and through every ``ohg`` path that prints a matrix."""

    @pytest.fixture(scope="class", params=sorted(WRITER_CASES))
    def case(self, request, tmp_path_factory):
        text = WRITER_CASES[request.param]
        path = tmp_path_factory.mktemp("writer") / f"{request.param}.ohg"
        path.write_text(text)
        t = states.enumerate_states(parse_ohg(text))
        return str(path), t, reference_write_matrix(t)

    def test_shapes_covered(self):
        shapes = {name: states.enumerate_states(parse_ohg(text))
                  for name, text in WRITER_CASES.items()}
        assert shapes["contradictory"].n_rows == 0
        assert shapes["two_quads"].n_cols == 8
        assert shapes["bug"].n_cols % 8 != 0
        assert shapes["bind_g32+bug"].n_rows == 43_008
        assert shapes["bind_g32+bug"].n_rows > 10 * states._WRITE_BLOCK

    def test_write_matrix(self, case):
        _, t, want = case
        assert write_matrix(t) == want

    def test_chunks(self, case):
        _, t, want = case
        chunks = list(matrix_chunks(t))
        assert "".join(chunks) == want
        assert chunks[0].startswith("vertices: ")
        assert all(c.count("\n") <= states._WRITE_BLOCK + 1 for c in chunks)
        assert len(chunks) == max(1, -(-t.n_rows // states._WRITE_BLOCK))

    def test_row_slices_concatenate(self, case):
        _, t, want = case
        cut = t.n_rows // 3 + 1
        assert write_matrix(t, 0, cut) + write_matrix(t, cut) == want

    def test_states_stdout(self, case, capsys):
        path, _, want = case
        assert main(["states", path]) == 0
        assert capsys.readouterr().out == want

    def test_states_out(self, case, capsys, tmp_path):
        path, t, want = case
        target = tmp_path / "table.mat"
        assert main(["states", path, "--out", str(target)]) == 0
        assert capsys.readouterr().out == f"{t.n_rows}\n"
        assert target.read_text() == want

    def test_states_json(self, case, capsys):
        path, t, _ = case
        assert main(["states", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == reference_states_json(t)

    @pytest.mark.parametrize("name", ["triangle", "pentagon", "bug", "g32",
                                      "underlying", "ghz"])
    def test_reference_tables(self, name, capsys):
        # transcription row order, and ghz has 16 columns
        t = gadgets.fixture(name).travis
        want = reference_write_matrix(t)
        assert write_matrix(t) == want
        assert main(["gadget", name, "--travis"]) == 0
        assert capsys.readouterr().out == want

    def test_bind_bug_out_bounded(self, tmp_path, bind_bug):
        # the 2,239,488 x 108 table (484 MB of text) under a 1 GiB
        # address-space cap: the writer must stream it
        path = tmp_path / "bind_bug.ohg"
        path.write_text(write_ohg(bind_bug))
        target = tmp_path / "bind_bug.mat"
        try:
            start = time.perf_counter()
            result = run_ohg("states", str(path), "--out", str(target),
                             address_space=1 << 30)
            elapsed = time.perf_counter() - start
            assert result.returncode == 0, result.stderr
            assert result.stdout == "2239488\n"
            header = len("vertices: " + " ".join(bind_bug.vertices) + "\n")
            assert target.stat().st_size == header + 2_239_488 * 216
            assert elapsed <= 10.0, f"--out took {elapsed:.2f}s"
        finally:
            target.unlink(missing_ok=True)


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, reporting the first differing line rather than a
    diff of two texts of up to a megabyte."""
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b),
                 min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i:i + 1]} != {w[i:i + 1]} "
                    f"({len(g)} lines, expected {len(w)})")


_BLOCK = states._WRITE_BLOCK


class TestMatrixWriterProperties:
    """The big-int block formatter against the per-bit reference, on column
    counts with and without whole bytes and on row counts that leave odd
    counts in the fold and partial blocks in the writers."""

    @settings(max_examples=60, deadline=None, report_multiple_bugs=False)
    @given(
        k=st.one_of(st.sampled_from([1, 8, 64, 108, 200]), st.integers(1, 200)),
        n=st.one_of(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
                    st.integers(0, 40).map(lambda m: 2 * m + 1)),
        seed=st.integers(0, 2 ** 32 - 1),
        cut=st.tuples(st.floats(0, 1), st.one_of(st.none(), st.floats(0, 1))),
    )
    def test_writers_match_reference(self, k, n, seed, cut):
        rng = random.Random(seed)
        t = states.TravisMatrix(tuple(f"c{j}" for j in range(k)), random_rows(rng, k, n))
        want = reference_write_matrix(t)
        assert_same_text(write_matrix(t), want)
        chunks = list(matrix_chunks(t))
        assert_same_text("".join(chunks), want)
        assert all(c.count("\n") <= _BLOCK + 1 for c in chunks)
        payload = {"vertices": list(t.vertices), "nTS": n}
        assert_same_text("".join(json_with_rows(payload, t)),
                         reference_states_json(t))
        # a slice that need not start or end on a block boundary
        start = int(cut[0] * n)
        stop = None if cut[1] is None else start + int(cut[1] * (n - start))
        lines = want.splitlines(keepends=True)
        assert_same_text(write_matrix(t, start, stop), "".join(
            (lines[:1] if start == 0 else [])
            + lines[1 + start:None if stop is None else 1 + stop]
        ))


class TestVectorFormat:
    def test_parse(self):
        lab = parse_vectors("a: 1 0 0\nb: 0 1 0\n")
        assert lab.dimension == 3
        assert lab.vectors["b"] == (0.0, 1.0, 0.0)

    def test_round_trip(self):
        lab = VectorLabeling(2, {"x": (0.5, -1.25), "y": (3.0, 0.0)})
        assert parse_vectors(write_vectors(lab)) == lab

    def test_bad_lines(self):
        with pytest.raises(ParseError):
            parse_vectors("just words\n")
        with pytest.raises(ParseError):
            parse_vectors("a: one two\n")
        with pytest.raises(ParseError):
            parse_vectors("a: 1 0\na: 0 1\n")
        with pytest.raises(ParseError):
            parse_vectors("")


# Text near the formats' grammar, so that generated inputs get past the first
# checks: header words, digits, names, separators, numbers and whitespace.
_TOKENS = st.sampled_from([
    "vertices:", "vertices: a b", "0", "1", "2", "01", "-1", "+1", "1_0", "a",
    "b", "c", "v1", "x:", ":", ": ", "#", "# c", " ", "\t", "\n", "\r\n",
    "\x0b", "\x1c", "\u2028", "\u0661", "nan", "inf", "-inf", "1e999",
    "0.5", "-0.0", "1" * 5000, "\u00e9", "\x00",
])
_NEAR_TEXT = st.lists(_TOKENS, max_size=40).map("".join)
_ANY_TEXT = st.one_of(st.text(), _NEAR_TEXT)


class TestParsersRaiseOnlyOhgError:
    """Whatever the text, a parser returns or raises an :class:`OhgError`,
    which the command line reports as an input error (exit 2)."""

    @pytest.mark.parametrize("parse", [parse_ohg, parse_matrix, parse_vectors])
    @settings(max_examples=300, deadline=None)
    @given(text=_ANY_TEXT)
    def test_arbitrary_text(self, parse, text):
        try:
            parse(text)
        except OhgError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matrix_round_trip(self, seed):
        t = states.enumerate_states(random_pasting(random.Random(seed)))
        assert parse_matrix(write_matrix(t)) == t
