import contextlib
import io
import json
import os
import random
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohg import chromatic, cli, coloring, core, gadgets, states
from ohg.coloring import (
    Coloring,
    PartitionSystem,
    RowSelection,
    algorithm1,
    brooks_bound,
    color_to_state,
    coloring_from_partition,
    exact_chromatic,
    exact_coloring,
    paper_coloring,
    partition_from_coloring,
    partition_from_rows,
    relaxed_coloring,
    verify_rows,
)
from ohg.errors import (
    ColumnCountMismatchError,
    DisconnectedError,
    NotAStateError,
    NotDominatingError,
    NotProperError,
    OhgError,
    RowLimitExceededError,
    SizeLimitError,
)
from ohg.formats import parse_ohg, write_ohg
from ohg.reconstruction import reconstruct

from conftest import (
    brute_force_chromatic,
    brute_force_two_section_edges,
    disjoint_union,
    random_pasting,
    run_ohg,
)

TRIANGLE_COLORING = {
    "a1": 1, "a4": 1, "a2": 2, "a5": 2, "a3": 3, "a6": 3,
}


def sum_oracle(t, rows_one_based):
    """Independent summation check: stack the rows and add columnwise."""
    stacked = np.array([t.row_bits(r - 1) for r in rows_one_based])
    return (stacked.sum(axis=0) == 1).all()


class TestPartitions:
    def test_triangle_cells(self, triangle):
        c = Coloring(triangle, dict(TRIANGLE_COLORING))
        p = partition_from_coloring(triangle, c)
        assert set(p.cells) == {
            frozenset({"a1", "a4"}),
            frozenset({"a2", "a5"}),
            frozenset({"a3", "a6"}),
        }

    def test_k3_singletons(self, k3):
        c = Coloring(k3, {"a": 1, "b": 2, "c": 3})
        p = partition_from_coloring(k3, c)
        assert set(p.cells) == {frozenset("a"), frozenset("b"), frozenset("c")}

    def test_bug_four_colors_not_dominating(self, bug):
        _, three = exact_coloring(bug)
        recolored = dict(three.color_of)
        recolored["v13"] = 4
        c = Coloring(bug, recolored)
        with pytest.raises(NotDominatingError):
            partition_from_coloring(bug, c)

    def test_improper_rejected(self, k3):
        with pytest.raises(NotProperError):
            Coloring(k3, {"a": 1, "b": 1, "c": 2})

    def test_improper_cells_rejected(self, triangle):
        with pytest.raises(NotProperError):
            PartitionSystem(triangle, (
                frozenset({"a1", "a2"}),
                frozenset({"a3", "a6"}),
                frozenset({"a4", "a5"}),
            ))

    def test_round_trip_canonical(self, triangle):
        c = Coloring(triangle, dict(TRIANGLE_COLORING))
        p = partition_from_coloring(triangle, c)
        back = coloring_from_partition(p)
        assert {back.color_class(i) for i in back.colors()} == set(p.cells)

    def test_round_trip_on_fixtures(self):
        for name in ("k3", "triangle", "pentagon", "bug", "underlying", "fig4"):
            h = gadgets.fixture(name).hypergraph
            chi, c = exact_coloring(h)
            assert chi == core.shape(h).clique_number
            p = partition_from_coloring(h, c)
            back = coloring_from_partition(p)
            assert {back.color_class(i) for i in back.colors()} == set(p.cells)

    def test_pentagon_rows_give_coloring(self, pentagon):
        ref = gadgets.fixture("pentagon").travis
        p = partition_from_rows(pentagon, ref, RowSelection((1, 8, 11)))
        c = coloring_from_partition(p)
        assert c.num_colors == 3


class TestAlgorithm1:
    def test_triangle(self):
        ref = gadgets.fixture("triangle").travis
        assert algorithm1(ref, 3) == RowSelection((1, 2, 3))

    def test_pentagon(self):
        ref = gadgets.fixture("pentagon").travis
        assert algorithm1(ref, 3) == RowSelection((1, 8, 11))

    def test_ghz(self):
        ref = gadgets.fixture("ghz").travis
        selection = algorithm1(ref, 4)
        assert selection == RowSelection((1, 4, 5, 8))
        assert verify_rows(ref, selection)

    def test_g32_absent(self):
        ref = gadgets.fixture("g32").travis
        assert algorithm1(ref, 3) is None

    def test_bug(self):
        ref = gadgets.fixture("bug").travis
        selection = algorithm1(ref, 3)
        assert selection is not None
        assert verify_rows(ref, selection)
        assert sum_oracle(ref, selection.rows)

    def test_deterministic(self):
        ref = gadgets.fixture("pentagon").travis
        assert algorithm1(ref, 3) == algorithm1(ref, 3)

    def test_exhaustive_absence(self, g32):
        # backtracking must agree with an exhaustive scan over row triples
        import itertools
        ref = gadgets.fixture("g32").travis
        assert not any(
            sum_oracle(ref, combo)
            for combo in itertools.combinations(range(1, ref.n_rows + 1), 3)
        )

    def test_empty_matrix(self):
        t = states.TravisMatrix(("a", "b"), ())
        assert algorithm1(t, 2) is None

    def test_more_colors_than_rows(self):
        ref = gadgets.fixture("bug").travis
        assert algorithm1(ref, ref.n_rows + 1) is None

    def test_deep_backtracking_success(self):
        # picking rows 1 then 2 dead-ends at the third level; the search must
        # restore the removed rows, drop the second pick, and find (1, 3, 4)
        t = states.TravisMatrix.from_bit_rows(
            ("a", "b", "c", "d", "e", "f"),
            [
                (1, 0, 0, 1, 0, 0),
                (0, 1, 0, 0, 1, 0),
                (0, 0, 1, 0, 1, 0),
                (0, 1, 0, 0, 0, 1),
            ],
        )
        selection = algorithm1(t, 3)
        assert selection == RowSelection((1, 3, 4))
        assert verify_rows(t, selection)

    def test_deep_backtracking_absence(self):
        # same shape minus the completing row: every branch dead-ends and the
        # exhausted search reports absence
        t = states.TravisMatrix.from_bit_rows(
            ("a", "b", "c", "d", "e", "f"),
            [
                (1, 0, 0, 1, 0, 0),
                (0, 1, 0, 0, 1, 0),
                (0, 0, 1, 0, 1, 0),
            ],
        )
        assert algorithm1(t, 3) is None
        import itertools
        assert not any(
            sum_oracle(t, combo)
            for r in (2, 3)
            for combo in itertools.combinations(range(1, 4), r)
        )


    def test_work_budget(self, monkeypatch):
        # the exhaustive search of g32's table tests 15 rows against picks
        ref = gadgets.fixture("g32").travis
        monkeypatch.setattr(coloring, "_ALGORITHM1_TEST_BUDGET", 15)
        assert algorithm1(ref, 3) is None
        monkeypatch.setattr(coloring, "_ALGORITHM1_TEST_BUDGET", 14)
        with pytest.raises(SizeLimitError, match="row-conflict tests"):
            algorithm1(ref, 3)


def _paper_outcome(h, n):
    """``paper_coloring``'s selection, the partition checked against the
    rows of the whole table; ``"stop"`` for a stop at the work budget."""
    try:
        found = paper_coloring(h, n)
    except SizeLimitError:
        return "stop"
    if found is None:
        return None
    selection, partition = found
    t = states.enumerate_states(h)
    assert partition == partition_from_rows(h, t, selection)
    return selection


def _table_outcome(h, n):
    try:
        return algorithm1(states.enumerate_states(h), n)
    except SizeLimitError:
        return "stop"


class TestPaperColoring:
    """``paper_coloring`` against ``algorithm1`` over the whole canonical
    table, whose selection it must equal."""

    @pytest.mark.parametrize("name", ["k3", "triangle", "pentagon", "bug",
                                      "g32", "g32x", "underlying", "fig4"])
    def test_fixtures(self, name):
        h = gadgets.fixture(name).hypergraph
        assert _paper_outcome(h, 3) == _table_outcome(h, 3)

    def test_ghz_reconstructed(self):
        h = reconstruct(gadgets.fixture("ghz").travis, 4).filtered_hypergraph
        want = _table_outcome(h, 4)
        assert want is not None and _paper_outcome(h, 4) == want

    def test_no_state(self):
        h = core.build([("a", "b"), ("b", "c"), ("a", "c")])
        assert paper_coloring(h, 2) is None

    def test_bind_bug(self, bind_bug, bind_bug_matrix):
        selection, partition = paper_coloring(bind_bug, 3)
        assert selection == algorithm1(bind_bug_matrix, 3)
        assert selection == RowSelection((1, 1231088, 2234304))
        assert partition == partition_from_rows(bind_bug, bind_bug_matrix,
                                                selection)

    def test_contexts_of_other_sizes(self, bug):
        # two disjoint states leave a vertex of every 3-element context over
        assert paper_coloring(bug, 2) is None
        with pytest.raises(OhgError, match="positive"):
            paper_coloring(bug, 0)

    def test_row_budget(self, bug, monkeypatch):
        monkeypatch.setattr(states, "ROW_BUDGET", 13)
        with pytest.raises(RowLimitExceededError, match="row budget of 13"):
            paper_coloring(bug, 3)

    @pytest.mark.parametrize("name, table", [("bug", False), ("pasting202", True)])
    def test_table_only_as_fallback(self, monkeypatch, name, table):
        # the find of random_pasting(Random(202), size=4) does not start with
        # row 1 (test_find_without_row_one), so only the whole table finds it;
        # the whole table is the states disjoint from the empty row, read off
        # the one search
        disjoint_from, searches = [], []
        disjoint, search = coloring.CanonicalRows.disjoint, coloring.search
        monkeypatch.setattr(coloring.CanonicalRows, "disjoint",
                            lambda self, row: disjoint_from.append(row) or disjoint(self, row))
        monkeypatch.setattr(coloring, "search", lambda h: searches.append(h) or search(h))
        if name == "bug":
            h, n = gadgets.fixture(name).hypergraph, 3
        else:
            h, n = random_pasting(random.Random(202), size=4), 4
        assert paper_coloring(h, n) is not None
        assert (0 in disjoint_from) == table
        assert searches == [h]

    def test_stop_while_row_one_stands(self, bind_bug, monkeypatch):
        # a stop among the states disjoint from row 1 is a stop on the
        # whole table too, so the table is not built
        disjoint = coloring.CanonicalRows.disjoint

        def refuse_whole_table(self, row):
            assert row, "the whole table was built"
            return disjoint(self, row)

        monkeypatch.setattr(coloring, "_ALGORITHM1_TEST_BUDGET", 1)
        monkeypatch.setattr(coloring.CanonicalRows, "disjoint", refuse_whole_table)
        with pytest.raises(SizeLimitError, match="row-conflict tests"):
            paper_coloring(bind_bug, 3)

    def test_find_without_row_one(self):
        # restored rows go to the end of the available list, so the find is
        # not increasing, nor the lexicographically first partition
        # (9, 10, 25, 45); this is random_pasting(random.Random(202), size=4)
        h = core.build([line.split() for line in (
            "t0 t1 t2 t3", "t1 t4 t5 t6", "t2 t6 t7 t8", "t0 t9 t10 t11",
            "t3 t6 t12 t13")])
        t = states.enumerate_states(h)
        assert t.n_rows == 45
        assert algorithm1(t, 4) == RowSelection((9, 43, 13, 26))
        assert _paper_outcome(h, 4) == RowSelection((9, 43, 13, 26))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 5),
           beside_g32=st.booleans())
    def test_random_pastings(self, seed, size, beside_g32):
        # beside g32 (3-element contexts) nothing has three disjoint
        # states, so the whole table settles the answer
        h = random_pasting(random.Random(seed), size=size)
        if beside_g32 and size == 3:
            g32 = gadgets.fixture("g32").hypergraph
            h = parse_ohg(disjoint_union(write_ohg(h), write_ohg(g32)))
        assert _paper_outcome(h, size) == _table_outcome(h, size)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 5),
           budget=st.integers(1, 80))
    def test_random_pastings_small_budget(self, seed, size, budget):
        # the search of the states disjoint from row 1 makes fewer tests
        # than the whole table's, so it may answer where the whole table
        # stops; otherwise the outcomes agree
        h = random_pasting(random.Random(seed), size=size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coloring, "_ALGORITHM1_TEST_BUDGET", budget)
            got, want = _paper_outcome(h, size), _table_outcome(h, size)
        assert got == want or want == "stop"


class TestVerifyRows:
    def test_triangle_cases(self):
        ref = gadgets.fixture("triangle").travis
        assert verify_rows(ref, RowSelection((1, 2, 3)))
        assert not verify_rows(ref, RowSelection((1, 2, 4)))
        assert sum_oracle(ref, (1, 2, 3))
        assert not sum_oracle(ref, (1, 2, 4))

    def test_k3(self, k3):
        t = states.enumerate_states(k3)
        assert verify_rows(t, RowSelection((1, 2, 3)))

    def test_false_cases(self):
        ref = gadgets.fixture("triangle").travis
        # rows 1 and 4 share a4, though the four rows cover every column
        assert not verify_rows(ref, RowSelection((1, 2, 3, 4)))
        # disjoint, but a2 and a5 stay uncovered
        assert not verify_rows(ref, RowSelection((1, 2)))
        # row 3 chosen twice puts a2 and a5 in two cells
        assert not verify_rows(ref, RowSelection((1, 2, 3, 3)))

    def test_out_of_range(self):
        ref = gadgets.fixture("triangle").travis
        with pytest.raises(Exception):
            verify_rows(ref, RowSelection((0, 1, 2)))


class TestColorToState:
    def test_triangle_color_one(self, triangle):
        c = Coloring(triangle, dict(TRIANGLE_COLORING))
        s = color_to_state(c, 1)
        assert s.true_set == frozenset({"a1", "a4"})
        ref = gadgets.fixture("triangle").travis
        assert s.true_set == ref.row_true_set(0)

    def test_k3(self, k3):
        c = Coloring(k3, {"a": 1, "b": 2, "c": 3})
        assert color_to_state(c, 2).bits() == (0, 1, 0)

    def test_g32_surplus_color(self, g32):
        t = states.enumerate_states(g32)
        four = relaxed_coloring(t, g32, 4)
        assert four is not None
        with pytest.raises(NotAStateError):
            color_to_state(four, 4)

    def test_selection_round_trip(self, pentagon):
        # a verified selection induces a coloring whose classes are exactly
        # the selected rows' true sets
        ref = gadgets.fixture("pentagon").travis
        selection = algorithm1(ref, 3)
        assert verify_rows(ref, selection)
        c = coloring_from_partition(partition_from_rows(pentagon, ref, selection))
        classes = {color_to_state(c, i).true_set for i in c.colors()}
        assert classes == {ref.row_true_set(r - 1) for r in selection.rows}


def _scrambled(h, k):
    """``h`` with its contexts and their members shuffled by a seeded
    generator."""
    contexts = [sorted(c, key=h.index.__getitem__) for c in h.contexts]
    rng = random.Random(f"scramble:{k}")
    rng.shuffle(contexts)
    for ctx in contexts:
        rng.shuffle(ctx)
    return core.build(contexts)


def _attempts(h, monkeypatch):
    """``(k, cutoff, nodes, found)`` of each ``_k_coloring`` attempt that
    ``exact_coloring(h)`` makes."""
    attempts, attempt = [], chromatic._k_coloring

    def logged(k, nbrs, tight, seeds, rank, cutoff):
        colors, nodes = attempt(k, nbrs, tight, seeds, rank, cutoff)
        attempts.append((k, cutoff, nodes, colors is not None))
        return colors, nodes

    monkeypatch.setattr(chromatic, "_k_coloring", logged)
    exact_coloring(h)
    return attempts


class TestChromatic:
    @pytest.mark.parametrize("name,chi", [
        ("k3", 3), ("triangle", 3), ("pentagon", 3), ("bug", 3),
        ("g32", 4), ("g32x", 4), ("underlying", 3), ("fig4", 3),
    ])
    def test_fixture_values(self, name, chi):
        assert exact_chromatic(gadgets.fixture(name).hypergraph) == chi

    def test_lower_bound_is_clique_number(self):
        for name in ("triangle", "pentagon", "bug", "g32", "underlying"):
            h = gadgets.fixture(name).hypergraph
            assert exact_chromatic(h) >= core.shape(h).clique_number

    def test_bind_bug(self, bind_bug):
        start = time.perf_counter()
        chi, c = exact_coloring(bind_bug)
        assert time.perf_counter() - start < 1
        assert chi == 3 == exact_chromatic(bind_bug)
        # every context has 3 vertices, so each colour class is a state
        for color in c.colors():
            assert color_to_state(c, color).satisfies(bind_bug)
        partition_from_coloring(bind_bug, c)

    @pytest.mark.parametrize("gadget, head, tail, chi", [
        ("g32", "v1", "v13", 4),
        ("fig4", "a1", "a11", 3),
    ])
    def test_bindings(self, gadget, head, tail, chi):
        spec = gadgets.BindSpec(gadgets.fixture(gadget).hypergraph, head, tail)
        h = gadgets.bind(spec)
        got, c = exact_coloring(h)
        assert got == chi == c.num_colors

    # context-and-member scrambles stall the first attempt on some inputs;
    # the seeded restarts must still answer within the budget
    @pytest.mark.parametrize("k", range(4))
    def test_bind_fig4_scrambles(self, bind_fig4, k):
        h = _scrambled(bind_fig4, k)
        start = time.perf_counter()
        assert exact_chromatic(h) == 3
        assert time.perf_counter() - start < 5

    # the nodes of each attempt decide when the budget stops a search
    @pytest.mark.parametrize("name, scramble, attempts", [
        ("bind_fig4", None, [(3, 378, 379, False), (3, 756, 103, True)]),
        ("bind_fig4", 0, [(3, 378, 108, True)]),
        ("bind_fig4", 2, [(3, 378, 379, False), (3, 756, 613, True)]),
        ("g32", None, [(3, 15, 2, False), (4, 15, 10, True)]),
    ])
    def test_attempts(self, request, monkeypatch, name, scramble, attempts):
        h = request.getfixturevalue(name)
        if scramble is not None:
            h = _scrambled(h, scramble)
        assert _attempts(h, monkeypatch) == attempts

    def test_size_limit(self, bind_bug, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(chromatic, "_NODE_BUDGET", 10)
        with pytest.raises(SizeLimitError, match="after 10 nodes"):
            exact_chromatic(bind_bug)
        path = tmp_path / "bind_bug.ohg"
        path.write_text(write_ohg(bind_bug))
        assert cli.main(["chroma", str(path)]) == 2
        assert "error: exact chromatic search stopped" in capsys.readouterr().err
        assert cli.main(["classify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nTS: 2239488"
        assert lines[-1] == "semi-perfect: unknown (size limit)"

    def test_k4(self):
        assert exact_chromatic(core.build([("a", "b", "c", "d")])) == 4

    # exact_coloring's colour of each vertex, in vertex order
    @pytest.mark.parametrize("name, colors", [
        ("k3", "123"),
        ("triangle", "132132"),
        ("pentagon", "1323132132"),
        ("bug", "1321312312323"),
        ("g32", "123121312342234"),
        ("g32x", "123121341342241"),
        ("underlying", "123231312"),
        ("fig4", "1321321231231232123233213131232332131312323"),
    ])
    def test_pinned_fixture_colorings(self, name, colors):
        h = gadgets.fixture(name).hypergraph
        chi, c = exact_coloring(h)
        assert "".join(str(c.color_of[v]) for v in h.vertices) == colors
        assert chi == int(max(colors))

    # greedy DSATUR uses 4 colours on each of these pastings; on the first
    # four the search finds 3, on the last three it proves that 4 is optimal
    @pytest.mark.parametrize("seed, colors", [
        (94, "3212312132312232323"),
        (99, "31232131122321"),
        (122, "312123123322323123"),
        (150, "123132132132"),
        (105, "3241323212132321312"),
        (288, "1232314123"),
        (310, "13231232234322123"),
    ])
    def test_pinned_random_colorings(self, seed, colors):
        h = random_pasting(random.Random(seed), max_contexts=12, max_vertices=21)
        chi, c = exact_coloring(h)
        assert "".join(str(c.color_of[v]) for v in h.vertices) == colors
        assert chi == int(max(colors))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 5),
           union=st.booleans())
    def test_random_pastings_against_brute_force(self, seed, size, union):
        rng = random.Random(seed)
        if union:
            # two components, coloured apart
            a = random_pasting(rng, max_contexts=6, max_vertices=7, size=size)
            b = random_pasting(rng, max_contexts=6, max_vertices=7,
                               size=rng.randint(2, 5))
            h = parse_ohg(disjoint_union(write_ohg(a), write_ohg(b)))
        else:
            h = random_pasting(rng, max_contexts=10, max_vertices=14, size=size)
        chi, c = exact_coloring(h)
        assert chi == brute_force_chromatic(h)
        omega = core.shape(h).clique_number
        assert chi >= omega
        assert c.num_colors == chi
        for edge in brute_force_two_section_edges(h):
            u, v = edge
            assert c.color_of[u] != c.color_of[v]
        # the order of contexts and of their members does not change chi
        contexts = [sorted(ctx) for ctx in h.contexts]
        rng.shuffle(contexts)
        for ctx in contexts:
            rng.shuffle(ctx)
        assert exact_chromatic(core.build(contexts)) == chi
        if chi == omega and all(len(ctx) == omega for ctx in h.contexts):
            for color in c.colors():
                assert color_to_state(c, color).satisfies(h)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "h.ohg")
            with open(path, "w") as f:
                f.write(write_ohg(h))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["classify", path, "--format", "json"]) == 0
        assert json.loads(out.getvalue())["verdicts"]["semiPerfect"] == (chi == omega)


class TestBrooks:
    def test_g32(self, g32):
        assert brooks_bound(g32) == 4

    def test_k4_complete(self):
        assert brooks_bound(core.build([("a", "b", "c", "d")])) == 4

    def test_triangle(self, triangle):
        assert brooks_bound(triangle) == 4

    def test_disconnected(self):
        h = core.build([("a", "b", "c"), ("d", "e", "f")])
        with pytest.raises(DisconnectedError):
            brooks_bound(h)

    def test_bound_dominates_chromatic(self):
        for name in ("k3", "triangle", "pentagon", "bug", "g32", "underlying",
                     "fig4"):
            h = gadgets.fixture(name).hypergraph
            assert brooks_bound(h) >= exact_chromatic(h)


class TestRelaxedColoring:
    def test_g32_four(self, g32):
        t = states.enumerate_states(g32)
        c = relaxed_coloring(t, g32, 4)
        assert c is not None and c.num_colors == 4

    def test_g32_three_absent(self, g32):
        t = states.enumerate_states(g32)
        assert relaxed_coloring(t, g32, 3) is None

    def test_triangle(self, triangle):
        # the walk is row-order sensitive; the printed table's order succeeds
        ref = gadgets.fixture("triangle").travis
        c = relaxed_coloring(ref, triangle, 3)
        assert c is not None and c.num_colors == 3

    def test_never_beats_the_oracle(self):
        for name in ("triangle", "pentagon", "bug", "g32", "underlying"):
            h = gadgets.fixture(name).hypergraph
            chi = exact_chromatic(h)
            t = states.enumerate_states(h)
            c = relaxed_coloring(t, h, chi)
            if c is not None:
                assert c.num_colors >= chi


def reference_relaxed_coloring(t, h, max_colors):
    """The relaxed colouring as first written, over per-row frozensets."""
    idx = h.index
    nbr = h.neighbor_masks
    rows = [t.row_true_set(r) for r in range(t.n_rows)]
    uncolored = set(h.vertices)
    color_of = {}
    for color in range(1, max_colors + 1):
        if not uncolored:
            break
        current = set()
        current_mask = 0
        for true_set in rows:
            contribution = true_set & uncolored
            if not contribution:
                continue
            add_mask = sum(1 << idx[v] for v in contribution)
            conflict = False
            for v in contribution:
                if nbr[idx[v]] & ((current_mask | add_mask) & ~(1 << idx[v])):
                    conflict = True
                    break
            if conflict:
                continue
            current |= contribution
            current_mask |= add_mask
            uncolored -= contribution
        if not current:
            return None
        for v in current:
            color_of[v] = color
    if uncolored:
        return None
    return Coloring(h, color_of)


def _relaxed_cases():
    """(hypergraph, table) pairs: every fixture's enumeration and printed
    table, the same tables with their columns reversed, and random pastings."""
    cases = []
    for name in gadgets.FIXTURE_NAMES:
        fx = gadgets.fixture(name)
        if fx.hypergraph is None:
            continue
        cases.append((fx.hypergraph, states.enumerate_states(fx.hypergraph)))
        if fx.travis is not None:
            cases.append((fx.hypergraph, fx.travis))
    for h, t in list(cases):
        flipped = states.TravisMatrix.from_bit_rows(
            t.vertices[::-1], [t.row_bits(r)[::-1] for r in range(t.n_rows)])
        cases.append((h, flipped))
    rng = random.Random(2024)
    for _ in range(25):
        h = random_pasting(rng)
        cases.append((h, states.enumerate_states(h)))
    return cases


class TestRelaxedOverRowInts:
    def test_same_as_reference(self):
        for h, t in _relaxed_cases():
            for n in range(1, 6):
                want = reference_relaxed_coloring(t, h, n)
                got = relaxed_coloring(t, h, n)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and got.color_of == want.color_of

    def test_columns_must_match(self, bug, g32):
        with pytest.raises(ColumnCountMismatchError):
            relaxed_coloring(states.enumerate_states(g32), bug, 3)

    def test_bind_bug_in_seconds(self, tmp_path, bind_bug):
        # under a 1 GiB address-space cap: per-row sets of the 2,239,488
        # states would not fit
        path = tmp_path / "bind_bug.ohg"
        path.write_text(write_ohg(bind_bug))

        def relaxed(n):
            start = time.perf_counter()
            result = run_ohg("color", str(path), "--algorithm", "relaxed",
                             "--n", str(n), "--format", "json",
                             address_space=1 << 30)
            elapsed = time.perf_counter() - start
            assert elapsed <= 10.0, f"--n {n} took {elapsed:.2f}s"
            return result

        five = relaxed(5)
        assert five.returncode == 0, five.stderr
        color_of = json.loads(five.stdout)["coloring"]
        assert Coloring(bind_bug, color_of).num_colors == 4
        three = relaxed(3)
        assert three.returncode == 1, three.stderr
        assert json.loads(three.stdout) == {"vertices": list(bind_bug.vertices),
                                            "coloring": None}


class TestColorabilityEquivalence:
    """The row search succeeds at n exactly when the hypergraph is
    n-chromatic, across every fixture where both sides run."""

    @pytest.mark.parametrize("name,n", [
        ("k3", 3), ("triangle", 3), ("pentagon", 3), ("bug", 3),
        ("g32", 3), ("underlying", 3), ("fig4", 3),
    ])
    def test_equivalence(self, name, n):
        h = gadgets.fixture(name).hypergraph
        t = states.enumerate_states(h)
        found = algorithm1(t, n) is not None
        assert found == (exact_chromatic(h) == n)

    def test_ghz_equivalence(self):
        ref = gadgets.fixture("ghz").travis
        found = algorithm1(ref, 4) is not None
        ghz_h = reconstruct(ref, 4).filtered_hypergraph
        assert found == (exact_chromatic(ghz_h) == 4)

    def test_selection_always_verifies(self):
        for name in ("k3", "triangle", "pentagon", "bug", "underlying", "fig4"):
            h = gadgets.fixture(name).hypergraph
            t = states.enumerate_states(h)
            selection = algorithm1(t, core.shape(h).clique_number)
            assert selection is not None
            assert verify_rows(t, selection)
            assert sum_oracle(t, selection.rows)
