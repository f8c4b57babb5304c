import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohg import core, gadgets, states
from ohg.errors import (
    AdjacentTerminalsError,
    NotATifsPairError,
    OhgError,
    RankMismatchError,
    UnknownFixtureError,
)
from ohg.gadgets import BindSpec, bind, build_fig4, layer, predicted_bind_count
from ohg.reconstruction import travis_equivalent

from conftest import random_pasting

# a 3-cycle of 2-element contexts admits no state; d and e hang off it
NO_STATE = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("b", "e")]


def _check_every_pair(h: core.Hypergraph) -> None:
    """``BindSpec`` on every ordered pair of distinct vertices of ``h``
    against the pairs of :func:`~ohg.gadget_scan` over the co-truth counts;
    without a state, every pair of non-adjacent vertices is refused."""
    c = states.cotruth(h)
    tifs = states.gadget_scan(h, c).tifs_pairs if c.nts else frozenset()
    for head, tail in itertools.permutations(h.vertices, 2):
        if h.adjacent(head, tail):
            with pytest.raises(AdjacentTerminalsError):
                BindSpec(h, head, tail)
        elif not c.nts:
            with pytest.raises(OhgError, match="no two-valued state") as refusal:
                BindSpec(h, head, tail)
            assert type(refusal.value) is OhgError
        elif (head, tail) in tifs:
            BindSpec(h, head, tail)
        else:
            with pytest.raises(NotATifsPairError):
                BindSpec(h, head, tail)


class TestFixtureCatalogue:
    def test_names(self):
        for name in gadgets.FIXTURE_NAMES:
            fx = gadgets.fixture(name)
            assert fx.name == name
            assert fx.hypergraph is not None or fx.travis is not None

    def test_unknown(self):
        with pytest.raises(UnknownFixtureError):
            gadgets.fixture("pentagram")

    def test_bug_reference_rows(self):
        assert gadgets.fixture("bug").travis.n_rows == 14

    def test_underlying_reference_shape(self):
        t = gadgets.fixture("underlying").travis
        assert (t.n_rows, t.n_cols) == (6, 9)

    def test_ghz_matrix_only(self):
        fx = gadgets.fixture("ghz")
        assert fx.hypergraph is None
        assert (fx.travis.n_rows, fx.travis.n_cols) == (8, 16)

    def test_g32_chord_context(self, g32):
        assert frozenset({"v13", "v14", "v15"}) in set(g32.contexts)

    def test_g32_reference_consistent(self, g32):
        # every reference row must pick exactly one vertex per context
        t = gadgets.fixture("g32").travis
        for r in range(t.n_rows):
            chosen = t.row_true_set(r)
            for ctx in g32.contexts:
                assert len(ctx & chosen) == 1

    @pytest.mark.parametrize("name", ["triangle", "pentagon", "bug", "g32",
                                      "underlying"])
    def test_reference_equivalent_to_enumeration(self, name):
        fx = gadgets.fixture(name)
        enumerated = states.enumerate_states(fx.hypergraph)
        witness = travis_equivalent(enumerated, fx.travis)
        assert witness is not None
        row_map, col_map = witness
        for r in range(enumerated.n_rows):
            for c in range(enumerated.n_cols):
                assert enumerated.bit(r, c) == fx.travis.bit(row_map[r], col_map[c])

    @pytest.mark.parametrize("name", ["k3", "pentagon", "bug", "g32",
                                      "underlying", "fig4"])
    def test_catalogued_fixtures_conformal(self, name):
        rep = core.shape(gadgets.fixture(name).hypergraph)
        assert rep.conformal and rep.uniform

    def test_triangle_not_conformal(self, triangle):
        # the three corners are pairwise intertwined, so they form a maximal
        # clique of the 2-section that is not a context
        assert not core.shape(triangle).conformal
        cliques = set(core.maximal_cliques(core.two_section(triangle)))
        assert frozenset({"a1", "a3", "a5"}) in cliques

    def test_shipped_files_byte_stable(self):
        from importlib import resources
        from ohg.formats import parse_matrix, parse_ohg, write_matrix, write_ohg

        for name in gadgets.FIXTURE_NAMES:
            fx = gadgets.fixture(name)
            if fx.hypergraph is not None:
                text = (resources.files("ohg") / "fixtures" / f"{name}.ohg").read_text()
                assert write_ohg(parse_ohg(text)) == text
            if fx.travis is not None:
                text = (resources.files("ohg") / "fixtures" / f"{name}.mat").read_text()
                assert write_matrix(parse_matrix(text)) == text

    def test_isomorphism_reflexive_on_fixtures(self):
        for name in ("k3", "triangle", "pentagon", "bug", "g32", "underlying"):
            h = gadgets.fixture(name).hypergraph
            assert core.is_isomorphic(h, h) is not None

    def test_isomorphism_at_scale(self, bind_bug):
        # 108 vertices with nine interchangeable gadget copies is the
        # symmetric worst case the matcher is expected to handle
        relabel = {v: f"n{i}" for i, v in enumerate(bind_bug.vertices)}
        other = core.build([
            tuple(relabel[v] for v in sorted(c, key=bind_bug.index.__getitem__))
            for c in bind_bug.contexts
        ])
        mapping = core.is_isomorphic(bind_bug, other)
        assert mapping is not None
        ctxs2 = set(other.contexts)
        for ctx in bind_bug.contexts:
            assert frozenset(mapping[v] for v in ctx) in ctxs2


class TestBindSpec:
    def test_bug_terminals_accepted(self, bug):
        spec = BindSpec(bug, "v1", "v7")
        assert (spec.head, spec.tail) == ("v1", "v7")

    def test_adjacent_terminals_rejected(self, k3):
        with pytest.raises(AdjacentTerminalsError):
            BindSpec(k3, "a", "b")

    def test_co_true_pair_rejected(self, bug):
        with pytest.raises(NotATifsPairError):
            BindSpec(bug, "v1", "v4")

    def test_unknown_terminal(self, bug):
        with pytest.raises(UnknownFixtureError):
            BindSpec(bug, "v1", "vX")

    def test_gadget_without_states(self):
        h = core.build(NO_STATE)
        assert not h.adjacent("d", "e")
        with pytest.raises(OhgError, match="no two-valued state"):
            BindSpec(h, "d", "e")

    @pytest.mark.parametrize("name", [
        n for n in gadgets.FIXTURE_NAMES if gadgets.fixture(n).hypergraph
    ])
    def test_every_pair_of_a_fixture(self, name):
        _check_every_pair(gadgets.fixture(name).hypergraph)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 4))
    def test_every_pair_of_a_pasting(self, seed, size):
        _check_every_pair(random_pasting(random.Random(seed), size=size))


class TestLayer:
    def test_counts(self, bug):
        lay = layer(BindSpec(bug, "v1", "v7"))
        assert len(lay.vertices) == 3 * 13 - 3 == 36
        assert len(lay.contexts) == 3 * 7 == 21

    def test_corners_non_adjacent(self, bug):
        lay = layer(BindSpec(bug, "v1", "v7"))
        for u, v in itertools.combinations(("a", "b", "c"), 2):
            assert not lay.adjacent(u, v)

    def test_at_most_one_corner_true(self, bug):
        lay = layer(BindSpec(bug, "v1", "v7"))
        t = states.enumerate_states(lay)
        idx = {v: lay.vertices.index(v) for v in ("a", "b", "c")}
        for u, v in itertools.combinations(("a", "b", "c"), 2):
            assert t.cooc[idx[u]][idx[v]] == 0

    def test_layer_state_counts_by_corner_pattern(self, bug):
        # one corner true pins one copy's head and another's tail
        # (3 * 3 * 8 = 72 continuations); all corners false leaves every copy
        # in its both-ends-false class (8^3 = 512)
        lay = layer(BindSpec(bug, "v1", "v7"))
        t = states.enumerate_states(lay)
        assert t.n_rows == 3 * 72 + 512 == 728
        cols = {v: t.column_int(lay.index[v]) for v in ("a", "b", "c")}
        full = (1 << t.n_rows) - 1
        for corner in ("a", "b", "c"):
            assert cols[corner].bit_count() == 72
        none_true = full
        for corner in ("a", "b", "c"):
            none_true &= full ^ cols[corner]
        assert none_true.bit_count() == 512


class TestBind:
    def test_bug_counts(self, bind_bug):
        assert len(bind_bug.vertices) == 9 * 13 - 9 == 108
        assert len(bind_bug.contexts) == 9 * 7 + 3 == 66

    def test_fig4_counts(self, fig4):
        composed = bind(BindSpec(fig4, "a1", "a11"))
        assert len(composed.vertices) == 9 * 43 - 9 == 378
        assert len(composed.contexts) == 9 * 25 + 3 == 228

    def test_binding_contexts_present(self, bind_bug):
        ctxs = set(bind_bug.contexts)
        assert frozenset({"a", "a'", "a''"}) in ctxs
        assert frozenset({"b", "b'", "b''"}) in ctxs
        assert frozenset({"c", "c'", "c''"}) in ctxs

    def test_corner_triples_not_contexts(self, bind_bug):
        ctxs = set(bind_bug.contexts)
        for triple in gadgets.bind_corners():
            assert frozenset(triple) not in ctxs

    def test_rank_mismatch(self, bug):
        padded = core.build(
            [tuple(sorted(c)) for c in bug.contexts] + [("v2", "x", "y", "z")]
        )
        spec = BindSpec(padded, "v1", "v7")
        with pytest.raises(RankMismatchError):
            bind(spec)

    def test_exactly_one_per_corner_triple(self, bind_bug, bind_bug_matrix):
        # pairwise-disjoint columns whose sums add to the row count can only
        # mean one true vertex per triple in every state
        t = bind_bug_matrix
        idx = {v: bind_bug.vertices.index(v) for v in bind_bug.vertices}
        for triple in gadgets.bind_corners():
            cols = [idx[v] for v in triple]
            for x, y in itertools.combinations(cols, 2):
                assert t.cooc[x][y] == 0
            assert sum(int(t.column_sums[c]) for c in cols) == t.n_rows

    def test_state_count_matches_formula(self, bind_bug, bind_bug_matrix):
        assert bind_bug_matrix.n_rows == predicted_bind_count(3, 3, 8)
        assert states.count_states(bind_bug) == 2239488

    def test_bind_separable(self, bind_bug, bind_bug_matrix):
        c = states.classify(bind_bug, bind_bug_matrix)
        assert c.separable and c.unital
        assert not c.perfectly_separable

    def test_corner_patterns_follow_the_grid(self, bind_bug, bind_bug_matrix):
        # restricted to the nine corners, the binding's states realize exactly
        # the six states of the 3x3 grid fixture, each 72^3 = 373,248 times
        t = bind_bug_matrix
        grid = gadgets.fixture("underlying")
        corner_names = grid.hypergraph.vertices  # a, b, c, a', ..., c''
        cols = {v: t.column_int(bind_bug.index[v]) for v in corner_names}
        full = (1 << t.n_rows) - 1
        observed = {}
        for r in range(grid.travis.n_rows):
            pattern = grid.travis.row_true_set(r)
            mask = full
            for v in corner_names:
                mask &= cols[v] if v in pattern else full ^ cols[v]
            observed[frozenset(pattern)] = mask.bit_count()
        assert set(observed.values()) == {72 ** 3}
        assert sum(observed.values()) == t.n_rows


class TestBindingKeepsSeparability:
    def test_bug_qualifies_and_binding_stays_separable(
        self, bug, bind_bug, bind_bug_matrix
    ):
        t = states.enumerate_states(bug)
        c = states.classify(bug, t)
        scan = states.gadget_scan(bug, t)
        assert c.separable and c.unital
        assert scan.tits_pairs == frozenset()
        assert core.shape(bug).clique_number == 3
        assert states.classify(bind_bug, bind_bug_matrix).separable


class TestPredictedCount:
    def test_values(self):
        assert predicted_bind_count(3, 3, 8) == 2_239_488
        assert predicted_bind_count(45, 504, 2040) == \
            594_252_343_817_330_688_000_000
        assert predicted_bind_count(1, 1, 1) == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            predicted_bind_count(-1, 1, 1)


class TestFig4:
    def test_shape(self, fig4):
        assert len(fig4.vertices) == 43
        assert len(fig4.contexts) == 25

    def test_fixture_file_matches_builder(self, fig4):
        assert build_fig4() == fig4

    def test_orientation_variants_agree(self):
        variants = [
            build_fig4(flip_first=f1, flip_second=f2)
            for f1 in (False, True) for f2 in (False, True)
        ]
        for h in variants:
            t = states.enumerate_states(h)
            assert t.n_rows == 2589
            p = states.gadget_profile(t, "a1", "a11")
            assert (p.n_a, p.n_b, p.n_n) == (45, 504, 2040)
        base = variants[0]
        for other in variants[1:]:
            assert core.is_isomorphic(base, other) is not None

    def test_is_tifs_gadget(self, fig4):
        t = states.enumerate_states(fig4)
        scan = states.gadget_scan(fig4, t)
        assert ("a1", "a11") in scan.tifs_pairs


class TestG32Extension:
    def test_same_state_set(self, g32, g32x):
        assert g32x.vertices == g32.vertices
        t1 = states.enumerate_states(g32)
        t2 = states.enumerate_states(g32x)
        assert t1.rows == t2.rows

    def test_five_more_contexts(self, g32, g32x):
        assert len(g32x.contexts) == len(g32.contexts) + 5
        assert set(g32.contexts) <= set(g32x.contexts)

    def test_extensions_partition_the_state_labels(self, g32, g32x):
        # each vertex is naturally labeled by the set of states that make it
        # true; an extension context is legitimate exactly when its three
        # labels partition the whole state set, which is why the extensions
        # change nothing
        ref = gadgets.fixture("g32").travis
        label = {
            v: frozenset(r for r in range(ref.n_rows) if ref.bit(r, j))
            for j, v in enumerate(ref.vertices)
        }
        everything = frozenset(range(ref.n_rows))
        for ctx in set(g32x.contexts) - set(g32.contexts):
            members = sorted(ctx)
            assert len(members) == 3
            union = frozenset().union(*(label[v] for v in members))
            assert union == everything
            assert sum(len(label[v]) for v in members) == ref.n_rows
