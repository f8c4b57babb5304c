import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ohg import core, formats
from ohg.errors import (
    DuplicateContextError,
    EmptyContextError,
    InvalidVertexNameError,
    SizeLimitError,
    SubsetContextError,
)

from conftest import (
    brute_force_four_cycles,
    brute_force_isomorphic,
    brute_force_two_section_edges,
    chain,
    random_pasting,
    shuffled,
)


class TestBuild:
    def test_single_context(self):
        h = core.build([("a", "b", "c")])
        assert h.vertices == ("a", "b", "c")
        assert h.contexts == (frozenset("abc"),)

    def test_triangle_logic(self):
        h = core.build([("a1", "a2", "a3"), ("a3", "a4", "a5"), ("a5", "a6", "a1")])
        assert len(h.vertices) == 6
        assert len(h.contexts) == 3
        assert h.vertices == ("a1", "a2", "a3", "a4", "a5", "a6")

    def test_subset_context_rejected(self):
        with pytest.raises(SubsetContextError):
            core.build([("a", "b", "c"), ("a", "b")])
        with pytest.raises(SubsetContextError):
            core.build([("a", "b"), ("a", "b", "c")])

    def test_duplicate_context_rejected(self):
        with pytest.raises(DuplicateContextError):
            core.build([("a", "b", "c"), ("c", "b", "a")])

    def test_small_contexts_rejected(self):
        with pytest.raises(EmptyContextError):
            core.build([()])
        with pytest.raises(EmptyContextError):
            core.build([("a",)])
        with pytest.raises(EmptyContextError):
            core.build([])

    def test_bad_names_rejected(self):
        with pytest.raises(InvalidVertexNameError):
            core.build([("a", "b c", "d")])
        with pytest.raises(InvalidVertexNameError):
            core.build([("a", "", "d")])


class TestTwoSection:
    def test_k3(self, k3):
        g = core.two_section(k3)
        assert g.edges == frozenset(
            frozenset(p) for p in itertools.combinations("abc", 2)
        )

    def test_bug_edge_count(self, bug):
        g = core.two_section(bug)
        assert g.edges == brute_force_two_section_edges(bug)
        assert len(g.edges) == 21

    def test_triangle_edge_count(self, triangle):
        g = core.two_section(triangle)
        assert g.edges == brute_force_two_section_edges(triangle)
        assert len(g.edges) == 9

    def test_context_order_irrelevant(self, bug):
        reordered = core.build([tuple(sorted(c)) for c in reversed(bug.contexts)])
        assert core.two_section(bug).edges == core.two_section(reordered).edges


class TestMaximalCliques:
    def test_k3(self, k3):
        g = core.two_section(k3)
        assert core.maximal_cliques(g) == (frozenset("abc"),)

    def test_path(self):
        g = core.Graph(("a", "b", "c"),
                       frozenset({frozenset("ab"), frozenset("bc")}))
        assert set(core.maximal_cliques(g)) == {frozenset("ab"), frozenset("bc")}

    def test_bug_is_conformal(self, bug):
        cliques = core.maximal_cliques(core.two_section(bug))
        assert set(cliques) == set(bug.contexts)

    def test_against_brute_force(self, pentagon, g32):
        for h in (pentagon, g32):
            g = core.two_section(h)
            nbr = {v: set() for v in g.vertices}
            for e in g.edges:
                u, v = tuple(e)
                nbr[u].add(v)
                nbr[v].add(u)
            cliques = set()
            for size in range(2, len(g.vertices) + 1):
                for combo in itertools.combinations(g.vertices, size):
                    if all(y in nbr[x] for x, y in itertools.combinations(combo, 2)):
                        cliques.add(frozenset(combo))
            maximal = {c for c in cliques
                       if not any(c < d for d in cliques)}
            assert set(core.maximal_cliques(g)) == maximal


class TestShape:
    def test_bug(self, bug):
        rep = core.shape(bug)
        assert rep.clique_number == 3
        assert rep.uniform and rep.conformal and rep.completion_ok

    def test_bug_with_short_edge(self, bug):
        contexts = [tuple(sorted(c)) for c in bug.contexts] + [("v1", "v7")]
        rep = core.shape(core.build(contexts))
        assert not rep.completion_ok
        assert not rep.uniform

    def test_g32(self, g32):
        rep = core.shape(g32)
        assert rep.clique_number == 3
        assert rep.uniform
        assert rep.max_degree == 4
        # degree 4 because every vertex sits in exactly two 3-contexts
        for v in g32.vertices:
            assert sum(1 for ctx in g32.contexts if v in ctx) == 2

    def test_completion_iff_equal_sizes(self, k3, triangle, pentagon, bug, g32,
                                        underlying, fig4):
        for h in (k3, triangle, pentagon, bug, g32, underlying, fig4):
            rep = core.shape(h)
            sizes = [len(c) for c in h.contexts]
            assert rep.completion_ok == (min(sizes) == max(sizes))


class TestIsomorphism:
    def test_identity(self, triangle):
        mapping = core.is_isomorphic(triangle, triangle)
        assert mapping is not None

    def test_relabeled(self, triangle):
        relabel = {v: f"x{i}" for i, v in enumerate(triangle.vertices)}
        other = core.build(
            [tuple(relabel[v] for v in sorted(c)) for c in triangle.contexts]
        )
        mapping = core.is_isomorphic(triangle, other)
        assert mapping is not None
        for ctx in triangle.contexts:
            assert frozenset(mapping[v] for v in ctx) in set(other.contexts)

    def test_extra_context_breaks_it(self, bug):
        extended = core.build(
            [tuple(sorted(c)) for c in bug.contexts] + [("v2", "v8", "x")]
        )
        assert core.is_isomorphic(bug, extended) is None

    def test_symmetric_and_context_preserving(self, pentagon, g32, underlying):
        for h in (pentagon, g32, underlying):
            relabel = {v: f"y{i}" for i, v in enumerate(h.vertices)}
            other = core.build(
                [tuple(relabel[v] for v in sorted(c, key=h.index.__getitem__))
                 for c in h.contexts]
            )
            fwd = core.is_isomorphic(h, other)
            back = core.is_isomorphic(other, h)
            assert fwd is not None and back is not None
            for ctx in h.contexts:
                assert frozenset(fwd[v] for v in ctx) in set(other.contexts)

    def test_different_structures(self, triangle, pentagon):
        assert core.is_isomorphic(triangle, pentagon) is None

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from((2, 3)),
           swap=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_verdict_vs_brute_force(self, seed, size, swap):
        rng = random.Random(seed)
        h = random_pasting(rng, max_vertices=7, size=size)
        g = shuffled(h, rng, swap)
        found = core.is_isomorphic(h, g)
        assert (found is not None) == brute_force_isomorphic(h, g)

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from((2, 3, 4)),
           swap=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_mapping_carries_contexts(self, seed, size, swap):
        rng = random.Random(seed)
        h = random_pasting(rng, max_contexts=8, max_vertices=14, size=size)
        g = shuffled(h, rng, swap)
        mapping = core.is_isomorphic(h, g)
        if mapping is not None:
            assert sorted(mapping) == sorted(h.vertices)
            assert sorted(mapping.values()) == sorted(g.vertices)
            assert {frozenset(mapping[v] for v in c) for c in h.contexts} \
                == set(g.contexts)
        if not swap:
            assert mapping is not None

    def test_bind_fig4_shuffled(self, bind_fig4):
        g = shuffled(bind_fig4, random.Random(1))
        mapping = core.is_isomorphic(bind_fig4, g)
        assert {frozenset(mapping[v] for v in c) for c in bind_fig4.contexts} \
            == set(g.contexts)

    def test_deeper_than_the_recursion_limit(self):
        # 1,201 vertices: one recursion level per vertex could not return
        h = formats.parse_ohg(chain(600))
        g = shuffled(h, random.Random(1))
        mapping = core.is_isomorphic(h, g)
        assert {frozenset(mapping[v] for v in c) for c in h.contexts} \
            == set(g.contexts)

    def test_dead_end_budget(self, monkeypatch):
        # two strongly regular graphs with the same parameters (16, 6, 2, 2),
        # as 48 two-vertex contexts each: every vertex has one signature, so
        # only the search tells them apart
        def cayley(steps):
            edges = {tuple(sorted((f"x{a}{b}", f"x{(a + d) % 4}{(b + e) % 4}")))
                     for a in range(4) for b in range(4) for d, e in steps}
            return core.build(sorted(edges))

        rook = cayley([(0, 1), (0, 2), (1, 0), (2, 0)])
        shrikhande = cayley([(0, 1), (1, 0), (1, 1)])
        assert len(rook.contexts) == len(shrikhande.contexts) == 48
        assert {m.bit_count() for m in rook.neighbor_masks} \
            == {m.bit_count() for m in shrikhande.neighbor_masks} == {6}
        assert core.is_isomorphic(rook, shrikhande) is None
        monkeypatch.setattr(core, "_ISO_DEAD_ENDS", 10)
        with pytest.raises(SizeLimitError, match="after 10 dead ends"):
            core.is_isomorphic(rook, shrikhande)


class TestFourCycleLint:
    def test_bug_clean(self, bug):
        assert core.four_cycle_lint(bug) == brute_force_four_cycles(bug) == []

    def test_bug_with_chord_flagged(self, bug):
        chorded = core.build(
            [tuple(sorted(c)) for c in bug.contexts] + [("v1", "v7", "x")]
        )
        cycles = core.four_cycle_lint(chorded)
        assert cycles
        assert cycles == brute_force_four_cycles(chorded)
        for cyc in cycles:
            assert len(set(cyc.contexts)) == 4
            assert len(set(cyc.vertices)) == 4

    def test_single_context(self, k3):
        assert core.four_cycle_lint(k3) == []

    def test_matches_oracle_on_fixtures(self, triangle, pentagon, g32, g32x,
                                        underlying, fig4, bind_bug):
        for h in (triangle, pentagon, g32, g32x, underlying, fig4, bind_bug):
            assert core.four_cycle_lint(h) == brute_force_four_cycles(h)

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from((2, 3, 4)),
           pasting=st.booleans())
    @settings(max_examples=160, deadline=None)
    def test_matches_oracle_on_draws(self, seed, size, pasting):
        # a pasting's contexts share at most one vertex; contexts drawn over
        # a few vertices often share two or more
        rng = random.Random(seed)
        if pasting:
            h = random_pasting(rng, max_contexts=12, max_vertices=24, size=size)
        else:
            pool = [f"p{i}" for i in range(rng.randint(5, 10))]
            contexts = [rng.sample(pool, rng.randint(2, 4))
                        for _ in range(rng.randint(4, 9))]
            try:
                h = core.build(contexts)
            except (DuplicateContextError, SubsetContextError):
                assume(False)
        assert core.four_cycle_lint(h) == brute_force_four_cycles(h)
