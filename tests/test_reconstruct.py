import itertools
import random
from functools import reduce
from operator import or_

import pytest

from ohg import core, gadgets, states
from ohg.errors import AllZeroColumnError, SizeLimitError
from ohg.pairwise import cotruth
from ohg.reconstruction import (
    adjacency_from_states,
    evaluate,
    reconstruct,
    travis_equivalent,
    verdict,
)

from conftest import random_pasting

# two contexts sharing two vertices force the two tips to behave identically
NON_SEPARABLE = [("a", "b", "c"), ("a", "b", "d")]


def shuffled_copy(t: states.TravisMatrix, rng: random.Random) -> states.TravisMatrix:
    rows = [list(t.row_bits(r)) for r in range(t.n_rows)]
    col_perm = list(range(t.n_cols))
    rng.shuffle(col_perm)
    rows = [[row[col_perm.index(j)] for j in range(t.n_cols)] for row in rows]
    rng.shuffle(rows)
    names = [f"c{j}" for j in range(t.n_cols)]
    return states.TravisMatrix.from_bit_rows(names, rows)


class TestAdjacency:
    def test_triangle_recovers_two_section(self, triangle):
        t = states.enumerate_states(triangle)
        g = adjacency_from_states(t)
        assert g.edges == core.two_section(triangle).edges

    def test_bug_gains_terminal_edge(self, bug):
        t = states.enumerate_states(bug)
        g = adjacency_from_states(t)
        expected = set(core.two_section(bug).edges) | {frozenset(("v1", "v7"))}
        assert set(g.edges) == expected

    def test_all_zero_column(self):
        t = states.TravisMatrix.from_bit_rows(("a", "b", "c"), [(1, 0, 0)])
        with pytest.raises(AllZeroColumnError):
            adjacency_from_states(t)

    def test_superset_of_two_section(self, pentagon, g32, underlying):
        for h in (pentagon, g32, underlying):
            g = adjacency_from_states(states.enumerate_states(h))
            assert set(g.edges) >= set(core.two_section(h).edges)

    @pytest.mark.parametrize("name", [*gadgets.FIXTURE_NAMES, "bind_bug",
                                      *(f"pasting-{seed}" for seed in range(20))])
    def test_graphs_keep_their_masks(self, request, name):
        # every graph the package builds holds the masks it was built from,
        # and they are the masks of its edges
        if name == "bind_bug":
            h, t = map(request.getfixturevalue, ("bind_bug", "bind_bug_matrix"))
        elif name.startswith("pasting-"):
            seed = int(name.split("-")[1])
            h = random_pasting(random.Random(seed), size=3 + seed % 2)
            t = states.enumerate_states(h)
        else:
            h, t = gadgets.fixture(name).hypergraph, gadgets.fixture(name).travis
            t = t or states.enumerate_states(h)
        graphs = [] if h is None else [core.two_section(h)]
        # a never-true column is refused (test_all_zero_column)
        if reduce(or_, t.rows, 0) == (1 << t.n_cols) - 1:
            graphs.append(adjacency_from_states(t))
            if h is not None:
                graphs.append(adjacency_from_states(cotruth(h)))
                rec = evaluate(h)[1]
                graphs += [rec.raw_graph] if rec else []
        assert graphs
        for g in graphs:
            assert "neighbor_masks" in vars(g)
            assert g.neighbor_masks == \
                core.Hypergraph(g.vertices, tuple(g.edges)).neighbor_masks


class TestReconstruct:
    def test_bug(self, bug):
        t = states.enumerate_states(bug)
        rec = reconstruct(t, 3, source=bug)
        assert frozenset(("v1", "v7")) in set(rec.raw_hypergraph.contexts)
        assert set(rec.filtered_hypergraph.contexts) == set(bug.contexts)
        assert rec.extra_contexts == ()
        assert rec.missing_contexts == ()

    def test_pentagon_exact(self, pentagon):
        t = states.enumerate_states(pentagon)
        rec = reconstruct(t, 3, source=pentagon)
        assert set(rec.filtered_hypergraph.contexts) == set(pentagon.contexts)
        assert set(rec.raw_hypergraph.contexts) == set(pentagon.contexts)

    def test_requires_n_at_least_3(self, bug):
        t = states.enumerate_states(bug)
        with pytest.raises(Exception):
            reconstruct(t, 2)

    def test_filtered_subset_of_raw(self, pentagon, g32):
        for h in (pentagon, g32):
            rec = reconstruct(states.enumerate_states(h), 3, source=h)
            assert set(rec.filtered_hypergraph.contexts) <= set(
                rec.raw_hypergraph.contexts
            )


class TestTravisEquivalent:
    def test_self(self, triangle):
        t = states.enumerate_states(triangle)
        witness = travis_equivalent(t, t)
        assert witness is not None
        row_map, col_map = witness
        assert sorted(row_map) == list(range(t.n_rows))
        assert sorted(col_map) == list(range(t.n_cols))

    @pytest.mark.parametrize("name", ["triangle", "pentagon", "bug", "g32",
                                      "underlying", "ghz"])
    def test_shuffles_recovered(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        ref = gadgets.fixture(name).travis
        other = shuffled_copy(ref, rng)
        witness = travis_equivalent(ref, other)
        assert witness is not None
        row_map, col_map = witness
        for r in range(ref.n_rows):
            for c in range(ref.n_cols):
                assert ref.bit(r, c) == other.bit(row_map[r], col_map[c])

    def test_different_shapes(self, triangle, pentagon):
        t1 = states.enumerate_states(triangle)
        t2 = states.enumerate_states(pentagon)
        assert travis_equivalent(t1, t2) is None

    def test_flipped_bit_breaks_equivalence(self):
        ref = gadgets.fixture("bug").travis
        rows = [list(ref.row_bits(r)) for r in range(ref.n_rows)]
        rows[5][0] ^= 1
        broken = states.TravisMatrix.from_bit_rows(ref.vertices, rows)
        assert travis_equivalent(ref, broken) is None

    def test_same_column_invariants_not_equivalent(self):
        # equal co-truth counts (every column sum 2, every pair true together
        # once) and different row weights
        t1 = states.TravisMatrix.from_bit_rows("abc", [(1, 1, 0), (1, 0, 1), (0, 1, 1),
                                                        (0, 0, 0)])
        t2 = states.TravisMatrix.from_bit_rows("abc", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                                        (1, 1, 1)])
        assert t1.cooc == t2.cooc == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
        assert travis_equivalent(t1, t2) is None

    def test_against_brute_force(self):
        # random distinct rows of 0-5 columns, all-zero and single-1 rows
        # included, against a search over every column permutation
        for seed in range(300):
            rng = random.Random(f"travis:{seed}")
            k = rng.randrange(6)
            pool = range(1 << k)
            t1 = states.TravisMatrix(tuple("abcde"[:k]),
                                     tuple(rng.sample(pool, rng.randint(1, len(pool)))))
            t2 = shuffled_copy(t1, rng)
            unused = sorted(set(pool) - set(t2.rows))
            if unused and rng.random() < 0.5:
                # a near miss: one row swapped for a row the table lacks
                rows = list(t2.rows)
                rows[rng.randrange(len(rows))] = rng.choice(unused)
                t2 = states.TravisMatrix(t2.vertices, tuple(rows))
            brute = any(
                {sum(t1.bit(r, c) << k - 1 - perm[c] for c in range(k))
                 for r in range(t1.n_rows)} == set(t2.rows)
                for perm in itertools.permutations(range(k)))
            witness = travis_equivalent(t1, t2)
            assert (witness is not None) == brute, seed
            if witness is not None:
                row_map, col_map = witness
                assert sorted(row_map) == list(range(t1.n_rows))
                assert sorted(col_map) == list(range(k))
                for r in range(t1.n_rows):
                    for c in range(k):
                        assert t1.bit(r, c) == t2.bit(row_map[r], col_map[c]), seed

    def test_all_zero_row(self):
        # the empty true set of an all-zero row changes no column, so only
        # the row count tells these apart
        t = states.TravisMatrix.from_bit_rows("ab", [(1, 0), (0, 1), (0, 0)])
        without = states.TravisMatrix.from_bit_rows("ab", [(1, 0), (0, 1)])
        assert travis_equivalent(t, without) is None
        assert travis_equivalent(t, t) is not None

    def test_size_limit(self, bind_bug_matrix):
        with pytest.raises(SizeLimitError):
            travis_equivalent(bind_bug_matrix, bind_bug_matrix)


class TestVerdict:
    def test_pentagon_reconstructable(self, pentagon):
        assert verdict(pentagon).kind == "reconstructable"

    def test_bug_reconstructable(self, bug):
        assert verdict(bug).kind == "reconstructable"

    def test_non_separable(self):
        h = core.build(NON_SEPARABLE)
        v = verdict(h)
        assert v.kind == "non_separable"
        assert v.witness == ("c", "d")

    def test_empty(self):
        h = core.build([("a", "b"), ("b", "c"), ("a", "c")])
        assert verdict(h).kind == "empty"

    def test_bind_bug_extra_structure(self, bind_bug):
        v = verdict(bind_bug)
        assert v.kind == "extra_structure"
        corners = {frozenset(c) for c in gadgets.bind_corners()}
        assert set(v.extra_contexts) == corners

    def test_g32_reconstructs_to_its_extension(self, g32, g32x):
        # the surplus contexts the state table reveals are exactly the five
        # extension contexts, so the reconstruction closure of g32 is g32x
        v = verdict(g32)
        assert v.kind == "extra_structure"
        assert set(v.extra_contexts) == set(g32x.contexts) - set(g32.contexts)

    def test_g32x_is_reconstructable(self, g32x):
        t = states.enumerate_states(g32x)
        assert states.classify(g32x, t).perfectly_separable
        assert verdict(g32x).kind == "reconstructable"

    def test_triangle_corner_clique_blocks_it(self, triangle):
        v = verdict(triangle)
        assert v.kind == "extra_structure"
        assert set(v.extra_contexts) == {frozenset({"a1", "a3", "a5"})}

    def test_fig4_reconstructable(self, fig4):
        # both terminal edges the adjacency criterion adds are 2-cliques,
        # which the completion filter drops
        assert verdict(fig4).kind == "reconstructable"


class TestReconstructionEquivalence:
    """Perfect separability if and only if the filtered reconstruction is the
    source, checked on fixtures and a batch of random pastings; and the
    verdict, which compares the reconstruction with the source, agrees with
    an isomorphism test between the two."""

    def check(self, h):
        t = states.enumerate_states(h)
        c = states.classify(h, t) if t.n_rows else None
        for n in (None, 3, 4, 5):
            if c is None:
                assert verdict(h, n=n).kind == "empty"
                continue
            if not c.unital:
                # a never-true column either coincides with another column
                # (non-separable) or trips the adjacency criterion's guard
                if c.separable:
                    with pytest.raises(AllZeroColumnError):
                        verdict(h, n=n)
                else:
                    assert verdict(h, n=n).kind == "non_separable"
                continue
            v = verdict(h, n=n)
            # the verdict's column-coincidence check agrees with classify's
            assert (v.kind == "non_separable") == (not c.separable)
            if v.kind == "non_separable":
                continue
            rec = reconstruct(t, n or core.shape(h).clique_number, source=h)
            assert (v.kind == "reconstructable") == (
                core.is_isomorphic(h, rec.filtered_hypergraph) is not None)
            if c.perfectly_separable and n is None:
                assert v.kind == "reconstructable"
            if v.kind == "reconstructable":
                filtered_something = set(rec.raw_hypergraph.contexts) != set(
                    rec.filtered_hypergraph.contexts
                )
                if not filtered_something:
                    assert c.perfectly_separable

    def test_fixtures(self):
        for name in ("triangle", "pentagon", "bug", "g32", "g32x",
                     "underlying", "fig4"):
            self.check(gadgets.fixture(name).hypergraph)

    def test_random_pastings(self):
        # three-vertex contexts, then wider ones; two-vertex pastings end
        # before the reconstruction, as two contexts sharing a vertex leave
        # its partners equal columns
        rng = random.Random(424242)
        for size, count in ((3, 60), (2, 10), (4, 20), (5, 20)):
            for _ in range(count):
                self.check(random_pasting(rng, size=size))
