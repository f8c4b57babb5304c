import hashlib
import random
import re
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohg import core, engine, formats, gadgets, reconstruction, states
from ohg.errors import (
    AllZeroColumnError,
    ColumnCountMismatchError,
    NotAGadgetPairError,
    OhgError,
    RowLimitExceededError,
)

from conftest import (
    assert_states_lawful,
    brute_force_true_sets,
    chain,
    chain_count,
    child_options,
    deep_trace,
    engine_true_sets,
    random_pasting,
    random_rows,
)

# the 3-cycle of 2-element contexts admits no two-valued state at all
CONTRADICTORY = [("a", "b"), ("b", "c"), ("a", "c")]

# sha256 of repr(engine.search(h)), recorded with the recursive search
TRACE_SHA256 = {
    "k3":
        "a434e72a9f65ed4b44bb741b41ca703024ebe30560fc8000a80f61d73b31c507",
    "triangle":
        "4ddd2e449b7b623079756eef35579383895650fe7dd3e842124ea55909cc8a90",
    "pentagon":
        "707406f05541c3c7f56336530cf0a6c5b7485269a75c49d6caa85cc6f4f46264",
    "bug":
        "379ae323d33280360c2d25ff602ce9eceee48fb730ed2d62f6c52c146eb08b0e",
    "g32":
        "7ecbc2f44b7c937f2c5a60f481148ca8d9e8eb3c5d90fa1b5a19cd508f276fbb",
    "g32x":
        "7ecbc2f44b7c937f2c5a60f481148ca8d9e8eb3c5d90fa1b5a19cd508f276fbb",
    "underlying":
        "9a6008400f995e780edd7cbe4b6b54519fd18b94c4f2507b29c6e6aa3f93dda2",
    "fig4":
        "2cac35a90e9b745a4b6b662bd119fdc6956c16638acb05aa518fbe3422db4702",
    "layer(bug)":
        "18b02834d2bdb1566fb22b10a7239b17b488148bdae578a137304ff9941502d1",
    "bind(bug)":
        "d5dbf5df362ae25041ea5a7d3b85bc47b391c51d4e833ae0b25d2128834397be",
    "bind(fig4)":
        "84a1fc55140f7882d771b11d7a15120e637284dd171a5a8513a842a07c7d162b",
    "bind(bug) scramble 0":
        "eb7231be1a2d079ab60c961a1f8c3dbd3b82093ec9332a05fb3bb2140b3f3696",
    "bind(bug) scramble 1":
        "9542e339d6fdfdc6d8b3284b0f0433b75b7a3cfe26a790b816d52b7e8b106d0f",
    "bind(bug) scramble 2":
        "5e02ce359f4e628a4093f0b847dcadcbb4623742a350999a6a449e36d399fe50",
}


class TestEnumerate:
    def test_k3(self, k3):
        t = states.enumerate_states(k3)
        assert [t.row_bits(r) for r in range(3)] == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1)
        ]

    def test_triangle_matches_reference(self, triangle):
        t = states.enumerate_states(triangle)
        ref = gadgets.fixture("triangle").travis
        assert t.n_rows == 4
        assert sorted(t.rows) == sorted(ref.rows)

    @pytest.mark.parametrize("name,count", [
        ("triangle", 4), ("pentagon", 11), ("bug", 14),
        ("g32", 6), ("g32x", 6), ("underlying", 6), ("fig4", 2589),
    ])
    def test_fixture_state_counts(self, name, count):
        h = gadgets.fixture(name).hypergraph
        t = states.enumerate_states(h)
        assert t.n_rows == count
        assert_states_lawful(h, t)

    def test_canonical_row_order(self, triangle):
        t = states.enumerate_states(triangle)
        assert list(t.rows) == sorted(t.rows, reverse=True)
        # descending binary reading: 100100 > 010101 > 010010 > 001001
        assert [t.row_bits(r) for r in range(4)] == [
            (1, 0, 0, 1, 0, 0),
            (0, 1, 0, 1, 0, 1),
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 1),
        ]

    def test_bind_bug_rows_pinned(self, bind_bug_matrix):
        # sha256 of the canonical rows, each as 14 big-endian bytes, taken
        # from the enumerator before it ran on the shared search loop
        t = bind_bug_matrix
        nbytes = (t.n_cols + 7) // 8
        digest = hashlib.sha256(b"".join(r.to_bytes(nbytes, "big") for r in t.rows))
        assert (t.n_rows, t.n_cols) == (2239488, 108)
        assert digest.hexdigest() == (
            "29a630e1b1a01b8575478dd207a5ad2d4a15366dd441a98f698955706ade31b7")

    def test_contradictory_hypergraph_empty(self):
        h = core.build(CONTRADICTORY)
        t = states.enumerate_states(h)
        assert t.n_rows == 0

    def test_count_invariant_under_reordering(self, pentagon):
        rng = random.Random(7)
        base = states.enumerate_states(pentagon).n_rows
        for _ in range(5):
            ctxs = [sorted(c) for c in pentagon.contexts]
            rng.shuffle(ctxs)
            for c in ctxs:
                rng.shuffle(c)
            h = core.build([tuple(c) for c in ctxs])
            assert states.enumerate_states(h).n_rows == base

    def test_row_limit(self, bug):
        with pytest.raises(RowLimitExceededError):
            states.enumerate_states(bug, row_limit=5)
        t = states.enumerate_states(bug, row_limit=14)
        assert t.n_rows == 14

    def test_count_states_matches(self, bug, pentagon):
        for h in (bug, pentagon):
            assert states.count_states(h) == states.enumerate_states(h).n_rows

    def test_count_states_parallel(self, bug):
        seen = []
        assert states.count_states(bug, progress=seen.append) == 14
        assert seen[-1] == 14

    def test_engine_vs_brute_force_fixtures(self):
        for name in ("k3", "triangle", "pentagon", "bug", "g32", "g32x",
                     "underlying"):
            h = gadgets.fixture(name).hypergraph
            t = states.enumerate_states(h)
            assert engine_true_sets(t) == brute_force_true_sets(h)

    def test_engine_vs_brute_force_random(self):
        rng = random.Random(2024)
        for _ in range(25):
            h = random_pasting(rng)
            t = states.enumerate_states(h)
            assert engine_true_sets(t) == brute_force_true_sets(h)
            assert_states_lawful(h, t)

    def test_engine_vs_brute_force_contradictory(self):
        h = core.build(CONTRADICTORY)
        assert brute_force_true_sets(h) == set()

    def test_two_element_context_chain(self):
        # propagation alone settles the chain once the first context branches
        h = core.build([("a", "b"), ("b", "c")])
        t = states.enumerate_states(h)
        assert engine_true_sets(t) == {frozenset("ac"), frozenset("b")}
        assert engine_true_sets(t) == brute_force_true_sets(h)

    def test_progress_callback(self, k3):
        seen = []
        total = states.count_states(k3, progress=seen.append)
        assert total == 3
        assert seen[-1] == 3
        assert seen == sorted(seen)


def _pastings(rng: random.Random, n: int):
    """``n`` random pastings with contexts of 2 to 5 vertices; every other
    one is the disjoint union of two, so the search's root has two or more
    independent parts."""
    def one() -> core.Hypergraph:
        return random_pasting(rng, max_contexts=4, size=rng.randint(2, 5))

    for i in range(n):
        h = one()
        if i % 2:
            g = one()
            h = core.build([sorted(c, key=h.index.get) for c in h.contexts]
                           + [["u" + v for v in sorted(c, key=g.index.get)]
                              for c in g.contexts])
        yield h


def _check_trace(order: states.CanonicalRows) -> None:
    """The trace is one list of parts, each after the parts below it, and
    the root's one-node part last, empty exactly when there is no state."""
    trace = order._trace
    for p, part in enumerate(trace):
        assert all(q < p for _, subs in part for q in subs)
    assert len(trace[-1]) == (1 if order.nts else 0)


def _check_canonical(h: core.Hypergraph) -> None:
    t = states.enumerate_states(h)
    order = states.CanonicalRows(h)
    assert order.nts == t.n_rows
    _check_trace(order)
    if not t.n_rows:
        return
    assert order.first() == t.rows[0]
    assert [order.rank(r) for r in t.rows] == list(range(1, t.n_rows + 1))
    for r in {t.rows[0], t.rows[-1]}:
        assert order.disjoint(r) == [s for s in t.rows if not s & r]


class TestCanonicalRows:
    """Row 1, ranks and the states disjoint from a row, from prefix counts
    over one trace of the search, against the canonical table."""

    @pytest.mark.parametrize("name", ["k3", "triangle", "pentagon", "bug",
                                      "g32", "g32x", "underlying", "fig4"])
    def test_fixtures(self, name):
        _check_canonical(gadgets.fixture(name).hypergraph)

    def test_random_pastings(self):
        rng = random.Random(2025)
        for size in (2, 3, 4, 5) * 6:
            _check_canonical(random_pasting(rng, size=size))
        for h in _pastings(rng, 24):
            _check_canonical(h)

    def test_contradictory(self):
        order = states.CanonicalRows(core.build(CONTRADICTORY))
        assert order.nts == 0 and order.count(1, 0) == 0
        _check_trace(order)

    def test_counts_match_table(self, bug):
        # true on one random set of vertices and false on another, adjacent
        # and overlapping sets included; on pastings, also the states
        # disjoint from random rows, which need not be states
        rng = random.Random(5)
        for h, tries in [(bug, 300), *((h, 30) for h in _pastings(rng, 24))]:
            t = states.enumerate_states(h)
            order = states.CanonicalRows(h)
            sets = [t.row_true_set(r) for r in range(t.n_rows)]

            def mask(vs):
                return sum(1 << h.index[v] for v in vs)

            for _ in range(tries):
                ones = set(rng.sample(h.vertices, rng.randint(0, 3)))
                zeros = set(rng.sample(h.vertices, rng.randint(0, 5)))
                want = sum(ones <= s and not zeros & s for s in sets)
                assert order.count(mask(ones), mask(zeros)) == want
            if h is not bug:
                for row in random_rows(rng, t.n_cols, 5):
                    assert order.disjoint(row) == [r for r in t.rows
                                                   if not r & row]

    def test_bind_bug(self, bind_bug, bind_bug_matrix):
        t = bind_bug_matrix
        order = states.CanonicalRows(bind_bug)
        assert order.nts == t.n_rows
        _check_trace(order)
        assert order.first() == t.rows[0]
        rng = random.Random(3)
        picks = {0, 1, 1231087, 2234303, t.n_rows - 1,
                 *rng.sample(range(t.n_rows), 20)}
        assert all(order.rank(t.rows[i]) == i + 1 for i in picks)
        assert order.disjoint(t.rows[0]) == [r for r in t.rows
                                             if not r & t.rows[0]]


_DEEP_CHILD = """
import sys
from ohg import formats, states
from ohg.coloring import CanonicalRows

h = formats.parse_ohg(sys.stdin.read())

def answers():
    order = CanonicalRows(h)
    return states.enumerate_states(h).rows, order.disjoint(order.first())

rows, disjoint = answers()
sys.setrecursionlimit(100)
print(answers() == (rows, disjoint), len(rows),
      disjoint == [r for r in rows if not r & rows[0]])
"""


class TestCount:
    """Counts from the component-cached counter."""

    def test_count_vs_brute_force_random(self):
        rng = random.Random(2024)
        for _ in range(25):
            h = random_pasting(rng)
            assert states.count_states(h) == len(brute_force_true_sets(h))

    def test_count_vs_brute_force_contradictory(self):
        h = core.build(CONTRADICTORY)
        assert states.count_states(h) == len(brute_force_true_sets(h)) == 0

    def test_count_invariant_under_shuffles(self, bind_bug):
        # fixed context-and-member shuffles; without the component cache
        # some of them took more than a second
        for seed in range(4):
            rng = random.Random(seed)
            ctxs = [sorted(c) for c in bind_bug.contexts]
            rng.shuffle(ctxs)
            for c in ctxs:
                rng.shuffle(c)
            h = core.build([tuple(c) for c in ctxs])
            start = time.perf_counter()
            assert states.count_states(h) == 2239488, seed
            elapsed = time.perf_counter() - start
            assert elapsed <= 1.0, f"shuffle {seed} took {elapsed:.2f}s"

    def test_progress_running_totals(self, bind_bug):
        # the root is branched as a whole, one total per vertex of its
        # branching context
        seen = []
        assert states.count_states(bind_bug, progress=seen.append) == 2239488
        assert seen == [746496, 1461888, 2239488]

    def test_long_chains(self):
        # a chain nests the search once per context, 1,000 contexts far
        # past Python's recursion limit
        h = formats.parse_ohg(chain(1000))
        assert states.count_states(h) == chain_count(1000)
        assert states.cotruth(formats.parse_ohg(chain(600))).nts == chain_count(600)

    def test_deep_trace_under_a_low_recursion_limit(self):
        # the rows' walk nests once per level of the trace, here about 150
        # levels: the table and the rows disjoint from row 1 come out the
        # same under a recursion limit of 100
        result = subprocess.run(
            [sys.executable, "-c", _DEEP_CHILD], input=deep_trace(300),
            capture_output=True, text=True, timeout=120, **child_options(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True 304 True\n"

    def test_memo_shares_equal_components(self, bind_bug, bind_fig4):
        # a component met again in another branch is one part of the trace;
        # a memo key that told equal components apart would grow the trace
        # without changing any count or row
        assert len(engine.search(bind_bug)) <= 112
        assert len(engine.search(bind_fig4)) <= 442

    def test_traces_are_pinned(self, bind_bug, bind_fig4):
        # the trace part for part, not only its counts: the rows, the
        # co-truth counts and the progress totals are all read off it
        bug = gadgets.fixture("bug").hypergraph
        inputs = {name: gadgets.fixture(name).hypergraph
                  for name in gadgets.FIXTURE_NAMES if name != "ghz"}
        inputs["layer(bug)"] = gadgets.layer(gadgets.BindSpec(bug, "v1", "v7"))
        inputs["bind(bug)"] = bind_bug
        inputs["bind(fig4)"] = bind_fig4
        for k in range(3):
            rng = random.Random(f"scramble:{k}")
            ctxs = [sorted(c) for c in bind_bug.contexts]
            rng.shuffle(ctxs)
            for c in ctxs:
                rng.shuffle(c)
            inputs[f"bind(bug) scramble {k}"] = core.build(ctxs)
        digests = {name: hashlib.sha256(repr(engine.search(h)).encode()).hexdigest()
                   for name, h in inputs.items()}
        assert digests == TRACE_SHA256


def _same_counts(c: states.CoTruth, t: states.TravisMatrix) -> None:
    assert c.vertices == t.vertices
    assert c.nts == t.n_rows
    assert type(c.cooc) is tuple and all(type(row) is tuple for row in c.cooc)
    k = len(c.vertices)
    assert len(c.cooc) == len(t.cooc) == k
    assert all(len(row) == k for row in c.cooc)
    assert c.cooc == t.cooc


def _relabel(h: core.Hypergraph, names, order) -> tuple[core.Hypergraph, dict]:
    """``h`` with vertex ``i`` renamed ``w<names[i]>``, its contexts in
    ``order`` and each context's members sorted by new name, so the column
    order changes too."""
    rename = {v: f"w{names[i]}" for i, v in enumerate(h.vertices)}
    ctxs = [sorted((rename[v] for v in h.contexts[c]), key=lambda w: int(w[1:]))
            for c in order]
    return core.build(ctxs), rename


@st.composite
def relabelled(draw):
    if draw(st.booleans()):
        h = gadgets.fixture(draw(st.sampled_from(
            ("k3", "triangle", "pentagon", "bug", "g32", "g32x", "underlying",
             "fig4")))).hypergraph
    else:
        h = random_pasting(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    names = draw(st.permutations(range(len(h.vertices))))
    order = draw(st.permutations(range(len(h.contexts))))
    return (h, *_relabel(h, names, order))


class TestCoTruth:
    """Co-truth counts from the counter against the enumerated table."""

    @pytest.mark.parametrize("name", [
        n for n in gadgets.FIXTURE_NAMES if gadgets.fixture(n).hypergraph
    ])
    def test_matches_table_fixtures(self, name):
        h = gadgets.fixture(name).hypergraph
        _same_counts(states.cotruth(h), states.enumerate_states(h))

    def test_matches_table_bind_bug(self, bind_bug, bind_bug_matrix):
        c = states.cotruth(bind_bug)
        _same_counts(c, bind_bug_matrix)
        assert all(type(x) is int for row in c.cooc for x in row)

    def test_matches_table_random(self):
        rng = random.Random(2024)
        for _ in range(25):
            h = random_pasting(rng)
            _same_counts(states.cotruth(h), states.enumerate_states(h))
        for h in _pastings(rng, 24):
            _same_counts(states.cotruth(h), states.enumerate_states(h))

    def test_contradictory(self):
        h = core.build(CONTRADICTORY)
        c = states.cotruth(h)
        assert c.nts == 0
        assert not any(map(any, c.cooc))
        _same_counts(c, states.enumerate_states(h))

    def test_compared_by_identity(self, bug):
        c = states.cotruth(bug)
        assert c == c and c != states.cotruth(bug) and hash(c) == hash(c)

    def test_fig4_profile(self, fig4):
        p = states.gadget_profile(states.cotruth(fig4), "a1", "a11")
        assert (p.n_a, p.n_b, p.n_n) == (45, 504, 2040)

    def test_analyses_agree_with_table(self, bug, pentagon, g32):
        rng = random.Random(36)
        pastings = [random_pasting(rng, size=rng.randint(2, 4)) for _ in range(40)]
        for h in (bug, pentagon, g32, *pastings):
            c, t = states.cotruth(h), states.enumerate_states(h)
            assert states.classify(h, c) == states.classify(h, t)
            if t.n_rows:
                assert states.gadget_scan(h, c) == states.gadget_scan(h, t)

    @given(relabelled())
    @settings(max_examples=40, deadline=None)
    def test_relabelling_invariance(self, case):
        h, h2, rename = case
        assert states.count_states(h2) == states.count_states(h)
        c, c2 = states.cotruth(h), states.cotruth(h2)
        assert c2.nts == c.nts
        cols = [h2.index[rename[v]] for v in h.vertices]
        assert tuple(tuple(c2.cooc[a][b] for b in cols) for a in cols) == c.cooc
        renamed = {frozenset(rename[v] for v in s)
                   for s in engine_true_sets(states.enumerate_states(h))}
        assert engine_true_sets(states.enumerate_states(h2)) == renamed


def _check_table_counts(k: int, n: int, fill: str, rng: random.Random) -> None:
    rows = {"mixed": random_rows(rng, k, n), "zeros": (0,) * n,
            "ones": ((1 << k) - 1,) * n}[fill]
    t = states.TravisMatrix(tuple(f"c{j}" for j in range(k)), rows)
    bits = [t.row_bits(r) for r in range(n)]
    # numpy as the oracle: a float64 product is exact below 2**53
    a = np.array(bits, dtype=np.float64).reshape(n, k)
    want = tuple(tuple(int(x) for x in row) for row in (a.T @ a).tolist())
    assert t.cooc == want
    assert all(type(x) is int for row in t.cooc for x in row)
    assert t.column_sums == tuple(sum(b[j] for b in bits) for j in range(k))
    for j in {0, k - 1, rng.randrange(k)}:
        assert t.column_int(j) == sum(b[j] << r for r, b in enumerate(bits))


class TestTableCounts:
    """``TravisMatrix.cooc``, ``column_sums`` and ``column_int`` against the
    rows read one at a time, on row counts around the block size B: with B
    patched down for tables up to 200 columns wide, and at the real B for a
    narrow table."""

    @settings(max_examples=40, deadline=None, report_multiple_bugs=False)
    @given(
        k=st.one_of(st.sampled_from([1, 8, 64, 108, 200]), st.integers(1, 200)),
        block=st.sampled_from([8, 13, 1000]),
        edge=st.sampled_from([None, -1, 0, 1]),
        small=st.one_of(st.sampled_from([0, 1]), st.integers(0, 80)),
        fill=st.sampled_from(["mixed", "zeros", "ones"]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_counts_match_rows(self, k, block, edge, small, fill, seed):
        n = small if edge is None else block + edge
        with mock.patch.object(states, "_COOC_BLOCK", block):
            _check_table_counts(k, n, fill, random.Random(seed))

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_counts_at_block_size(self, edge):
        _check_table_counts(20, states._COOC_BLOCK + edge, "mixed",
                            random.Random(edge))


class TestClassify:
    def test_bug(self, bug):
        t = states.enumerate_states(bug)
        c = states.classify(bug, t)
        assert c.nts == 14
        assert c.unital and c.separable
        assert not c.perfectly_separable
        assert c.fail_witness == ("v1", "v7", 3)

    def test_pentagon_perfectly_separable(self, pentagon):
        t = states.enumerate_states(pentagon)
        c = states.classify(pentagon, t)
        assert c.perfectly_separable and c.separable and c.unital
        assert c.fail_witness is None
        # oracle: check all three conditions for every pair directly
        rows = [t.row_true_set(r) for r in range(t.n_rows)]
        vs = pentagon.vertices
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                assert any(u not in s and v in s for s in rows)
                assert any(u in s and v not in s for s in rows)
                if not pentagon.adjacent(u, v):
                    assert any(u in s and v in s for s in rows)

    def test_empty_state_set(self):
        h = core.build(CONTRADICTORY)
        c = states.classify(h, states.enumerate_states(h))
        assert not c.separable and not c.unital and not c.perfectly_separable

    def test_column_mismatch(self, bug, pentagon):
        t = states.enumerate_states(pentagon)
        with pytest.raises(ColumnCountMismatchError):
            states.classify(bug, t)

    def test_separable_iff_columns_distinct(self, triangle, g32, underlying):
        for h in (triangle, g32, underlying):
            t = states.enumerate_states(h)
            c = states.classify(h, t)
            cols = [t.column_int(j) for j in range(t.n_cols)]
            assert c.separable == (len(set(cols)) == len(cols))


class TestGadgetScan:
    def test_bug_tifs(self, bug):
        t = states.enumerate_states(bug)
        scan = states.gadget_scan(bug, t)
        assert scan.tifs_pairs == frozenset({("v1", "v7"), ("v7", "v1")})

    def test_k3_empty(self, k3):
        t = states.enumerate_states(k3)
        scan = states.gadget_scan(k3, t)
        assert scan.tifs_pairs == frozenset()
        assert scan.tits_pairs == frozenset()

    def test_triangle_empty_tifs(self, triangle):
        t = states.enumerate_states(triangle)
        scan = states.gadget_scan(triangle, t)
        assert scan.tifs_pairs == frozenset()

    def test_against_pair_oracle(self, pentagon, g32):
        for h in (pentagon, g32):
            t = states.enumerate_states(h)
            scan = states.gadget_scan(h, t)
            rows = [t.row_true_set(r) for r in range(t.n_rows)]
            tifs = set()
            tits = set()
            for u in h.vertices:
                for v in h.vertices:
                    if u == v:
                        continue
                    if not h.adjacent(u, v) and not any(
                        u in s and v in s for s in rows
                    ):
                        tifs.add((u, v))
                    u_rows = [s for s in rows if u in s]
                    if u_rows and all(v in s for s in u_rows):
                        tits.add((u, v))
            assert scan.tifs_pairs == frozenset(tifs)
            assert scan.tits_pairs == frozenset(tits)

    def test_tifs_symmetry(self, bug, pentagon, g32):
        for h in (bug, pentagon, g32):
            scan = states.gadget_scan(h, states.enumerate_states(h))
            for u, v in scan.tifs_pairs:
                assert (v, u) in scan.tifs_pairs

    def test_rejects_empty_table(self):
        h = core.build(CONTRADICTORY)
        with pytest.raises(OhgError):
            states.gadget_scan(h, states.enumerate_states(h))


@st.composite
def verdict_tables(draw):
    """A hypergraph and a table to read verdicts from: either the states of
    a random pasting of 2-, 3- or 4-vertex contexts or of a small fixture,
    or distinct rows over up to 8 columns, some all zero, all one or copies
    of an earlier column, with random contexts over the same columns."""
    if draw(st.booleans()):
        if draw(st.booleans()):
            h = gadgets.fixture(draw(st.sampled_from(
                ("k3", "triangle", "pentagon", "bug", "g32", "g32x", "underlying")))).hypergraph
        else:
            rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
            h = random_pasting(rng, max_contexts=5, size=draw(st.integers(2, 4)))
        return h, states.enumerate_states(h), True
    k = draw(st.integers(0, 8))
    n = draw(st.integers(0, 10))
    columns: list[list[int]] = []
    for j in range(k):
        kind = draw(st.sampled_from(("zeros", "ones", "copy", "random", "random", "random")))
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, j - 1))])
        elif kind in ("zeros", "ones"):
            columns.append([int(kind == "ones")] * n)
        else:
            columns.append(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    rows = list(dict.fromkeys(zip(*columns))) if k else [()] * min(n, 1)
    vertices = tuple(f"c{j}" for j in range(k))
    contexts = draw(st.lists(st.sets(st.sampled_from(vertices), min_size=2), max_size=3)
                    if k > 1 else st.just([]))
    h = core.Hypergraph(vertices, tuple(map(frozenset, contexts)))
    return h, states.TravisMatrix.from_bit_rows(vertices, rows), False


class TestVerdictsAgainstRows:
    """Every reader of the verdict masks against the rows themselves."""

    @given(verdict_tables())
    @settings(max_examples=150, deadline=None)
    def test_readers(self, case):
        h, t, pasting = case
        vs, k = t.vertices, t.n_cols
        true_in = [frozenset(r for r in range(t.n_rows) if t.bit(r, j)) for j in range(k)]
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        equal = [(i, j) for i, j in pairs if true_in[i] == true_in[j]]
        conditions = {(i, j): (bool(true_in[j] - true_in[i]), bool(true_in[i] - true_in[j]),
                               h.adjacent(vs[i], vs[j]) or bool(true_in[i] & true_in[j]))
                      for i, j in pairs}
        failing = [(i, j) for i, j in pairs if not all(conditions[i, j])]
        witness = None
        if failing:
            i, j = failing[0]
            witness = (vs[i], vs[j], conditions[i, j].index(False) + 1)
        assert states.classify(h, t) == states.StateClassification(
            nts=t.n_rows,
            unital=t.n_rows > 0 and all(true_in),
            separable=not equal,
            perfectly_separable=not failing,
            fail_witness=witness,
        )

        never = frozenset((vs[i], vs[j]) for i in range(k) for j in range(k)
                          if i != j and not true_in[i] & true_in[j])
        if t.n_rows:
            scan = states.gadget_scan(h, t)
            assert scan.tifs_pairs == {(u, v) for u, v in never if not h.adjacent(u, v)}
            assert scan.tits_pairs == {(vs[i], vs[j]) for i in range(k) for j in range(k)
                                       if i != j and true_in[i] and true_in[i] <= true_in[j]}
        else:
            with pytest.raises(OhgError, match="at least one"):
                states.gadget_scan(h, t)

        zero = next((vs[j] for j in range(k) if not true_in[j]), None)
        edges = {frozenset(p) for p in never}
        if not t.n_rows:
            with pytest.raises(OhgError, match="at least one state"):
                reconstruction.adjacency_from_states(t)
        elif zero is not None:
            with pytest.raises(AllZeroColumnError, match=re.escape(f"column {zero!r}")):
                reconstruction.adjacency_from_states(t)
        else:
            assert reconstruction.adjacency_from_states(t).edges == edges
        if not pasting:
            return

        # the table is h's states, which evaluate reads without it
        if not t.n_rows:
            assert reconstruction.evaluate(h) == (reconstruction.Verdict("empty"), None)
        elif equal:
            (i, j), *_ = equal
            assert reconstruction.evaluate(h) == (
                reconstruction.Verdict("non_separable", witness=(vs[i], vs[j])), None)
        elif core.shape(h).clique_number < 3:
            with pytest.raises(OhgError, match="clique number >= 3"):
                reconstruction.evaluate(h)
        elif zero is not None:
            with pytest.raises(AllZeroColumnError, match=re.escape(f"column {zero!r}")):
                reconstruction.evaluate(h)
        else:
            verdict, rec = reconstruction.evaluate(h)
            assert verdict.kind in ("reconstructable", "extra_structure")
            assert rec.raw_graph.edges == edges


class TestGadgetProfile:
    def test_bug(self, bug):
        t = states.enumerate_states(bug)
        p = states.gadget_profile(t, "v1", "v7")
        assert (p.n_a, p.n_b, p.n_n) == (3, 3, 8)
        assert p.n_a + p.n_b + p.n_n == t.n_rows

    def test_k3_adjacent_pair(self, k3):
        t = states.enumerate_states(k3)
        p = states.gadget_profile(t, "a", "b")
        assert (p.n_a, p.n_b, p.n_n) == (1, 1, 1)

    def test_co_true_pair_rejected(self, bug):
        t = states.enumerate_states(bug)
        with pytest.raises(NotAGadgetPairError):
            states.gadget_profile(t, "v1", "v4")

    @pytest.mark.parametrize("head, tail", [("v99", "v7"), ("v1", "v99")])
    def test_unknown_vertex(self, bug, head, tail):
        for t in (states.enumerate_states(bug), states.cotruth(bug)):
            with pytest.raises(OhgError, match="'v99' is not a column"):
                states.gadget_profile(t, head, tail)

    def test_partition_invariant_random(self):
        rng = random.Random(99)
        for _ in range(10):
            h = random_pasting(rng)
            t = states.enumerate_states(h)
            if t.n_rows == 0:
                continue
            scan_pairs = states.gadget_scan(h, t).tifs_pairs
            for u, v in sorted(scan_pairs):
                p = states.gadget_profile(t, u, v)
                assert p.n_a + p.n_b + p.n_n == t.n_rows
