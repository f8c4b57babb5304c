"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Numbers asserted here with zero tolerance are frozen from the
worked examples; timed criteria use generous wall-clock budgets measured on a
desktop core.
"""

import itertools
import random
import time

import numpy as np
import pytest

from ohg import coloring, core, gadgets, states
from ohg.errors import AllZeroColumnError
from ohg.gadgets import predicted_bind_count
from ohg.geometry import VectorLabeling, verify_for
from ohg.reconstruction import evaluate as evaluate_reconstruction
from ohg.reconstruction import reconstruct, travis_equivalent, verdict

from conftest import brute_force_true_sets, engine_true_sets, random_pasting

EXPECTED_COUNTS = {
    "triangle": 4,
    "pentagon": 11,
    "bug": 14,
    "g32": 6,
    "underlying": 6,
    "fig4": 2589,
}

BIG_BIND_COUNT = 594_252_343_817_330_688_000_000


def _report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def pastings():
    rng = random.Random(20260808)
    return [random_pasting(rng) for _ in range(100)]


def test_criterion_1_state_counts():
    for name, expected in EXPECTED_COUNTS.items():
        h = gadgets.fixture(name).hypergraph
        start = time.perf_counter()
        count = states.count_states(h)
        elapsed = time.perf_counter() - start
        assert count == expected, name
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
    assert gadgets.fixture("ghz").travis.n_rows == 8
    _report(1, "catalogued state counts reproduced exactly, each < 1 s")


def test_criterion_2_reference_matrix_equivalence():
    start = time.perf_counter()
    for name in ("triangle", "pentagon", "bug", "g32", "underlying"):
        fx = gadgets.fixture(name)
        enumerated = states.enumerate_states(fx.hypergraph)
        witness = travis_equivalent(enumerated, fx.travis)
        assert witness is not None, name
        row_map, col_map = witness
        for r in range(enumerated.n_rows):
            for c in range(enumerated.n_cols):
                assert enumerated.bit(r, c) == fx.travis.bit(row_map[r], col_map[c])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"equivalence checks took {elapsed:.2f}s"
    _report(2, "enumerated tables equivalent to the transcribed references, < 5 s")


def test_criterion_3_gadget_profiles():
    bug_t = states.enumerate_states(gadgets.fixture("bug").hypergraph)
    p = states.gadget_profile(bug_t, "v1", "v7")
    assert (p.n_a, p.n_b, p.n_n) == (3, 3, 8)
    fig4_t = states.enumerate_states(gadgets.fixture("fig4").hypergraph)
    q = states.gadget_profile(fig4_t, "a1", "a11")
    assert (q.n_a, q.n_b, q.n_n) == (45, 504, 2040)
    assert predicted_bind_count(*((p.n_a, p.n_b, p.n_n))) == 2_239_488
    assert predicted_bind_count(*((q.n_a, q.n_b, q.n_n))) == BIG_BIND_COUNT
    _report(3, "profiles (3,3,8) and (45,504,2040); exact big-integer products")


def test_criterion_4_binding_enumeration(bind_bug, bind_fig4):
    assert len(bind_bug.vertices) == 108
    assert len(bind_bug.contexts) == 66
    start = time.perf_counter()
    count = states.count_states(bind_bug)
    elapsed = time.perf_counter() - start
    assert count == 2_239_488
    assert elapsed <= 120.0, f"count-only took {elapsed:.2f}s"
    # the composition of the 43-vertex gadget is counted exactly, though its
    # state table (about 5.9e23 rows) cannot be enumerated
    big = bind_fig4
    assert len(big.vertices) == 378
    assert len(big.contexts) == 228
    start = time.perf_counter()
    big_count = states.count_states(big)
    big_elapsed = time.perf_counter() - start
    assert big_count == predicted_bind_count(45, 504, 2040) == BIG_BIND_COUNT
    assert big_elapsed <= 10.0, f"378-vertex count took {big_elapsed:.2f}s"
    _report(4, f"binding of the bug counted exactly in {elapsed:.2f}s; "
               f"the 378-vertex binding counted exactly in {big_elapsed:.2f}s")


def test_criterion_5_reconstruction(bind_bug, bind_bug_matrix):
    bug = gadgets.fixture("bug").hypergraph
    bug_t = states.enumerate_states(bug)
    rec = reconstruct(bug_t, 3, source=bug)
    assert frozenset(("v1", "v7")) in set(rec.raw_hypergraph.contexts)
    assert frozenset(("v1", "v7")) not in set(rec.filtered_hypergraph.contexts)
    assert verdict(bug).kind == "reconstructable"
    assert verdict(gadgets.fixture("pentagon").hypergraph).kind == "reconstructable"
    big_rec = reconstruct(bind_bug_matrix, 3, source=bind_bug)
    corners = {frozenset(c) for c in gadgets.bind_corners()}
    assert set(big_rec.extra_contexts) == corners
    assert big_rec.missing_contexts == ()
    v = verdict(bind_bug)
    assert v.kind == "extra_structure"
    assert set(v.extra_contexts) == corners
    _report(5, "bug and pentagon reconstructable; binding shows exactly the "
               "three corner triples as extra structure")


def test_criterion_5b_big_binding_counterexample(bind_fig4):
    # the 378-vertex binding's table (about 5.9e23 rows) is never built: the
    # pairwise co-truth counts come from the component-cached counter
    start = time.perf_counter()
    v, rec = evaluate_reconstruction(bind_fig4)
    rec_elapsed = time.perf_counter() - start
    corners = {frozenset(c) for c in gadgets.bind_corners()}
    assert v.kind == "extra_structure"
    assert set(v.extra_contexts) == corners
    assert rec.missing_contexts == ()
    assert rec_elapsed <= 30.0, f"reconstruction took {rec_elapsed:.2f}s"
    start = time.perf_counter()
    c = states.classify(bind_fig4, states.cotruth(bind_fig4))
    cls_elapsed = time.perf_counter() - start
    assert c.nts == BIG_BIND_COUNT
    assert c.unital and c.separable and not c.perfectly_separable
    assert cls_elapsed <= 30.0, f"classification took {cls_elapsed:.2f}s"
    _report(5, f"378-vertex binding: the three corner triples are the extra "
               f"structure ({rec_elapsed:.2f}s); nTS = {c.nts} from co-truth "
               f"counts ({cls_elapsed:.2f}s), no state table")


def test_criterion_6_coloring():
    assert coloring.algorithm1(gadgets.fixture("triangle").travis, 3) == \
        coloring.RowSelection((1, 2, 3))
    assert coloring.algorithm1(gadgets.fixture("pentagon").travis, 3) == \
        coloring.RowSelection((1, 8, 11))
    ghz = gadgets.fixture("ghz").travis
    selection = coloring.algorithm1(ghz, 4)
    assert selection == coloring.RowSelection((1, 4, 5, 8))
    assert coloring.verify_rows(ghz, selection)
    assert coloring.algorithm1(gadgets.fixture("g32").travis, 3) is None
    g32 = gadgets.fixture("g32").hypergraph
    assert coloring.exact_chromatic(g32) == 4
    assert coloring.brooks_bound(g32) == 4
    _report(6, "row selections {1,2,3}, {1,8,11}, {1,4,5,8}; no 3-row "
               "selection for G32; chromatic number and Brooks bound both 4")


def test_criterion_7_property_suites(bind_bug, bind_bug_matrix, pastings):
    # engine vs 2^k brute force on every corpus hypergraph with <= 22 vertices
    corpus = [gadgets.fixture(n).hypergraph
              for n in ("k3", "triangle", "pentagon", "bug", "g32", "g32x",
                        "underlying")]
    corpus += pastings
    for h in corpus:
        assert len(h.vertices) <= 22
        t = states.enumerate_states(h)
        assert engine_true_sets(t) == brute_force_true_sets(h)

    # row-search success at n exactly when the 2-section is n-chromatic
    for name in ("k3", "triangle", "pentagon", "bug", "g32", "underlying",
                 "fig4"):
        h = gadgets.fixture(name).hypergraph
        t = states.enumerate_states(h)
        n = core.shape(h).clique_number
        assert (coloring.algorithm1(t, n) is not None) == \
            (coloring.exact_chromatic(h) == n), name
    ghz = gadgets.fixture("ghz").travis
    ghz_h = reconstruct(ghz, 4).filtered_hypergraph
    assert (coloring.algorithm1(ghz, 4) is not None) == \
        (coloring.exact_chromatic(ghz_h) == 4)

    # perfect separability <-> faithful reconstruction, both directions,
    # on the brute-force corpus plus the larger catalogued fixture
    for h in corpus + [gadgets.fixture("fig4").hypergraph]:
        t = states.enumerate_states(h)
        if t.n_rows == 0:
            assert verdict(h).kind == "empty"
            continue
        c = states.classify(h, t)
        if not c.unital:
            if c.separable:
                with pytest.raises(AllZeroColumnError):
                    verdict(h)
            else:
                assert verdict(h).kind == "non_separable"
            continue
        v = verdict(h)
        if c.perfectly_separable:
            assert v.kind == "reconstructable"
        if v.kind == "reconstructable":
            rec = reconstruct(t, core.shape(h).clique_number, source=h)
            if set(rec.raw_hypergraph.contexts) == set(
                rec.filtered_hypergraph.contexts
            ):
                assert c.perfectly_separable

    # every state of the binding sets exactly one vertex of each corner triple
    t = bind_bug_matrix
    idx = bind_bug.index
    for triple in gadgets.bind_corners():
        cols = [idx[v] for v in triple]
        for x, y in itertools.combinations(cols, 2):
            assert t.cooc[x][y] == 0
        assert sum(int(t.column_sums[c]) for c in cols) == t.n_rows

    # the extension contexts leave the state set untouched
    g32 = gadgets.fixture("g32").hypergraph
    g32x = gadgets.fixture("g32x").hypergraph
    assert states.enumerate_states(g32).rows == states.enumerate_states(g32x).rows

    # separability survives the binding composition
    assert states.classify(bind_bug, bind_bug_matrix).separable
    _report(7, "engine matches brute force on the whole corpus; coloring and "
               "reconstruction equivalences hold; binding properties verified")


def test_criterion_8_geometry():
    k3 = gadgets.fixture("k3").hypergraph
    basis = VectorLabeling(3, {
        "a": (1.0, 0.0, 0.0),
        "b": (0.0, 1.0, 0.0),
        "c": (0.0, 0.0, 1.0),
    })
    assert verify_for(k3, basis, tol=1e-9).ok
    rng = np.random.default_rng(8)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = VectorLabeling(3, {
            name: tuple(q @ np.array(vec))
            for name, vec in basis.vectors.items()
        })
        assert verify_for(k3, rotated, tol=1e-9).ok
        scaled = VectorLabeling(3, {
            name: tuple(c * s for c in vec)
            for (name, vec), s in zip(rotated.vectors.items(), (2.5, -7.0, 0.03))
        })
        assert verify_for(k3, scaled, tol=1e-9).ok
    _report(8, "standard basis verifies; rotation and scaling leave reports "
               "unchanged at tolerance 1e-9")
