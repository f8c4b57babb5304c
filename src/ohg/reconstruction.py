"""Rebuilding a hypergraph from its table of two-valued states.

The adjacency criterion declares two vertices adjacent when no state makes
them jointly true. Taking maximal cliques of that graph and dropping cliques
below the clique number (the completion criterion) yields the canonical
reconstruction, which equals the source exactly for perfectly separable
hypergraphs and otherwise reveals surplus structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import core
from .core import Graph, Hypergraph, record
from .errors import AllZeroColumnError, OhgError, SizeLimitError
from .pairwise import CoTruth, cotruth
from .walk import _drive

if TYPE_CHECKING:
    from .states import TravisMatrix

# The node budget counts column placements only. Each full column assignment
# then permutes rows of ``t1`` until one misses ``t2``, work that nothing
# counts: on bind(bug), 108 columns and 2,239,488 rows, with this cap lifted,
# the first assignment came after 2.5 s, and one that holds took 30-37 s
# (2-core Xeon, Python 3.11).
_EQUIV_COLUMN_CAP = 32
_EQUIV_NODE_BUDGET = 10 ** 6


@record
class ReconstructionResult:
    """Raw and completion-filtered reconstructions, with diffs to a source."""

    raw_graph: Graph
    raw_hypergraph: Hypergraph
    filtered_hypergraph: Hypergraph
    extra_contexts: tuple[frozenset[str], ...] = ()
    missing_contexts: tuple[frozenset[str], ...] = ()


@record
class Verdict:
    """Reconstructability verdict for a hypergraph.

    ``kind`` is one of ``reconstructable``, ``extra_structure``,
    ``non_separable``, ``empty``.
    """

    kind: str
    extra_contexts: tuple[frozenset[str], ...] = ()
    witness: Optional[tuple[str, str]] = None

    @property
    def reconstructable(self) -> bool:
        return self.kind == "reconstructable"


def adjacency_from_states(t: TravisMatrix | CoTruth) -> Graph:
    """The graph the adjacency criterion induces: an edge wherever two
    columns are never jointly 1.

    An identically zero column is refused rather than guessed around: the
    criterion would make that vertex adjacent to everything.
    """
    if t.n_rows == 0:
        raise OhgError("adjacency criterion needs at least one state")
    cooc = t.cooc
    colsum = t.column_sums
    for j in range(t.n_cols):
        if colsum[j] == 0:
            raise AllZeroColumnError(
                f"column {t.vertices[j]!r} is never true; the state table is not unital"
            )
    edges = set()
    for i in range(t.n_cols):
        for j in range(i + 1, t.n_cols):
            if cooc[i][j] == 0:
                edges.add(frozenset((t.vertices[i], t.vertices[j])))
    return Graph(t.vertices, frozenset(edges))


def reconstruct(
    t: TravisMatrix | CoTruth,
    n: int,
    source: Optional[Hypergraph] = None,
) -> ReconstructionResult:
    """Canonical reconstruction from a state table at clique number ``n``.

    The raw hypergraph takes every maximal clique of the adjacency-criterion
    graph as a context; filtering then drops cliques smaller than ``n``. The
    filter only removes, never invents: surplus cliques of full size (the
    binding-construction counterexample) survive and show up in
    ``extra_contexts`` when a source is given.
    """
    if n < 3:
        raise OhgError("reconstruction is defined for clique number n >= 3")
    raw_graph = adjacency_from_states(t)
    cliques = core.maximal_cliques(raw_graph)
    raw = Hypergraph(t.vertices, cliques)
    kept = tuple(c for c in cliques if len(c) >= n)
    filtered = Hypergraph(t.vertices, kept)
    extra: tuple[frozenset[str], ...] = ()
    missing: tuple[frozenset[str], ...] = ()
    if source is not None:
        src = set(source.contexts)
        got = set(kept)
        extra = tuple(sorted(got - src, key=sorted))
        missing = tuple(sorted(src - got, key=sorted))
    return ReconstructionResult(raw_graph, raw, filtered, extra, missing)


def evaluate(
    h: Hypergraph, *, n: Optional[int] = None
) -> tuple[Verdict, Optional[ReconstructionResult]]:
    """Reconstructability verdict plus the reconstruction diff behind it.

    ``empty`` when there are no states at all; ``non_separable`` with a
    witness pair when two columns coincide (no reconstruction is attempted in
    either case, so the second element is ``None``); ``reconstructable`` when
    the filtered reconstruction is equal to ``h``, which for a reconstruction
    is the same as isomorphic; else ``extra_structure`` with the surplus
    contexts. ``n`` overrides the clique number used by the completion filter.
    Only the canonical reconstruction is tested, which is sound but does not
    quantify over every table-equivalent hypergraph. Non-unital input
    propagates :class:`AllZeroColumnError`. Everything is decided from the
    co-truth counts of :func:`~ohg.pairwise.cotruth`, so no state table is
    built.
    """
    t = cotruth(h)
    if t.n_rows == 0:
        return Verdict("empty"), None
    cooc = t.cooc
    colsum = t.column_sums
    for i in range(t.n_cols):
        for j in range(i + 1, t.n_cols):
            if cooc[i][j] == colsum[i] == colsum[j]:
                return Verdict(
                    "non_separable", witness=(t.vertices[i], t.vertices[j])
                ), None
    if n is None:
        n = core.shape(h).clique_number
    if n < 3:
        raise OhgError("reconstructability verdicts need clique number >= 3")
    rec = reconstruct(t, n, source=h)
    # Isomorphic is equal here. An isomorphism from h onto the reconstruction
    # F keeps context sizes, so h's contexts have >= n vertices and, as
    # cliques of the adjacency graph G, lie in contexts of F: S(h) <= S(F) for
    # the 2-sections, and equal edge counts make them one graph S, with the
    # isomorphism an automorphism of S. F's contexts are maximal cliques of
    # S, so h's are too; a larger clique of G around one would lie in a
    # context of F, a clique of S, so h's contexts are maximal in G, hence
    # contexts of F, and equal context counts give F = h.
    if not rec.extra_contexts and not rec.missing_contexts:
        return Verdict("reconstructable"), rec
    return Verdict("extra_structure", extra_contexts=rec.extra_contexts), rec


# the package's name for evaluate
evaluate_reconstruction = evaluate


def verdict(h: Hypergraph, *, n: Optional[int] = None) -> Verdict:
    """Reconstructability of ``h`` from its own two-valued states
    (see :func:`evaluate` for the verdict kinds)."""
    return evaluate(h, n=n)[0]


def _column_invariants(t: TravisMatrix) -> list[tuple]:
    cooc = t.cooc
    inv = []
    for i in range(t.n_cols):
        off = sorted(cooc[i][j] for j in range(t.n_cols) if j != i)
        inv.append((cooc[i][i], tuple(off)))
    return inv


def _permute_row(row: int, col_map: list[int], k: int) -> int:
    # rows are in reading order: bit b holds column k - 1 - b
    out = 0
    for b in core._bits(row):
        out |= 1 << (k - 1 - col_map[k - 1 - b])
    return out


def travis_equivalent(
    t1: TravisMatrix,
    t2: TravisMatrix,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A witness (row permutation, column permutation) carrying t1 onto t2.

    On success returns ``(row_map, col_map)`` with
    ``t1.bit(r, c) == t2.bit(row_map[r], col_map[c])`` for all entries;
    ``None`` when no such pair exists. Search is column-signature refinement
    (column weight plus the multiset of pairwise co-truth counts) followed by
    backtracking, so it is meant for reference-table-scale matrices; exceeding the
    node budget or the column cap raises :class:`SizeLimitError`.
    """
    if t1.n_rows != t2.n_rows or t1.n_cols != t2.n_cols:
        return None
    k = t1.n_cols
    if k > _EQUIV_COLUMN_CAP:
        raise SizeLimitError(
            f"equivalence search supports at most {_EQUIV_COLUMN_CAP} columns"
        )
    inv1 = _column_invariants(t1)
    inv2 = _column_invariants(t2)
    if sorted(inv1) != sorted(inv2):
        return None
    candidates = [
        [j for j in range(k) if inv2[j] == inv1[i]] for i in range(k)
    ]
    order = sorted(range(k), key=lambda i: (len(candidates[i]), i))
    cooc1, cooc2 = t1.cooc, t2.cooc
    row_position = {row: s for s, row in enumerate(t2.rows)}
    assignment: dict[int, int] = {}
    used = [False] * k
    nodes = 0
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def place(pos: int):
        """Try each feasible column for the ``pos``-th in ``order``, yielding
        the walk of the next; whether a witness is found."""
        nonlocal nodes
        if pos == k:
            col_map = [assignment[i] for i in range(k)]
            row_map = []
            for r in t1.rows:
                s = row_position.get(_permute_row(r, col_map, k))
                if s is None:
                    return False
                row_map.append(s)
            found.append((tuple(row_map), tuple(col_map)))
            return True
        i = order[pos]
        for j in candidates[i]:
            if used[j]:
                continue
            nodes += 1
            if nodes > _EQUIV_NODE_BUDGET:
                raise SizeLimitError("equivalence search exceeded its node budget")
            if all(cooc1[i][i2] == cooc2[j][j2] for i2, j2 in assignment.items()):
                assignment[i] = j
                used[j] = True
                if (yield place(pos + 1)):
                    return True
                del assignment[i]
                used[j] = False
        return False

    if _drive(place(0)):
        return found[0]
    return None
