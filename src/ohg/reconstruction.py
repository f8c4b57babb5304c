"""Rebuilding a hypergraph from its table of two-valued states.

The adjacency criterion declares two vertices adjacent when no state makes
them jointly true. Taking maximal cliques of that graph and dropping cliques
below the clique number (the completion criterion) yields the canonical
reconstruction, which equals the source exactly for perfectly separable
hypergraphs and otherwise reveals surplus structure. Two state tables are
compared up to row and column permutations by :func:`travis_equivalent`, on
the package's one isomorphism search (:func:`ohg.core.is_isomorphic`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import core
from .core import Graph, Hypergraph, _bits, record
from .errors import AllZeroColumnError, OhgError, SizeLimitError
from .pairwise import CoTruth, _cotruth_rows, _first_equal_pair, _masks

if TYPE_CHECKING:
    from .states import TravisMatrix

# The rows' hypergraphs are built before the search starts, one set of names
# per row: about 2.3 kB a row on bind(bug), whose 2,239,488 rows of 108
# columns would take about 5 GB.
_EQUIV_COLUMN_CAP = 32


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


def _adjacency(vertices: tuple[str, ...], met: list[int]) -> Graph:
    """:func:`adjacency_from_states` from the ``met`` masks of
    :func:`~ohg.pairwise._masks`."""
    for j, m in enumerate(met):
        if not m >> j & 1:
            raise AllZeroColumnError(
                f"column {vertices[j]!r} is never true; the state table is not unital"
            )
    full = (1 << len(vertices)) - 1
    return Graph(vertices, frozenset(
        frozenset((vertices[i], vertices[j]))
        for i, m in enumerate(met) for j in _bits(full & ~m & -2 << i)
    ))


def adjacency_from_states(t: TravisMatrix | CoTruth) -> Graph:
    """The graph the adjacency criterion induces: an edge wherever two
    columns are never jointly 1.

    An identically zero column is refused rather than guessed around: the
    criterion would make that vertex adjacent to everything.
    """
    if t.n_rows == 0:
        raise OhgError("adjacency criterion needs at least one state")
    return _adjacency(t.vertices, _masks(t.cooc)[0])


def _rebuild(
    raw_graph: Graph, n: int, source: Optional[Hypergraph]
) -> ReconstructionResult:
    """:func:`reconstruct` from the adjacency-criterion graph."""
    cliques = core.maximal_cliques(raw_graph)
    raw = Hypergraph(raw_graph.vertices, cliques)
    kept = tuple(c for c in cliques if len(c) >= n)
    filtered = Hypergraph(raw_graph.vertices, kept)
    extra: tuple[frozenset[str], ...] = ()
    missing: tuple[frozenset[str], ...] = ()
    if source is not None:
        src = set(source.contexts)
        got = set(kept)
        extra = tuple(sorted(got - src, key=sorted))
        missing = tuple(sorted(src - got, key=sorted))
    return ReconstructionResult(raw_graph, raw, filtered, extra, missing)


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
    return _rebuild(adjacency_from_states(t), n, source)


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
    masks of :func:`~ohg.pairwise._masks`, folded a row at a time from the
    trace's co-truth counts, so neither a table nor all the counts are held.
    """
    nts, rows = _cotruth_rows(h)
    if nts == 0:
        return Verdict("empty"), None
    met, implied = _masks(rows)
    pair = _first_equal_pair(implied)
    if pair:
        return Verdict(
            "non_separable", witness=(h.vertices[pair[0]], h.vertices[pair[1]])
        ), None
    if n is None:
        n = core.shape(h).clique_number
    if n < 3:
        raise OhgError("reconstructability verdicts need clique number >= 3")
    rec = _rebuild(_adjacency(h.vertices, met), n, h)
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


def travis_equivalent(
    t1: TravisMatrix,
    t2: TravisMatrix,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A witness (row permutation, column permutation) carrying t1 onto t2.

    On success returns ``(row_map, col_map)`` with
    ``t1.bit(r, c) == t2.bit(row_map[r], col_map[c])`` for all entries;
    ``None`` when no such pair exists. A table's rows are distinct, so a
    column permutation fixes the row permutation, and the tables are
    equivalent exactly when the hypergraphs whose contexts are their rows'
    true sets are isomorphic (:func:`~ohg.core.is_isomorphic`). Those
    hypergraphs are built before any search starts, so more than
    :data:`_EQUIV_COLUMN_CAP` columns raise :class:`SizeLimitError`, as does
    a search past its budget.
    """
    # the row count also covers an all-zero row: its empty context changes
    # no vertex's signature
    if t1.n_rows != t2.n_rows or t1.n_cols != t2.n_cols:
        return None
    if t1.n_cols > _EQUIV_COLUMN_CAP:
        raise SizeLimitError(
            f"equivalence search supports at most {_EQUIV_COLUMN_CAP} columns"
        )
    h1, h2 = (Hypergraph(t.vertices, tuple(map(t.row_true_set, range(t.n_rows))))
              for t in (t1, t2))
    mapping = core.is_isomorphic(h1, h2)
    if mapping is None:
        return None
    col_map = tuple(h2.index[mapping[v]] for v in t1.vertices)
    row_of = {ctx: s for s, ctx in enumerate(h2.contexts)}
    row_map = tuple(row_of[frozenset(map(mapping.__getitem__, ctx))]
                    for ctx in h1.contexts)
    return row_map, col_map
