"""Pairwise co-truth counts of the two-valued states, and the separability
verdicts read from them.

:func:`cotruth` counts, without a state table, how many states make each
vertex true and each pair of vertices true together. It runs the search
(:func:`ohg.engine.search`) once and reads the counts off its trace: one
pass up and one down per vertex (:func:`_true_counts`). The counts have one
form, from the trace or from a table (:attr:`ohg.states.TravisMatrix.cooc`):
a ``k``-tuple of ``k``-tuples of exact Python ints, ``cooc[i][j]``, with the
column sums on the diagonal, since the counts of the 378-vertex binding pass
2**63. :func:`classify` reads unitality and the separability ladder from
either form.

This is the part of the state analyses that ``classify`` and
``reconstruct`` run; :mod:`ohg.states` holds the tables and binds these
names on first use, so ``ohg.states.cotruth`` is ``ohg.cotruth``, and the
tables load without this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .engine import count, part_counts, search
from .errors import ColumnCountMismatchError
from .model import Hypergraph, _bits, record

if TYPE_CHECKING:
    from .states import TravisMatrix


def _diagonal(cooc: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(row[i] for i, row in enumerate(cooc))


@record
class CoTruth:
    """State count and pairwise co-truth counts, without the rows.

    ``cooc[i][j]`` is the number of states making columns ``i`` and ``j``
    both true, and the diagonal holds the column sums, as in
    :attr:`~ohg.states.TravisMatrix.cooc`: a tuple of tuples of exact Python
    ints, because counts pass 2**63. The pairwise analyses (:func:`classify`,
    :func:`~ohg.implications.gadget_scan`,
    :func:`~ohg.implications.gadget_profile` and the reconstruction) accept
    it in place of a table.
    """

    vertices: tuple[str, ...]
    nts: int
    cooc: tuple[tuple[int, ...], ...]

    # compared and hashed by identity, not by the whole matrix
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def n_rows(self) -> int:
        return self.nts

    @property
    def n_cols(self) -> int:
        return len(self.vertices)

    @property
    def column_sums(self) -> tuple[int, ...]:
        return _diagonal(self.cooc)

    def __repr__(self) -> str:
        return f"CoTruth({self.nts} states x {self.n_cols} vertices)"


@record
class StateClassification:
    """Separability-style verdicts over a complete state table."""

    nts: int
    unital: bool
    separable: bool
    perfectly_separable: bool
    fail_witness: Optional[tuple[str, str, int]]


def _true_counts(trace: list[tuple], nodes: list[list[tuple]], k: int,
                 zeros: int) -> tuple[int, ...]:
    """Per vertex, the number of states of ``trace`` false on ``zeros``
    that make it true; ``nodes`` is ``trace`` with each node's forced
    vertices, ``(forced, subs, vertices)``.

    Below each part are :func:`part_counts` states; one pass down from the
    root counts the ways to reach each part, the derivative of the count by
    that part. The states through a node are the ways to reach its part
    times the states below the node, and each makes its vertices true.
    """
    sums = part_counts(trace, zeros)
    counts = [0] * k
    ways = [0] * len(trace)
    ways[-1] = 1
    for p in range(len(trace) - 1, -1, -1):
        reach = ways[p]
        if not reach:
            continue
        for forced, subs, vs in nodes[p]:
            if forced & zeros:
                continue
            n = 1
            for q in subs:
                n *= sums[q]
            if not n:
                continue
            through = reach * n
            for v in vs:
                counts[v] += through
            for q in subs:
                # n // sums[q]: the states of the node's other parts
                ways[q] += reach * (n // sums[q])
    return tuple(counts)


def cotruth(h: Hypergraph) -> CoTruth:
    """State count and pairwise co-truth counts of ``h``, without a table.

    The search runs once, and row ``i`` holds the true counts over the
    states false on every neighbour of ``i``, which are exactly the states
    making ``i`` true: one pass up and one down over the trace per vertex
    (:func:`_true_counts`), so the 378-vertex binding (about 5.9e23 states)
    is analysed in under a second. The result equals
    ``enumerate_states(h).cooc`` (:func:`~ohg.states.enumerate_states`) entry
    for entry.
    """
    k = len(h.vertices)
    trace = search(h)
    nodes = [[(forced, subs, tuple(_bits(forced))) for forced, subs in part]
             for part in trace]
    return CoTruth(h.vertices, count(trace),
                   tuple(_true_counts(trace, nodes, k, nbr) for nbr in h.neighbor_masks))


def classify(h: Hypergraph, t: TravisMatrix | CoTruth) -> StateClassification:
    """Unitality and the separability ladder over a complete state table or
    its co-truth counts (:func:`cotruth`).

    Separable: every two columns differ in some row. Perfectly separable:
    additionally each ordered pair is distinguished in both directions and
    every non-adjacent pair is jointly true in some row. The witness names
    the first violating pair together with which of the three conditions
    failed (1: no row 0/1, 2: no row 1/0, 3: no row 1/1).
    """
    if t.vertices != h.vertices:
        raise ColumnCountMismatchError(
            "state table columns do not match the hypergraph's vertices"
        )
    k = t.n_cols
    nts = t.n_rows
    cooc = t.cooc
    colsum = t.column_sums
    nbr = h.neighbor_masks
    unital = nts > 0 and all(colsum)
    separable = True
    perfectly = True
    witness: Optional[tuple[str, str, int]] = None
    for i in range(k):
        for j in range(i + 1, k):
            both = cooc[i][j]
            item1 = colsum[j] - both > 0  # some row has i=0, j=1
            item2 = colsum[i] - both > 0  # some row has i=1, j=0
            if not item1 and not item2:
                separable = False
            item3 = nbr[i] >> j & 1 or both > 0  # adjacent, or some row 1/1
            if witness is None and not (item1 and item2 and item3):
                perfectly = False
                failed = 1 if not item1 else (2 if not item2 else 3)
                witness = (h.vertices[i], h.vertices[j], failed)
    return StateClassification(
        nts=nts,
        unital=unital,
        separable=separable,
        perfectly_separable=perfectly,
        fail_witness=witness,
    )
