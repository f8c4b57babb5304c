"""Pairwise co-truth counts of the two-valued states, and the separability
verdicts read from them.

:func:`cotruth` counts, without a state table, how many states make each
vertex true and each pair of vertices true together. It runs the search
(:func:`ohg.engine.search`) once and reads the counts off its trace: one
pass up and one down per vertex (:func:`_true_counts`). The counts come
from the trace or from a table (:attr:`ohg.states.TravisMatrix.cooc`): a
``k``-tuple of ``k``-tuples of exact Python ints, ``cooc[i][j]``, with the
column sums on the diagonal, since the counts of the 378-vertex binding pass
2**63.

Every verdict reads one form, two masks per vertex: :func:`_masks` reads
them off the counts, and :func:`_verdicts` off the trace in one pass up and
one down, with OR and AND in place of the counts' sums and products. The
``classify`` command and :func:`~ohg.reconstruction.evaluate` take the
trace's masks, so no command computes a count beyond the state count.

This is the part of the state analyses that ``classify`` and
``reconstruct`` run; :mod:`ohg.states` holds the tables and binds these
names on first use, so ``ohg.states.cotruth`` is ``ohg.cotruth``, and the
tables load without this module, nor the verdicts on a table the search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import ColumnCountMismatchError
from .model import Hypergraph, _bits, record

if TYPE_CHECKING:
    from .states import TravisMatrix


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
        return tuple(row[i] for i, row in enumerate(self.cooc))

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
    from .engine import part_counts  # not for a table's verdicts

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
    """State count and pairwise co-truth counts of ``h``, without a table, so
    the 378-vertex binding (about 5.9e23 states) is analysed in under a
    second. The search runs once, and row ``i`` holds the true counts over
    the states false on every neighbour of ``i``, which are exactly the
    states making ``i`` true (:func:`_true_counts`). The result equals
    ``enumerate_states(h).cooc`` (:func:`~ohg.states.enumerate_states`) entry
    for entry.
    """
    from .engine import count, search

    trace = search(h)
    nodes = [[(forced, subs, tuple(_bits(forced))) for forced, subs in part]
             for part in trace]
    rows = (_true_counts(trace, nodes, len(h.vertices), nbr) for nbr in h.neighbor_masks)
    return CoTruth(h.vertices, count(trace), tuple(rows))


def _verdicts(h: Hypergraph) -> tuple[int, list[int], list[int]]:
    """The state count of ``h`` and the masks that :func:`_masks` reads off
    its co-truth counts, taken from the trace without a co-truth count.

    One pass up gives per part the vertices true in some state below it and
    those true in every one. One pass down from the root gives per reached
    part the same two masks for what lies outside it, over the nodes that
    reach it; a node's sub-parts have disjoint vertices, so its other
    sub-parts' masks are a difference. The states through a node make the
    vertices it forces true, so each of those is met with, and implies, what
    those states make true.
    """
    from .engine import count, search

    trace = search(h)
    full = (1 << len(h.vertices)) - 1
    some: list[int] = []
    every: list[int] = []
    for part in trace:
        s, e = 0, full
        for forced, subs in part:
            s |= forced | _union(some, subs)
            e &= forced | _union(every, subs)
        some.append(s)
        every.append(e)
    met, implied = [0] * len(h.vertices), [full] * len(h.vertices)
    # per part reached from the root, its two masks of what lies outside it
    outside: list[Optional[tuple[int, int]]] = [None] * len(trace)
    outside[-1] = (0, 0)
    for p in range(len(trace) - 1, -1, -1):
        if outside[p] is None:
            continue
        out_some, out_every = outside[p]
        for forced, subs in trace[p]:
            s = out_some | forced | _union(some, subs)
            e = out_every | forced | _union(every, subs)
            for v in _bits(forced):
                met[v] |= s
                implied[v] &= e
            for q in subs:
                q_some, q_every = outside[q] or (0, full)
                outside[q] = (q_some | s & ~some[q], q_every & e & ~some[q])
    return count(trace), met, implied


def _union(masks: list[int], at: Iterable[int]) -> int:
    """The union of ``masks[q]`` over the positions ``at``."""
    u = 0
    for q in at:
        u |= masks[q]
    return u


def _where(row: Sequence[int], value: int) -> int:
    """The mask of the columns of ``row`` that hold ``value``."""
    mask, j = 0, -1
    for _ in range(row.count(value)):
        j = row.index(value, j + 1)
        mask |= 1 << j
    return mask


def _masks(rows: Iterable[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Per vertex ``i``, from row ``i`` of the co-truth counts: ``met[i]``,
    the columns true with ``i`` in some state (``i`` too if it is ever
    true), and ``implied[i]``, those true in every state making ``i`` true."""
    met, implied = [], []
    for i, row in enumerate(rows):
        met.append((1 << len(row)) - 1 & ~_where(row, 0))
        implied.append(_where(row, row[i]))
    return met, implied


def _first_equal_pair(implied: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first pair ``i < j`` of equal columns: those whose masks of
    ``implied`` (:func:`_masks`) are equal, as each holds its own column."""
    first: dict[int, int] = {}
    pairs = [(first.setdefault(m, j), j) for j, m in enumerate(implied)]
    return min((p for p in pairs if p[0] != p[1]), default=None)


def _classify(h: Hypergraph, nts: int, met: Sequence[int],
              implied: Sequence[int]) -> StateClassification:
    """:func:`classify` from the state count and the masks of :func:`_masks`."""
    full, nbr = (1 << len(met)) - 1, h.neighbor_masks
    # A pair i < j misses condition 2 where j is true wherever i is, and 3
    # where j is neither ever true with i nor adjacent to it: the first i
    # with such a j gives the first of these. It misses condition 1 where i
    # is true wherever j is: each j with such an i < j gives the lowest bit
    # of implied[j]. The witness is the first pair of all.
    late = ((implied[i] | full & ~(met[i] | nbr[i])) & -2 << i for i in range(len(met)))
    fails = [next(((i, next(_bits(m))) for i, m in enumerate(late) if m), ())]
    fails += ((next(_bits(m)), j) for j, m in enumerate(implied) if m & ~(-1 << j))
    pair = min(filter(None, fails), default=None)
    witness: Optional[tuple[str, str, int]] = None
    if pair:
        i, j = pair
        failed = 1 if implied[j] >> i & 1 else 2 if implied[i] >> j & 1 else 3
        witness = (h.vertices[i], h.vertices[j], failed)
    return StateClassification(
        nts=nts,
        unital=nts > 0 and all(m >> i & 1 for i, m in enumerate(met)),
        separable=_first_equal_pair(implied) is None,
        perfectly_separable=pair is None,
        fail_witness=witness,
    )


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
    return _classify(h, t.n_rows, *_masks(t.cooc))
