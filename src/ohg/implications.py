"""Implications between the vertices of a gadget, read from pairwise
co-truth counts: the true-implies-false and true-implies-true pairs
(:func:`gadget_scan`) and the state counts at a (head, tail) pair
(:func:`gadget_profile`).

Both take a state table or the co-truth counts of
:func:`~ohg.pairwise.cotruth`. :mod:`ohg.states` binds these names on first
use, so ``ohg.states.gadget_scan`` is ``ohg.gadget_scan``, and the tables
load without this module. No command loads it: the gadget compositions
check their one (head, tail) pair with a count of the search
(:class:`ohg.gadgets.BindSpec`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import ColumnCountMismatchError, NotAGadgetPairError, OhgError
from .model import Hypergraph, record

if TYPE_CHECKING:
    from .pairwise import CoTruth
    from .states import TravisMatrix


@record
class GadgetProfile:
    """State counts at a (head, tail) pair that is never jointly true."""

    head: str
    tail: str
    n_a: int
    n_b: int
    n_n: int


class GadgetScan(NamedTuple):
    tifs_pairs: frozenset[tuple[str, str]]
    tits_pairs: frozenset[tuple[str, str]]


def gadget_scan(h: Hypergraph, t: TravisMatrix | CoTruth) -> GadgetScan:
    """True-implies-false and true-implies-true pairs of the state table or
    of its co-truth counts.

    TIFS pairs are restricted to non-adjacent vertices: adjacency forbids
    co-truth trivially and would flood the output. TITS pairs require the
    head to be true in at least one state, so vacuous implications are out.
    """
    if t.vertices != h.vertices:
        raise ColumnCountMismatchError(
            "state table columns do not match the hypergraph's vertices"
        )
    if t.n_rows == 0:
        raise OhgError("gadget_scan needs at least one two-valued state")
    cooc = t.cooc
    colsum = t.column_sums
    names, nbr = h.vertices, h.neighbor_masks
    k = t.n_cols
    tifs = set()
    tits = set()
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if cooc[i][j] == 0 and not nbr[i] >> j & 1:
                tifs.add((names[i], names[j]))
            if colsum[i] > 0 and cooc[i][j] == colsum[i]:
                tits.add((names[i], names[j]))
    return GadgetScan(frozenset(tifs), frozenset(tits))


def gadget_profile(t: TravisMatrix | CoTruth, head: str, tail: str) -> GadgetProfile:
    """Count states with head true / tail true / both false.

    Raises :class:`NotAGadgetPairError` if some state sets both to 1 (the
    three counts would not partition the states)."""
    if head == tail:
        raise OhgError("head and tail of a gadget pair must differ")
    for v in (head, tail):
        if v not in t.vertices:
            raise OhgError(f"{v!r} is not a column of the state table")
    i = t.vertices.index(head)
    j = t.vertices.index(tail)
    if t.cooc[i][j] > 0:
        raise NotAGadgetPairError(
            f"{head!r} and {tail!r} are jointly true in some state"
        )
    n_a, n_b = t.column_sums[i], t.column_sums[j]
    return GadgetProfile(head, tail, n_a, n_b, t.n_rows - n_a - n_b)
