"""Implications between the vertices of a gadget, read from pairwise
co-truth counts: the true-implies-false and true-implies-true pairs
(:func:`gadget_scan`, from the verdict masks of :func:`ohg.pairwise._masks`)
and the state counts at a (head, tail) pair (:func:`gadget_profile`).

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
from .model import Hypergraph, _bits, record
from .pairwise import CoTruth, _masks

if TYPE_CHECKING:
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
    met, implied = _masks(t.cooc)
    names, nbr = h.vertices, h.neighbor_masks
    full = (1 << t.n_cols) - 1
    tifs = set()
    tits = set()
    for i, m in enumerate(met):
        others = full & ~(1 << i)
        tifs.update((names[i], names[j]) for j in _bits(others & ~(m | nbr[i])))
        if m >> i & 1:
            tits.update((names[i], names[j]) for j in _bits(others & implied[i]))
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
