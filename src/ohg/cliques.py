"""Cliques and components of the 2-section on vertex masks, and the shape
report read from them.

A hypergraph's 2-section is the graph of :attr:`Hypergraph.neighbor_masks`,
so these work on :mod:`ohg.model`'s masks (bit ``i`` = vertex ``i``) without
building a :class:`~ohg.core.Graph`. This is the part of the graph
algorithms that classification, the exact chromatic number and the binding
construction run; :mod:`ohg.core` holds the rest (named graphs, maximal
cliques by name, isomorphism, the four-cycle lint) and re-exports these
names, so ``ohg.core.shape`` is ``ohg.shape``.
"""

from __future__ import annotations

from typing import Sequence

from .model import Hypergraph, _bits, record
from .walk import _drive


@record
class ShapeReport:
    """Structural summary of a hypergraph against the quantum-logic shape laws."""

    clique_number: int
    uniform: bool
    conformal: bool
    completion_ok: bool
    max_degree: int


def _clique_masks(nbr: Sequence[int]) -> list[int]:
    """The inclusion-maximal cliques of the graph with neighbour masks
    ``nbr``, as vertex masks.

    Bron-Kerbosch with pivoting on bitmasks. The 2-section of a hypergraph
    ``h`` is the graph of ``h.neighbor_masks``. The search nests once per
    clique member, on the walks' stack (:func:`ohg.walk._drive`), so a
    context of thousands of vertices is one clique like any other.
    """
    out: list[int] = []

    def expand(clique: int, cand: int, excl: int):
        if not cand and not excl:
            out.append(clique)
            return
        best, best_deg = -1, -1
        for v in _bits(cand | excl):
            d = (cand & nbr[v]).bit_count()
            if d > best_deg:
                best, best_deg = v, d
        for v in _bits(cand & ~nbr[best]):
            low = 1 << v
            yield expand(clique | low, cand & nbr[v], excl & nbr[v])
            cand &= ~low
            excl |= low
    if nbr:
        _drive(expand(0, (1 << len(nbr)) - 1, 0))
    return out


def _component_masks(nbr: Sequence[int]) -> list[int]:
    """The connected components of the graph with neighbour masks ``nbr``,
    as vertex masks, in the order of their lowest vertex."""
    out = []
    rest = (1 << len(nbr)) - 1
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= nbr[v]
            frontier = reach & ~seen
            seen |= frontier
        out.append(seen)
        rest &= ~seen
    return out


def shape(h: Hypergraph) -> ShapeReport:
    """Check uniformity, conformality and the completion criterion.

    ``clique_number`` is the clique number of the 2-section. ``completion_ok``
    holds when no context is smaller than that number, i.e. every adjacency
    sits inside a full-size context.
    """
    nbr = h.neighbor_masks
    cliques = _clique_masks(nbr)
    n = max(m.bit_count() for m in cliques)
    sizes = {len(ctx) for ctx in h.contexts}
    return ShapeReport(
        clique_number=n,
        uniform=sizes == {n},
        conformal=set(cliques) == set(h.context_masks),
        completion_ok=min(sizes) >= n,
        max_degree=max(m.bit_count() for m in nbr),
    )
