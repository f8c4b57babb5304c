"""The exact chromatic number of a hypergraph's 2-section, with an optimal
colouring, and Brooks' bound.

The chromatic number (:func:`exact_coloring`) needs no state table. Each
connected component of the 2-section is coloured on its own, trying
k = ω, ω + 1, ... colours by a search with forward checking over
colour-domain bitmasks, under a node budget instead of a cap on the number
of vertices. The search nests once per coloured vertex on the one driver of
nested walks (:func:`ohg.walk._drive`). At k = ω a context of ω vertices must show every colour; when
every context has ω vertices, the colouring found is a partition into ω
two-valued states, the certificate of χ = ω.

This module is the part of the colouring code that ``chroma``, ``classify``
and ``color --algorithm exact`` run; :mod:`ohg.coloring` holds the
state-based searches and re-exports these names, so
``ohg.coloring.exact_chromatic`` is ``ohg.exact_chromatic``.
"""

from __future__ import annotations

from typing import Optional

from .cliques import _clique_masks, _component_masks
from .errors import DisconnectedError, NotProperError, OhgError, SizeLimitError
from .model import Hypergraph, _bits, record
from .walk import _drive

# Search nodes exact_coloring may spend in all. A node costs ~76 us on the
# 378 vertices of bind(fig4), so the budget runs out within about 4 s there.
_NODE_BUDGET = 50_000


@record
class Coloring:
    """A proper vertex coloring with colors 1..m; properness is enforced."""

    hypergraph: Hypergraph
    color_of: dict[str, int]

    def __post_init__(self) -> None:
        h = self.hypergraph
        missing = set(h.vertices) - set(self.color_of)
        if missing:
            raise OhgError(f"coloring misses vertices {sorted(missing)!r}")
        for ctx in h.contexts:
            seen: dict[int, str] = {}
            for v in sorted(ctx):
                c = self.color_of[v]
                if c in seen:
                    raise NotProperError(
                        f"vertices {seen[c]!r} and {v!r} share a context and color {c}"
                    )
                seen[c] = v

    @property
    def num_colors(self) -> int:
        return len(set(self.color_of.values()))

    def color_class(self, color: int) -> frozenset[str]:
        return frozenset(v for v, c in self.color_of.items() if c == color)

    def colors(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.color_of.values())))


def _k_coloring(
    k: int,
    nbrs: list[list[int]],
    tight: list[list[int]],
    seeds: list[int],
    rank: list[int],
    cutoff: int,
) -> tuple[Optional[list[int]], int]:
    """One attempt at a ``k``-colouring of a connected graph, by depth-first
    search with forward checking, and the number of nodes it took.

    ``nbrs`` lists each vertex's neighbours and ``tight`` the contexts of
    exactly ``k`` vertices. Each vertex keeps the mask of colours it can
    still take (bit ``c - 1`` for colour ``c``). The clique ``seeds`` takes
    colours 1, 2, ... first. Each node colours the uncoloured vertex with the
    fewest colours left, ties going to the lowest ``rank``, trying its
    colours in increasing order and a colour above those in use only as the
    next one. Colouring a vertex takes its colour from its neighbours, and a
    neighbour left with one colour is coloured in turn. A tight context must
    show every colour, so a colour that only one of its members can still
    take is put on that member.

    The result is the colouring, or ``None`` when there is none, or ``None``
    after ``cutoff + 1`` nodes when the attempt gives up; only a ``None``
    within the cutoff proves that ``k`` colours do not suffice.
    """
    n = len(nbrs)
    full = (1 << k) - 1
    tight_of: list[list[int]] = [[] for _ in range(n)]
    for i, members in enumerate(tight):
        for v in members:
            tight_of[v].append(i)

    col, dom = [0] * n, [full] * n
    trail: list[tuple[int, int]] = []  # (vertex, its domain before a change)

    def assign(v: int, c: int) -> bool:
        """Colour ``v`` with ``c`` and propagate, recording each change on
        the trail; ``False`` on a wipe-out."""
        todo = [(v, c)]
        pending = 0  # mask of tight contexts to check
        while todo or pending:
            while todo:
                v, c = todo.pop()
                bit = 1 << c - 1
                if not dom[v] & bit:
                    return False
                if col[v]:
                    continue
                trail.append((v, dom[v]))
                col[v] = c
                dom[v] = bit
                for i in tight_of[v]:
                    pending |= 1 << i
                for u in nbrs[v]:
                    d = dom[u]
                    if col[u] or not d & bit:
                        continue
                    d ^= bit
                    if not d:
                        return False
                    trail.append((u, dom[u]))
                    dom[u] = d
                    if not d & d - 1:
                        todo.append((u, d.bit_length()))
                    for i in tight_of[u]:
                        pending |= 1 << i
            if pending:
                low = pending & -pending
                pending ^= low
                members = tight[low.bit_length() - 1]
                once = twice = 0
                for m in members:
                    twice |= once & dom[m]
                    once |= dom[m]
                if once != full:
                    return False
                single = once & ~twice
                for m in members:
                    only = dom[m] & single
                    if only and not col[m]:
                        if only & only - 1:
                            return False
                        todo.append((m, only.bit_length()))
        return True

    nodes = 0

    def colour():
        """Colour the free vertex with the fewest colours left, trying each
        colour, yielding the walk of the rest and undoing the colour's changes
        from the trail; the colouring, or ``None``."""
        nonlocal nodes
        v = min((v for v in range(n) if not col[v]),
                key=lambda v: (dom[v].bit_count(), rank[v]), default=None)
        if v is None:
            return col
        for c in _bits(dom[v] & (2 << max(col)) - 1):
            nodes += 1
            if nodes > cutoff:
                return None
            mark = len(trail)
            if assign(v, c + 1):
                found = yield colour()
                if found is not None or nodes > cutoff:
                    return found
            while len(trail) > mark:
                u, dom[u] = trail.pop()
                col[u] = 0
        return None

    for c, v in enumerate(seeds, start=1):
        if not assign(v, c):
            return None, 0
    colors = _drive(colour())
    return colors, nodes


def _rank(nbrs: list[list[int]], attempt: int) -> list[int]:
    """Each vertex's place when higher degrees come first, ties going to the
    lower index on attempt 0 and to a shuffle seeded with ``attempt`` after."""
    tie = list(range(len(nbrs)))
    if attempt:
        import random

        random.Random(attempt).shuffle(tie)
    order = sorted(range(len(tie)), key=lambda v: (-len(nbrs[v]), tie[v]))
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    return rank


def exact_coloring(h: Hypergraph) -> tuple[int, Coloring]:
    """Exact chromatic number of the 2-section plus one optimal colouring.

    Each connected component is coloured on its own, and the chromatic
    number is the largest of theirs. A component with clique number ω tries
    k = ω, ω + 1, ... colours, with one largest clique fixed to colours
    1..ω, until :func:`_k_coloring` finds a colouring. An attempt that
    reaches its node cutoff is restarted with the ties of its vertex order
    broken by a seeded shuffle and a cutoff twice as large (Gomes, Selman &
    Kautz, 1998). Past :data:`_NODE_BUDGET` nodes in all, the search stops
    with :class:`SizeLimitError`.

    With k = ω, a context of ω vertices shows every colour, so when every
    context has ω vertices each colour class of the result is a two-valued
    state.
    """
    nbr = h.neighbor_masks
    cliques = _clique_masks(nbr)
    color_of = [0] * len(nbr)
    chi = spent = 0
    for comp in _component_masks(nbr):
        verts = list(_bits(comp))
        local = {v: i for i, v in enumerate(verts)}
        nbrs = [[local[u] for u in _bits(nbr[v])] for v in verts]
        contexts = [[local[v] for v in _bits(m)]
                    for m in h.context_masks if m & comp]
        first = _rank(nbrs, 0)
        # the largest clique whose members come first in the vertex order:
        # when DSATUR's first picks make a largest clique, it is that one
        clique = min(
            ([local[v] for v in _bits(m)] for m in cliques if m & comp),
            key=lambda c: (-len(c), sorted(map(first.__getitem__, c))),
        )
        seeds = sorted(clique, key=first.__getitem__)
        k = len(seeds)
        while True:
            tight = [members for members in contexts if len(members) == k]
            cutoff, attempt = len(verts), 0
            while True:
                rank = _rank(nbrs, attempt)
                limit = min(cutoff, _NODE_BUDGET - spent)
                colors, nodes = _k_coloring(k, nbrs, tight, seeds, rank, limit)
                spent += nodes
                if colors is not None or nodes <= limit:
                    break
                if spent > _NODE_BUDGET:
                    raise SizeLimitError(
                        f"exact chromatic search stopped after {_NODE_BUDGET} "
                        f"nodes on {len(h.vertices)} vertices"
                    )
                cutoff *= 2
                attempt += 1
            if colors is not None:
                break
            k += 1
        chi = max(chi, k)
        for v, c in zip(verts, colors):
            color_of[v] = c
    return chi, Coloring(h, dict(zip(h.vertices, color_of)))


def exact_chromatic(h: Hypergraph) -> int:
    """Exact chromatic number of the 2-section (see :func:`exact_coloring`)."""
    return exact_coloring(h)[0]


def brooks_bound(h: Hypergraph) -> int:
    """Brooks' upper bound on the chromatic number of the 2-section:
    the maximum degree, except one more for complete graphs and odd cycles.
    Requires a connected 2-section."""
    nbr = h.neighbor_masks
    n = len(nbr)
    if len(_component_masks(nbr)) > 1:
        raise DisconnectedError("Brooks bound needs a connected 2-section")
    degrees = [m.bit_count() for m in nbr]
    delta = max(degrees)
    complete = all(d == n - 1 for d in degrees)
    odd_cycle = n % 2 == 1 and all(d == 2 for d in degrees)
    return delta + 1 if complete or odd_cycle else delta
