"""Graph algorithms over hypergraphs: 2-section, cliques, structure checks,
isomorphism. The data model they work on is :mod:`ohg.model`'s, re-exported
here, so ``ohg.core.Hypergraph`` is ``ohg.model.Hypergraph``. The shape
report lives in :mod:`ohg.cliques`, with the clique and component masks, and
is re-exported too, so that the commands that need only those (``classify``,
``chroma``, ``color``, ``compose bind``) do not load the rest; of the
commands, only ``reconstruct`` loads this module.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import product
from typing import NamedTuple, Optional

from .cliques import ShapeReport, _clique_masks, shape  # noqa: F401 (re-exported)
from .errors import SizeLimitError
from .model import Hypergraph, _bits, build, record  # noqa: F401 (re-exported)
from .walk import _drive

# Dead ends is_isomorphic may reach: placements whose rest of the mapping
# fails. The 4x4 rook's graph against the Shrikhande graph, both
# 6-regular on 16 vertices, reaches 304 of them.
_ISO_DEAD_ENDS = 10 ** 6


@record
class Graph:
    """A plain graph: named vertices and undirected edges."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        declared = set(self.vertices)
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"edge must join two distinct vertices: {set(edge)!r}")
            if not edge <= declared:
                raise ValueError(f"edge references undeclared vertex: {set(edge)!r}")

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        idx = self.index
        nbr = [0] * len(self.vertices)
        for edge in self.edges:
            u, v = tuple(edge)
            nbr[idx[u]] |= 1 << idx[v]
            nbr[idx[v]] |= 1 << idx[u]
        return tuple(nbr)

    def degree(self, v: str) -> int:
        return self.neighbor_masks[self.index[v]].bit_count()

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class FourCycle(NamedTuple):
    """Four contexts forming a closed intertwine chain, with the four
    (pairwise distinct) intertwining vertices witnessing it."""

    contexts: tuple[int, int, int, int]
    vertices: tuple[str, str, str, str]


def two_section(h: Hypergraph) -> Graph:
    """The graph joining every two vertices that share a context."""
    edges = set()
    for ctx in h.contexts:
        members = sorted(ctx)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                edges.add(frozenset((u, v)))
    return Graph(h.vertices, frozenset(edges))


def maximal_cliques(g: Graph) -> tuple[frozenset[str], ...]:
    """All inclusion-maximal cliques of ``g``, sorted for determinism."""
    cliques = [frozenset(g.vertices[v] for v in _bits(mask))
               for mask in _clique_masks(g.neighbor_masks)]
    return tuple(sorted(cliques, key=lambda c: sorted(c)))


def _vertex_signature(h: Hypergraph) -> list[tuple]:
    """Per vertex index: its degree, the sizes of its contexts and the
    degrees of its neighbours, each sorted."""
    nbr, sizes = h.neighbor_masks, [[] for _ in h.vertices]
    for c in h.context_masks:
        for v in _bits(c):
            sizes[v].append(c.bit_count())
    return [(m.bit_count(), tuple(sorted(sizes[v])),
             tuple(sorted(nbr[u].bit_count() for u in _bits(m))))
            for v, m in enumerate(nbr)]


def is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> Optional[dict[str, str]]:
    """A vertex bijection mapping contexts onto contexts, or ``None``.

    Invariant-refined backtracking, not canonical labeling. Each vertex of
    ``h1``, in a fixed order, tries the vertices of ``h2`` with its
    signature in name order, at a few mask operations per candidate, so the
    bindings (a few hundred vertices) take milliseconds. The search nests
    once per vertex on the one driver of nested walks
    (:func:`ohg.walk._drive`), so Python's recursion limit does not bound
    the vertices. Past :data:`_ISO_DEAD_ENDS` placements that lead nowhere
    it raises :class:`SizeLimitError`.
    """
    # equal signatures give equal vertex counts and context sizes
    sig1, sig2 = _vertex_signature(h1), _vertex_signature(h2)
    if Counter(sig1) != Counter(sig2):
        return None
    n, names1, names2 = len(sig1), h1.vertices, h2.vertices
    nbr1, nbr2 = h1.neighbor_masks, h2.neighbor_masks
    classes: dict[tuple, list[int]] = {}
    for w in sorted(range(n), key=names2.__getitem__):
        classes.setdefault(sig2[w], []).append(w)

    # grow the mapping along adjacencies, most-constrained first: a vertex
    # with mapped neighbors has its image pinned down hard, which is what
    # keeps the search from thrashing on symmetric instances. A step holds
    # the vertex, its neighbours placed before it and the rest of each
    # context it completes. The heap holds an entry for each count of placed
    # neighbours an unplaced vertex has had; only the current count's is live.
    steps, done, placed_nbrs = [], 0, [0] * n
    of1 = [[] for _ in range(n)]  # each vertex's contexts, in context order
    for c in h1.context_masks:
        for v in _bits(c):
            of1[v].append(c)
    heap = [(0, len(classes[sig1[v]]), names1[v], v) for v in range(n)]
    heapify(heap)
    while heap:
        key, _, _, v = heappop(heap)
        if -key != placed_nbrs[v]:
            continue
        steps.append((v, list(_bits(nbr1[v] & done)),
                      [list(_bits(c & done)) for c in of1[v]
                       if c & ~done == 1 << v]))
        done |= 1 << v
        for u in _bits(nbr1[v] & ~done):
            placed_nbrs[u] += 1
            heappush(heap, (-placed_nbrs[u], len(classes[sig1[u]]), names1[u], u))
    contexts2, image = set(h2.context_masks), [0] * n
    dead_ends = 0

    def place(p: int, used: int):
        """Map the vertex of step ``p`` to each feasible candidate in turn,
        yielding the walk of the next step; whether the mapping completes."""
        nonlocal dead_ends
        if p == n:
            return True
        v, earlier, completed = steps[p]
        want = sum(1 << image[u] for u in earlier)
        rests = [sum(1 << image[u] for u in rest) for rest in completed]
        for w in classes[sig1[v]]:
            bit = 1 << w
            if (not used & bit and nbr2[w] & used == want
                    and all(r | bit in contexts2 for r in rests)):
                image[v] = w
                if (yield place(p + 1, used | bit)):
                    return True
                dead_ends += 1
                if dead_ends > _ISO_DEAD_ENDS:
                    raise SizeLimitError(
                        f"isomorphism search stopped after {_ISO_DEAD_ENDS} dead ends"
                    )
        return False

    # Each context of h1 lands on a context of h2 as it is completed, and a
    # bijection keeps distinct contexts apart, so with equal context counts
    # a full mapping carries the contexts onto the contexts.
    if _drive(place(0, 0)):
        return {names1[v]: names2[image[v]] for v, _, _ in steps}
    return None


def four_cycle_lint(h: Hypergraph) -> list[FourCycle]:
    """Closed chains of four contexts with four distinct intertwining vertices.

    A nonempty result flags the hypergraph as having no faithful orthogonal
    representation: antipodal vertices of such a cycle would be forced
    colinear. Each cycle is reported once, in its least rotation or
    reflection (``a`` first, ``b < d``), with the first choice of vertices
    over the sorted intersections; cycles come out sorted.
    """
    ctxs = h.contexts
    m = len(ctxs)
    inter = [[sorted(ctxs[i] & ctxs[j]) for j in range(m)] for i in range(m)]
    cycles = []
    for a in range(m):
        for b in range(a + 1, m):
            if not inter[a][b]:
                continue
            for c in range(a + 1, m):
                if c == b or not inter[b][c]:
                    continue
                for d in range(b + 1, m):
                    if d == c or not inter[c][d] or not inter[d][a]:
                        continue
                    for vertices in product(inter[a][b], inter[b][c],
                                            inter[c][d], inter[d][a]):
                        if len(set(vertices)) == 4:
                            cycles.append(FourCycle((a, b, c, d), vertices))
                            break
    return cycles
