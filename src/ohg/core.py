"""Graph algorithms over hypergraphs: 2-section, cliques, structure checks,
isomorphism. The data model they work on is :mod:`ohg.model`'s, re-exported
here, so ``ohg.core.Hypergraph`` is ``ohg.model.Hypergraph``. The clique and
component masks and the shape report live in :mod:`ohg.cliques` and are
re-exported too, so that the commands that need only those (``classify``,
``chroma``, ``color``, ``compose bind``) do not load the rest; of the
commands, only ``reconstruct`` loads this module.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple, Optional

from .cliques import ShapeReport, _clique_masks, _component_masks, shape  # noqa: F401 (re-exported)
from .model import Hypergraph, _bits, build, record  # noqa: F401 (re-exported)


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


def _vertex_signature(h: Hypergraph) -> dict[str, tuple]:
    nbr = h.neighbor_masks
    idx = h.index
    degrees = {v: nbr[idx[v]].bit_count() for v in h.vertices}
    sig = {}
    for v in h.vertices:
        ctx_sizes = tuple(sorted(len(c) for c in h.contexts if v in c))
        nd = [degrees[h.vertices[u]] for u in _bits(nbr[idx[v]])]
        sig[v] = (degrees[v], ctx_sizes, tuple(sorted(nd)))
    return sig


def is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> Optional[dict[str, str]]:
    """A vertex bijection mapping contexts onto contexts, or ``None``.

    Invariant-refined backtracking, not canonical labeling: fine for the
    desk-scale instances this package targets (~120 vertices).
    """
    if len(h1.vertices) != len(h2.vertices) or len(h1.contexts) != len(h2.contexts):
        return None
    if sorted(len(c) for c in h1.contexts) != sorted(len(c) for c in h2.contexts):
        return None
    sig1, sig2 = _vertex_signature(h1), _vertex_signature(h2)
    if Counter(sig1.values()) != Counter(sig2.values()):
        return None
    classes: dict[tuple, list[str]] = {}
    for v, s in sig2.items():
        classes.setdefault(s, []).append(v)

    contexts2 = set(h2.contexts)
    # grow the mapping along adjacencies, most-constrained first: a vertex
    # with mapped neighbors has its image pinned down hard, which is what
    # keeps the search from thrashing on symmetric instances
    order: list[str] = []
    placed: set[str] = set()
    remaining = set(h1.vertices)
    while remaining:
        nxt = min(
            remaining,
            key=lambda v: (
                -sum(1 for u in placed if h1.adjacent(v, u)),
                len(classes[sig1[v]]),
                v,
            ),
        )
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def feasible(v: str, w: str) -> bool:
        for u, x in mapping.items():
            if h1.adjacent(v, u) != h2.adjacent(w, x):
                return False
        # any context fully mapped once v is placed must land on a context of h2
        trial = dict(mapping)
        trial[v] = w
        for ctx in h1.contexts:
            if v in ctx and all(u in trial for u in ctx):
                if frozenset(trial[u] for u in ctx) not in contexts2:
                    return False
        return True

    def assign(pos: int) -> bool:
        if pos == len(order):
            image = {frozenset(mapping[u] for u in ctx) for ctx in h1.contexts}
            return image == contexts2
        v = order[pos]
        for w in sorted(classes[sig1[v]]):
            if w in used or not feasible(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if assign(pos + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return dict(mapping) if assign(0) else None


def four_cycle_lint(h: Hypergraph) -> list[FourCycle]:
    """Closed chains of four contexts with four distinct intertwining vertices.

    A nonempty result flags the hypergraph as having no faithful orthogonal
    representation: antipodal vertices of such a cycle would be forced
    colinear. Cycles are reported once, canonicalized up to rotation and
    reflection.
    """
    ctxs = h.contexts
    m = len(ctxs)
    inter = [[ctxs[i] & ctxs[j] for j in range(m)] for i in range(m)]
    found: dict[tuple, FourCycle] = {}
    for a in range(m):
        for b in range(m):
            if b == a or not inter[a][b]:
                continue
            for c in range(m):
                if c in (a, b) or not inter[b][c]:
                    continue
                for d in range(m):
                    if d in (a, b, c) or not inter[c][d] or not inter[d][a]:
                        continue
                    for vab in sorted(inter[a][b]):
                        for vbc in sorted(inter[b][c]):
                            if vbc == vab:
                                continue
                            for vcd in sorted(inter[c][d]):
                                if vcd in (vab, vbc):
                                    continue
                                for vda in sorted(inter[d][a]):
                                    if vda in (vab, vbc, vcd):
                                        continue
                                    key = _canonical_cycle((a, b, c, d))
                                    if key not in found:
                                        found[key] = FourCycle(
                                            (a, b, c, d), (vab, vbc, vcd, vda)
                                        )
    return [found[k] for k in sorted(found)]


def _canonical_cycle(cycle: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    variants = []
    for seq in (cycle, cycle[::-1]):
        for shift in range(4):
            variants.append(seq[shift:] + seq[:shift])
    return min(variants)
