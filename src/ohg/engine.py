"""The counting engine: the search over two-valued states, and the state count.

A two-valued state assigns 0/1 to every vertex so that each context carries
exactly one 1. The engine does depth-first branching on contexts with unit
propagation (a 1 forces 0 on all 2-section neighbors; a context with one
undetermined vertex left forces it to 1; an all-0 context kills the branch).
When the residual problem falls apart into independent components the engine
searches them separately, and it caches every component it searches, keyed by
the component's contexts and its undetermined vertices (the component caching
of #SAT model counters), so a component met again in another branch costs one
lookup. That counts the 378-vertex binding (about 5.9e23 states) in a fraction
of a second.

The search runs once and returns its trace (:meth:`_Problem.compile`), a
decision-DNNF in the sense of Huang and Darwiche ("The language of search",
JAIR 2007): nodes that force vertices true, over independent parts, each a
choice between the branches of one context. Every question is then a pass
over the trace. This module holds the counting pass (:func:`count`, which also
counts the states false on a set of vertices) and :func:`count_states`;
:mod:`ohg.states` adds the passes for co-truth counts and for the rows
themselves. ``ohg states --count-only`` loads this module alone, not the
table code.

The engine works on :mod:`ohg.model`'s masks, bit ``i`` = vertex ``i``, taken
from :attr:`Hypergraph.context_masks` and :attr:`Hypergraph.neighbor_masks`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .model import Hypergraph, _bits


class _Problem:
    """The DFS engine over a hypergraph's context and neighbour masks."""

    __slots__ = ("ctx_masks", "nbr")

    def __init__(self, h: Hypergraph):
        self.ctx_masks = h.context_masks
        self.nbr = h.neighbor_masks

    def propagate(self, ones: int, zeros: int, active: Sequence[int]):
        """Unit-propagate to fixpoint; ``None`` on contradiction, else the
        updated masks and the still-unresolved context indices."""
        masks = self.ctx_masks
        nbr = self.nbr
        while True:
            changed = False
            remaining = []
            for ci in active:
                c = masks[ci]
                if c & ones:
                    continue
                rem = c & ~zeros
                if rem == 0:
                    return None
                if rem & (rem - 1) == 0:
                    ones |= rem
                    # rem has no true neighbour: a true vertex zeroes them all
                    zeros |= nbr[rem.bit_length() - 1]
                    changed = True
                else:
                    remaining.append(ci)
            if not changed:
                return ones, zeros, remaining
            active = remaining

    def branch_context(self, zeros: int, active: Sequence[int]) -> int:
        """Unresolved context with fewest undetermined vertices; ties go to the
        lowest context index."""
        best = active[0]
        best_n = (self.ctx_masks[best] & ~zeros).bit_count()
        for ci in active[1:]:
            n = (self.ctx_masks[ci] & ~zeros).bit_count()
            if n < best_n:
                best, best_n = ci, n
        return best

    def components(self, zeros: int, active: Sequence[int]):
        """Group unresolved contexts that share undetermined vertices.

        Each group comes as ``(context bits, undetermined vertices, sorted
        context indices)``; groups are ordered by their lowest context index.
        """
        comps: list[tuple[int, int, list[int]]] = []
        for ci in active:
            und = self.ctx_masks[ci] & ~zeros
            bits = 1 << ci
            group = [ci]
            rest = []
            for mask, group_bits, members in comps:
                if mask & und:
                    und |= mask
                    bits |= group_bits
                    group.extend(members)
                else:
                    rest.append((mask, group_bits, members))
            rest.append((und, bits, group))
            comps = rest
        return [(bits, und, sorted(group))
                for und, bits, group in sorted(comps, key=lambda c: min(c[2]))]

    def compile(
        self,
        memo: dict,
        ones: int = 0,
        fresh: int = 0,
        zeros: int = 0,
        active: Optional[Sequence[int]] = None,
        progress: Optional[Callable] = None,
    ) -> Optional[tuple]:
        """The trace of the search over the states extending ``ones | fresh``
        and ``zeros`` on ``active``, or ``None`` when there is none.

        A node is ``(forced, parts)``: ``forced`` holds the vertices set true
        at the node (``fresh`` and every vertex propagation forces here), and
        each part, one residual component, is the tuple of the nodes for the
        branches of its branching context. A state picks one node of every
        part below the nodes it picks, and is true exactly on the vertices
        those nodes force. ``memo`` maps each component to its part; one dict
        serves one hypergraph and every branch of the search, so a component
        met again is shared, not searched again. With ``progress`` the node is
        branched as a whole, and each branch (a node or ``None``) is reported
        as it is found.
        """
        if active is None:
            active = range(len(self.ctx_masks))
        res = self.propagate(ones | fresh, zeros, active)
        if res is None:
            return None
        now, zeros, active = res
        forced = now & ~ones
        if not active:
            return forced, ()
        if progress:
            whole = self._branch(memo, now, zeros, active, progress)
            return (forced, (whole,)) if whole else None
        parts = []
        for group_bits, und, group in self.components(zeros, active):
            # A group's part depends only on which of its vertices are still
            # undetermined: none of them is true (its contexts are
            # unresolved), and no undetermined vertex has a true neighbour,
            # because setting a vertex true zeroes all its neighbours. So
            # ``ones`` is left out of the key. For a fixed group, ``und`` is
            # the union of its context masks minus ``zeros``, so it carries
            # the same information as ``zeros`` restricted to that union.
            key = (group_bits, und)
            part = memo.get(key)
            if part is None:
                part = memo[key] = self._branch(memo, now, zeros, group)
            if not part:
                return None
            parts.append(part)
        return forced, tuple(parts)

    def _branch(
        self,
        memo: dict,
        ones: int,
        zeros: int,
        active: Sequence[int],
        progress: Optional[Callable] = None,
    ) -> tuple:
        """The nodes of each way to make one undetermined vertex of the
        branching context true."""
        ci = self.branch_context(zeros, active)
        branches = []
        for v in _bits(self.ctx_masks[ci] & ~zeros):
            # no conflict test: an undetermined vertex never has a true neighbour
            node = self.compile(memo, ones, 1 << v, zeros | self.nbr[v], active)
            if node is not None:
                branches.append(node)
            if progress:
                progress(node)
        return tuple(branches)


def count(node: Optional[tuple], zeros: int = 0) -> int:
    """Number of states below the trace ``node`` that are false on every
    vertex of ``zeros``: a node forcing one of them counts 0, any other the
    product over its parts of the sum over their nodes. Each part is
    counted once, however many nodes share it."""
    sums: dict[int, int] = {}

    def up(node: tuple) -> int:
        forced, parts = node
        if forced & zeros:
            return 0
        n = 1
        for part in parts:
            s = sums.get(id(part))
            if s is None:
                s = sums[id(part)] = sum(map(up, part))
            n *= s
        return n

    return up(node) if node else 0


def count_states(
    h: Hypergraph, *, progress: Optional[Callable[[int], None]] = None
) -> int:
    """Number of two-valued states, without storing rows.

    Counting caches every residual component for the duration of the call.
    ``progress`` is invoked with the running total after each branch of the
    root node.
    """
    report = None
    if progress:
        total = 0

        def report(branch: Optional[tuple]) -> None:
            nonlocal total
            total += count(branch)
            progress(total)

    return count(_Problem(h).compile({}, progress=report))
