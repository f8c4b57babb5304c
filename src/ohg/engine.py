"""The counting engine: the search over two-valued states, and the state count.

A two-valued state assigns 0/1 to every vertex so that each context carries
exactly one 1. The engine does depth-first branching on contexts with unit
propagation (a 1 forces 0 on all 2-section neighbors; a context with one
undetermined vertex left forces it to 1; an all-0 context kills the branch).
When the residual problem falls apart into independent components the engine
solves them separately and combines, which is what makes the 108-vertex
binding composition (2,239,488 states) enumerable in seconds. The counter also
caches the count of every component it solves, keyed by the component's
contexts and its undetermined vertices (the component caching of #SAT model
counters), so a component met again in another branch costs one lookup. That
counts the 378-vertex binding (about 5.9e23 states) in a fraction of a second.

The branching loop combines its results through an algebra. This module holds
the loop and plain counting (:func:`count_states`); :mod:`ohg.states` adds
co-truth counts and the rows themselves. ``ohg states --count-only`` loads
this module alone, not the table code.

The engine works on :mod:`ohg.core`'s masks, bit ``i`` = vertex ``i``, taken
from :attr:`Hypergraph.context_masks` and :attr:`Hypergraph.neighbor_masks`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .core import Hypergraph, _bits


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

    def solve(
        self,
        alg,
        memo: Optional[dict],
        ones: int = 0,
        fresh: int = 0,
        zeros: int = 0,
        active: Optional[Sequence[int]] = None,
        progress: Optional[Callable] = None,
    ):
        """``alg``'s result over the states extending ``ones | fresh`` and
        ``zeros`` on ``active``.

        The algebra combines results: ``alg.zero`` (falsy) stands for no
        state, ``alg.node(now, forced, parts)`` for independent parts under
        the vertices ``now`` true in every state, of which ``forced``
        (``fresh`` and every vertex propagation forces here) were set at this
        node, and ``alg.add(results)`` for the branches of one context.
        ``memo`` caches the result of each residual component; one dict serves
        one hypergraph, one algebra and every branch of the search. ``None``
        turns the cache off, for results that depend on ``ones``. With
        ``progress`` the node is branched as a whole and the running result is
        reported after each branch.
        """
        if active is None:
            active = range(len(self.ctx_masks))
        res = self.propagate(ones | fresh, zeros, active)
        if res is None:
            return alg.zero
        now, zeros, active = res
        forced = now & ~ones
        if not active:
            return alg.node(now, forced, [])
        if progress:
            whole = self._branch(alg, memo, now, zeros, active, progress)
            return alg.node(now, forced, [whole])
        parts = []
        for group_bits, und, group in self.components(zeros, active):
            if memo is None:
                part = self._branch(alg, memo, now, zeros, group)
            else:
                # A group's result depends only on which of its vertices are
                # still undetermined: none of them is true (its contexts are
                # unresolved), and no undetermined vertex has a true
                # neighbour, because setting a vertex true zeroes all its
                # neighbours. So ``ones`` is left out of the key. For a fixed
                # group, ``und`` is the union of its context masks minus
                # ``zeros``, so it carries the same information as ``zeros``
                # restricted to that union.
                key = (group_bits, und)
                part = memo.get(key)
                if part is None:
                    part = memo[key] = self._branch(alg, memo, now, zeros, group)
            if not part:
                return alg.zero
            parts.append(part)
        return alg.node(now, forced, parts)

    def _branch(
        self,
        alg,
        memo: Optional[dict],
        ones: int,
        zeros: int,
        active: Sequence[int],
        progress: Optional[Callable] = None,
    ):
        """Sum of the results of each way to make one undetermined vertex of
        the branching context true."""
        ci = self.branch_context(zeros, active)
        results = []
        for v in _bits(self.ctx_masks[ci] & ~zeros):
            # no conflict test: an undetermined vertex never has a true neighbour
            zs = zeros | self.nbr[v]
            results.append(self.solve(alg, memo, ones, 1 << v, zs, active))
            if progress:
                progress(alg.add(results))
        return alg.add(results)


class _Count:
    """Plain counting: a result is the number of states."""

    zero = 0

    @staticmethod
    def node(now: int, forced: int, parts: list[int]) -> int:
        return math.prod(parts)

    @staticmethod
    def add(results: list[int]) -> int:
        return sum(results)


def count_states(
    h: Hypergraph, *, progress: Optional[Callable[[int], None]] = None
) -> int:
    """Number of two-valued states, without storing rows.

    Counting caches the count of every residual component for the duration
    of the call. ``progress`` is invoked with the running total after each
    branch of the root node.
    """
    return _Problem(h).solve(_Count, {}, progress=progress)
