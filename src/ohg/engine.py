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

The search runs once and returns its trace (:meth:`_Problem.trace`), a
decision-DNNF in the sense of Huang and Darwiche ("The language of search",
JAIR 2007), as one list of parts, each a choice between nodes that set
vertices true over independent parts earlier in the list, with the root last.
Every question is a loop over that list. This module holds the counting pass
(:func:`part_counts`, also of the states false on a set of vertices) and
:func:`count_states`; :mod:`ohg.pairwise` adds the passes for co-truth
counts, and :mod:`ohg.states` those for the rows themselves. ``ohg states
--count-only`` loads this module alone, not the table code.

The engine works on :mod:`ohg.model`'s masks, bit ``i`` = vertex ``i``, taken
from :attr:`Hypergraph.context_masks` and :attr:`Hypergraph.neighbor_masks`.
"""

from __future__ import annotations

from math import prod
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

    def trace(self, progress: Optional[Callable] = None) -> list[tuple]:
        """The trace of the search: its parts, each after every part below
        it, and last the root's one-node part, empty when there is no state.

        A part, one residual component, holds a node ``(forced, subs)`` for
        each branch of its branching context: ``forced`` holds the vertices set
        true there, ``subs`` the positions of the parts of the components
        left below. A state picks one node of every part below the nodes it
        picks and is true exactly on the vertices they force. The memo maps
        each component to its position, so a component met again is shared.
        With ``progress`` the root is branched as a whole, and
        ``progress(parts, branch)`` reports each branch (a node or ``None``).
        """
        masks, nbr = self.ctx_masks, self.nbr
        parts: list[tuple] = []
        memo: dict[tuple[int, int], int] = {}

        def node(ones: int, fresh: int, zeros: int, active: Sequence[int],
                 report: Optional[Callable] = None) -> Optional[tuple]:
            res = self.propagate(ones | fresh, zeros, active)
            if res is None:
                return None
            now, zeros, active = res
            forced = now & ~ones
            if report and active:
                parts.append(branch(now, zeros, active, report))
                return (forced, (len(parts) - 1,)) if parts[-1] else None
            subs = []
            for group_bits, und, group in self.components(zeros, active):
                # The part depends only on which of the group's vertices are
                # undetermined: none is true (its contexts are unresolved) or
                # has a true neighbour (a true vertex zeroes them all), so
                # ``ones`` stays out of the key; ``und`` is the union of the
                # group's context masks minus ``zeros``.
                key = (group_bits, und)
                at = memo.get(key)
                if at is None:
                    part = branch(now, zeros, group)
                    at = memo[key] = len(parts)
                    parts.append(part)
                if not parts[at]:
                    return None
                subs.append(at)
            return forced, tuple(subs)

        def branch(ones: int, zeros: int, active: Sequence[int],
                   report: Optional[Callable] = None) -> tuple:
            """The nodes of each way to make one undetermined vertex of the
            branching context true."""
            branches = []
            for v in _bits(masks[self.branch_context(zeros, active)] & ~zeros):
                # no conflict test: an undetermined vertex never has a true neighbour
                b = node(ones, 1 << v, zeros | nbr[v], active)
                if b is not None:
                    branches.append(b)
                if report:
                    report(parts, b)
            return tuple(branches)

        root = node(0, 0, 0, range(len(masks)), progress)
        parts.append((root,) if root else ())
        return parts


def part_counts(trace: list[tuple], zeros: int = 0,
                counts: Optional[list[int]] = None) -> list[int]:
    """Per part of ``trace``, the number of states below it that are false
    on every vertex of ``zeros``: 0 for a node forcing one of them, else the
    product of its parts' counts, summed over the part's nodes. ``counts``
    holds the counts of a prefix of the parts, and is extended in place."""
    if counts is None:
        counts = []
    for part in trace[len(counts):]:
        total = 0
        for forced, subs in part:
            if not forced & zeros:
                n = 1
                for q in subs:
                    n *= counts[q]
                total += n
        counts.append(total)
    return counts


def count(trace: list[tuple], zeros: int = 0) -> int:
    """Number of states of ``trace`` that are false on every vertex of
    ``zeros``: the count of its root part."""
    return part_counts(trace, zeros)[-1]


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
        counts: list[int] = []

        def report(parts: list[tuple], branch: Optional[tuple]) -> None:
            nonlocal total
            if branch:
                part_counts(parts, 0, counts)
                total += prod(map(counts.__getitem__, branch[1]))
            progress(total)

    return count(_Problem(h).trace(report))
