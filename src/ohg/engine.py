"""The counting engine: the search over two-valued states, and the state count.

A two-valued state assigns 0/1 to every vertex so that each context carries
exactly one 1. The engine does depth-first branching on contexts with unit
propagation (a 1 forces 0 on all 2-section neighbors; a context with one
undetermined vertex left forces it to 1; an all-0 context kills the branch).
When the residual problem falls apart into independent components the engine
searches them separately, and it caches every component it searches, keyed by
the component's undetermined vertices (the component caching of #SAT model
counters), so a component met again in another branch costs one lookup.
That counts the 378-vertex binding (about 5.9e23 states) in a fraction of a
second.

The search (:func:`search`) runs once and returns its trace, a decision-DNNF
in the sense of Huang and Darwiche ("The language of search", JAIR 2007), as
one list of parts, each a choice between nodes that set vertices true over
independent parts earlier in the list, with the root last. Every question is
a loop over that list. The search nests on the package's one stack for
nested walks (:func:`ohg.walk._drive`), not on Python's, so a chain of
thousands of contexts is searched like any other input. This
module holds the counting pass (:func:`part_counts`, also of the states
false on a set of vertices) and :func:`count_states`; :mod:`ohg.pairwise`
adds the passes for co-truth counts, and :mod:`ohg.states` those for the
rows themselves. ``ohg states --count-only`` loads this module alone, not
the table code.

The engine works on :mod:`ohg.model`'s masks, bit ``i`` = vertex ``i``, taken
from :attr:`Hypergraph.context_masks` and :attr:`Hypergraph.neighbor_masks`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .model import Hypergraph, _bits
from .walk import _drive


def search(h: Hypergraph, progress: Optional[Callable] = None) -> list[tuple]:
    """The trace of the search over the states of ``h``: its parts, each
    after every part below it, and last the root's one-node part, empty when
    there is no state.

    A part, one residual component, holds a node ``(forced, subs)`` for each
    branch of its branching context: ``forced`` holds the vertices set true
    there, ``subs`` the positions of the parts of the components left below.
    A state picks one node of every part below the nodes it picks and is true
    exactly on the vertices they force. The memo maps each component to its
    position, so a component met again is shared. With ``progress`` the root
    is branched as a whole, and ``progress(parts, branch)`` reports each
    branch (a node or ``None``). The search runs on the one driver of
    nested walks, :func:`ohg.walk._drive`, so Python's recursion limit does
    not bound how deep it nests.
    """
    masks, nbr = h.context_masks, h.neighbor_masks
    parts: list[tuple] = []
    memo: dict[int, int] = {}

    def propagate(ones: int, zeros: int, active: Sequence[int]):
        """Unit-propagate to fixpoint; ``None`` on contradiction, else the
        updated masks and the still-unresolved context indices."""
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

    def components(zeros: int, active: Sequence[int]) -> list[tuple[int, list[int]]]:
        """Unresolved contexts that share undetermined vertices, grouped as
        ``(undetermined vertices, sorted context indices)`` and ordered by
        their lowest context index."""
        comps: list[tuple[int, list[int]]] = []
        for ci in active:
            und = masks[ci] & ~zeros
            group = [ci]
            rest = []
            for mask, members in comps:
                if mask & und:
                    und |= mask
                    if len(members) > len(group):
                        group, members = members, group
                    group.extend(members)
                else:
                    rest.append((mask, members))
            rest.append((und, group))
            comps = rest
        return sorted([(und, sorted(group)) for und, group in comps],
                      key=lambda c: c[1][0])

    def node(fresh: int, zeros: int, active: Sequence[int],
             report: Optional[Callable] = None) -> Optional[tuple]:
        # the unresolved contexts hold no true vertex, so the earlier true
        # vertices play no part in propagation, and those it sets are new
        res = propagate(fresh, zeros, active)
        if res is None:
            return None
        forced, zeros, active = res
        if report and active:
            parts.append((yield branch(zeros, active, report)))
            return (forced, (len(parts) - 1,)) if parts[-1] else None
        subs = []
        for und, group in components(zeros, active):
            # The part depends only on ``und``: the contexts meeting it are
            # unresolved (a true vertex zeroes its neighbours), so they are
            # the group, and each has ``und`` as its undetermined vertices.
            at = memo.get(und)
            if at is None:
                part = yield branch(zeros, group)
                at = memo[und] = len(parts)
                parts.append(part)
            if not parts[at]:
                return None
            subs.append(at)
        return forced, tuple(subs)

    def branch(zeros: int, active: Sequence[int],
               report: Optional[Callable] = None) -> tuple:
        """The nodes of the ways to make one undetermined vertex true in the
        context with the fewest; ``active`` ascends, so ties go to the
        lowest context index."""
        ci = min(active, key=lambda ci: (masks[ci] & ~zeros).bit_count())
        branches = []
        for v in _bits(masks[ci] & ~zeros):
            # no conflict test: an undetermined vertex never has a true neighbour
            b = yield node(1 << v, zeros | nbr[v], active)
            if b is not None:
                branches.append(b)
            if report:
                report(parts, b)
        return tuple(branches)

    # node and branch are walks: each yields the calls it would make
    root = _drive(node(0, 0, range(len(masks)), progress))
    parts.append((root,) if root else ())
    return parts


def part_counts(trace: list[tuple], zeros: int = 0) -> list[int]:
    """Per part of ``trace``, the number of states below it that are false
    on every vertex of ``zeros``: 0 for a node forcing one of them, else the
    product of its parts' counts, summed over the part's nodes."""
    counts: list[int] = []
    for part in trace:
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

        def report(parts: list[tuple], branch: Optional[tuple]) -> None:
            nonlocal total
            if branch:
                total += count([*parts, (branch,)])
            progress(total)

    return count(search(h, report))
