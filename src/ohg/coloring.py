"""Colorings, partition systems, and state-based coloring search.

A proper n-coloring of a conformal n-uniform hypergraph is the same thing as
a partition into n independent dominating cells, and each cell's indicator is
a two-valued state. The row-selection search (:func:`algorithm1`) exploits
that: it hunts for n pairwise non-conflicting rows of the state table, whose
sum is then the all-ones vector.

On a hypergraph, :func:`paper_coloring` finds the same rows, mostly without
the table. :func:`algorithm1` always picks row 1 first, and while that pick
stands its search sees only the rows disjoint from row 1, in table order. So
the unchanged search for ``n - 1`` rows among the states disjoint from row 1,
in canonical order, with row 1 put in front, makes the same find as over the
whole table whenever that find starts with row 1; the rows are then numbered
by their canonical ranks (:class:`ohg.states.CanonicalRows`). Only when that
search finds nothing does the whole table decide.

The chromatic number (:func:`exact_coloring`) needs no table. Each connected
component of the 2-section is coloured on its own, trying k = ω, ω + 1, ...
colours by a search with forward checking over colour-domain bitmasks, under
a node budget instead of a cap on the number of vertices. At k = ω a context
of ω vertices must show every colour; when every context has ω vertices, the
colouring found is a partition into ω two-valued states, the certificate of
χ = ω.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import core
from .core import Hypergraph, record
from .errors import (
    ColumnCountMismatchError,
    DisconnectedError,
    NotAStateError,
    NotDominatingError,
    NotProperError,
    OhgError,
    SizeLimitError,
)

if TYPE_CHECKING:
    from .states import TravisMatrix, TwoValuedState

# Search nodes exact_coloring may spend in all. A node costs ~76 us on the
# 378 vertices of bind(fig4), so the budget runs out within about 4 s there.
_NODE_BUDGET = 50_000
# Row-conflict tests algorithm1 makes before it gives up: the whole search of
# the 2,239,488-row table of bind(bug) makes about 2.2 million, while a
# table of 43,008 rows can take up to 43,008**2 / 2 (about 9.2e8).
_ALGORITHM1_TEST_BUDGET = 2 ** 24


@record
class PartitionSystem:
    """A partition of the vertices into independent dominating cells.

    Construction validates both properties: cells must be independent in the
    2-section (no two members adjacent) and dominating (every vertex is in or
    adjacent to each cell).
    """

    hypergraph: Hypergraph
    cells: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        h = self.hypergraph
        union: set[str] = set()
        total = 0
        for cell in self.cells:
            if not cell:
                raise OhgError("partition cells must be nonempty")
            union |= cell
            total += len(cell)
        if union != set(h.vertices) or total != len(h.vertices):
            raise OhgError("cells must partition the vertex set exactly")
        idx = h.index
        nbr = h.neighbor_masks
        for cell in self.cells:
            mask = sum(1 << idx[v] for v in cell)
            for v in sorted(cell):
                if nbr[idx[v]] & mask:
                    raise NotProperError(
                        f"cell {sorted(cell)!r} contains adjacent vertices near {v!r}"
                    )
            for v in h.vertices:
                if v in cell or nbr[idx[v]] & mask:
                    continue
                raise NotDominatingError(
                    f"cell {sorted(cell)!r} does not dominate vertex {v!r}"
                )


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


@record
class RowSelection:
    """Row indices into a state table, 1-based to match printed matrices."""

    rows: tuple[int, ...]


def partition_from_coloring(h: Hypergraph, coloring: Coloring) -> PartitionSystem:
    """Color classes as partition cells, verifying both partition properties.

    A proper coloring with more colors than the clique number typically fails
    domination (the surplus class cannot reach every vertex); that surfaces
    here as :class:`NotDominatingError`.
    """
    if set(coloring.color_of) != set(h.vertices):
        raise OhgError("coloring does not cover this hypergraph")
    cells = tuple(coloring.color_class(c) for c in coloring.colors())
    return PartitionSystem(h, cells)


def coloring_from_partition(p: PartitionSystem) -> Coloring:
    """The canonical coloring of a partition system: cell order = color order.

    Any of the n! cell orderings would do; this returns the one with color i
    assigned to the i-th cell.
    """
    color_of = {}
    for i, cell in enumerate(p.cells, start=1):
        for v in cell:
            color_of[v] = i
    return Coloring(p.hypergraph, color_of)


def partition_from_rows(
    h: Hypergraph, t: TravisMatrix, selection: RowSelection
) -> PartitionSystem:
    """Partition system whose cells are the true-sets of the selected rows."""
    for r in selection.rows:
        if not 1 <= r <= t.n_rows:
            raise OhgError(f"row index {r} out of range 1..{t.n_rows}")
    cells = tuple(t.row_true_set(r - 1) for r in selection.rows)
    return PartitionSystem(h, cells)


def algorithm1(t: TravisMatrix, n: int) -> Optional[RowSelection]:
    """Search for n rows of the state table that never share a 1.

    This is a faithful port of the published backtracking listing, with its
    AvailableRows / A / RemovedRows bookkeeping kept intact so the returned
    selection is the listing's first find, not just any valid one:

    * at level i the first available row is chosen, recorded in
      RemovedRows[i], and every row conflicting with it is moved to
      RemovedRows[i+1];
    * when AvailableRows empties, the rows removed at this level are
      restored, the level's pick is popped, and the search resumes one
      level down;
    * the loop stops on success (level n filled) or once level 1 has
      exhausted every row.

    Rows are 1-based in the result. ``None`` means the exhaustive search
    proved no such selection exists. Each pick is tested against every row
    still available; past :data:`_ALGORITHM1_TEST_BUDGET` such tests the
    search stops with :class:`SizeLimitError`.
    """
    if n < 1:
        raise OhgError("the number of colors must be positive")
    if n > t.n_rows:
        # the chosen rows are distinct, so there are too few of them
        return None
    rows = t.rows
    available = list(range(t.n_rows))
    chosen: list[int] = []
    removed: dict[int, list[int]] = {i: [] for i in range(1, n + 2)}
    tests = 0
    i = 1
    while i <= n and (i != 1 or available):
        if not available:
            available.extend(removed[i])
            removed[i] = []
            if len(chosen) == i:
                chosen.pop()
            i -= 1
        else:
            pick = available.pop(0)
            if len(chosen) == i:
                chosen[i - 1] = pick
            else:
                chosen.append(pick)
            removed[i].append(pick)
            i += 1
            tests += len(available)
            if tests > _ALGORITHM1_TEST_BUDGET:
                raise SizeLimitError(
                    f"row selection search stopped after {_ALGORITHM1_TEST_BUDGET} "
                    f"row-conflict tests on a table of {t.n_rows} rows"
                )
            conflicts = [s for s in available if rows[s] & rows[pick]]
            removed[i].extend(conflicts)
            if conflicts:
                available = [s for s in available if not (rows[s] & rows[pick])]
    if i > n and len(chosen) == n:
        return RowSelection(tuple(r + 1 for r in chosen))
    return None


def paper_coloring(
    h: Hypergraph, n: int
) -> Optional[tuple[RowSelection, PartitionSystem]]:
    """The selection ``algorithm1(enumerate_states(h), n)`` and the partition
    into the true sets of its rows, or ``None`` when there is no colouring
    from ``n`` states.

    The states are counted first, and above :data:`ohg.states.ROW_BUDGET`
    the call is refused as :func:`~ohg.states.enumerate_states` refuses the
    table. A state is true on one vertex of each context, so ``n`` pairwise
    disjoint states cover exactly ``n`` vertices of every context: they
    partition the vertices only if every context has ``n``, and otherwise
    the answer is ``None`` at once.

    The table is built only as a fallback. On the whole table,
    :func:`algorithm1` picks row 1 first. While that pick stands, its levels
    2..n see exactly the states disjoint from row 1, in canonical order, and
    make the same picks and tests as its search for ``n - 1`` rows (``n >= 2``,
    as contexts have two vertices or more) in a table of those states alone.
    So a find there, with row 1 in front, is the whole table's find, numbered
    by canonical ranks (:class:`ohg.states.CanonicalRows`), and a stop at the
    work budget there is a stop on the whole table too. Only ``None`` leaves
    the answer to the whole table, whose find then does not contain row 1.
    """
    from . import states

    if n < 1:
        raise OhgError("the number of colors must be positive")
    order = states.CanonicalRows(h)
    states.check_row_budget(order.nts)
    if not order.nts or any(len(c) != n for c in h.contexts):
        return None
    first = order.first()
    rest = states.TravisMatrix(h.vertices, tuple(order.disjoint(first)))
    found = algorithm1(rest, n - 1)
    if found is not None:
        rows = (first, *(rest.rows[r - 1] for r in found.rows))
        cells = tuple(map(states.TravisMatrix(h.vertices, rows).row_true_set, range(n)))
        return RowSelection(tuple(map(order.rank, rows))), PartitionSystem(h, cells)
    t = states.enumerate_states(h)
    selection = algorithm1(t, n)
    if selection is None:
        return None
    return selection, partition_from_rows(h, t, selection)


def verify_rows(t: TravisMatrix, selection: RowSelection) -> bool:
    """Whether the selected rows sum, componentwise over the integers, to the
    all-ones vector: they are pairwise disjoint and together cover every
    column."""
    for r in selection.rows:
        if not 1 <= r <= t.n_rows:
            raise OhgError(f"row index {r} out of range 1..{t.n_rows}")
    covered = 0
    for r in selection.rows:
        row = t.rows[r - 1]
        if row & covered:
            return False
        covered |= row
    return covered == (1 << t.n_cols) - 1


def color_to_state(coloring: Coloring, color: int) -> TwoValuedState:
    """Project one color class to the two-valued state it induces.

    Valid only when the class meets every context exactly once; a surplus
    class of an over-colored hypergraph fails with :class:`NotAStateError`.
    """
    h = coloring.hypergraph
    members = coloring.color_class(color)
    for ctx in h.contexts:
        hits = len(ctx & members)
        if hits != 1:
            raise NotAStateError(
                f"color {color} meets context {sorted(ctx)!r} {hits} times"
            )
    from .states import TwoValuedState

    return TwoValuedState(h.vertices, members)


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

    def assign(col: list[int], dom: list[int], v: int, c: int) -> bool:
        """Colour ``v`` with ``c`` and propagate; ``False`` on a wipe-out."""
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

    col, dom = [0] * n, [full] * n
    for c, v in enumerate(seeds, start=1):
        if not assign(col, dom, v, c):
            return None, 0
    nodes = 0
    stack: list[tuple[list[int], list[int], int, int]] = []
    while True:
        free = [v for v in range(n) if not col[v]]
        if not free:
            return col, nodes
        pick = min(free, key=lambda v: (dom[v].bit_count(), rank[v]))
        stack.append((col, dom, pick, dom[pick] & (2 << max(col)) - 1))
        while True:
            if not stack:
                return None, nodes
            col, dom, v, values = stack[-1]
            if not values:
                stack.pop()
                continue
            low = values & -values
            stack[-1] = (col, dom, v, values ^ low)
            nodes += 1
            if nodes > cutoff:
                return None, nodes
            col, dom = col[:], dom[:]
            if assign(col, dom, v, low.bit_length()):
                break


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
    cliques = core._clique_masks(nbr)
    color_of = [0] * len(nbr)
    chi = spent = 0
    for comp in core._component_masks(nbr):
        verts = list(core._bits(comp))
        local = {v: i for i, v in enumerate(verts)}
        nbrs = [[local[u] for u in core._bits(nbr[v])] for v in verts]
        contexts = [[local[v] for v in core._bits(m)]
                    for m in h.context_masks if m & comp]
        first = _rank(nbrs, 0)
        # the largest clique whose members come first in the vertex order:
        # when DSATUR's first picks make a largest clique, it is that one
        clique = min(
            ([local[v] for v in core._bits(m)] for m in cliques if m & comp),
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
    if len(core._component_masks(nbr)) > 1:
        raise DisconnectedError("Brooks bound needs a connected 2-section")
    degrees = [m.bit_count() for m in nbr]
    delta = max(degrees)
    complete = all(d == n - 1 for d in degrees)
    odd_cycle = n % 2 == 1 and all(d == 2 for d in degrees)
    return delta + 1 if complete or odd_cycle else delta


def relaxed_coloring(
    t: TravisMatrix, h: Hypergraph, max_colors: int
) -> Optional[Coloring]:
    """State-guided greedy coloring that lets several states share one color.

    For each color in turn, walk the rows in matrix order and absorb a row's
    still-uncolored true vertices whenever the enlarged class stays
    independent; already-colored vertices keep their first color. This is a
    deterministic reading of the informal relaxation sketch, a heuristic for
    hypergraphs that admit no selection of disjoint rows; it is not the
    chromatic oracle. Returns ``None`` when ``max_colors`` runs out or no
    progress is possible.
    """
    if sorted(t.vertices) != sorted(h.vertices):
        raise ColumnCountMismatchError(
            "state table columns do not match the hypergraph's vertices"
        )
    k = t.n_cols
    # neighbour masks in the rows' bit convention: the vertex in column j of
    # the table sits at bit k-1-j, and nbr is indexed by that bit
    bit = [k - 1 - t.vertices.index(v) for v in h.vertices]
    nbr = [0] * k
    for i, m in enumerate(h.neighbor_masks):
        for u in core._bits(m):
            nbr[bit[i]] |= 1 << bit[u]
    uncolored = (1 << k) - 1
    color_of: dict[str, int] = {}
    for color in range(1, max_colors + 1):
        if not uncolored:
            break
        # the class and the union of its members' neighbourhoods
        current = around = 0
        for row in t.rows:
            add = row & uncolored
            # Absorb unless some added vertex has a neighbour in current | add.
            # Adjacency is symmetric: a neighbour in current shows as a bit
            # of add inside ``around``. A state's true vertices are pairwise
            # non-adjacent, so only rows that are absorbed (at most k per
            # colour) or are not states reach the loop below.
            if not add or add & around:
                continue
            around_add = 0
            for b in core._bits(add):
                around_add |= nbr[b]
            if around_add & add:
                continue
            current |= add
            around |= around_add
            uncolored &= ~add
        if not current:
            return None
        for j in core._bits(current):
            color_of[t.vertices[k - 1 - j]] = color
    if uncolored:
        return None
    return Coloring(h, color_of)
