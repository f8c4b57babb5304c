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
by their canonical ranks. Counts under a fixed prefix of the columns place a
state in the canonical order without the table (:class:`CanonicalRows`):
the first row, the rank of any state, and the states disjoint from a given
one. A 2-section with chromatic number above n has no such rows at all;
otherwise, only when that search finds nothing does the whole table decide.

The chromatic number needs no table; :class:`Coloring`,
:func:`exact_coloring`, :func:`exact_chromatic` and :func:`brooks_bound` are
:mod:`ohg.chromatic`'s, re-exported here, so that the commands that need
only those do not load the searches over states.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import states
from .chromatic import (  # noqa: F401 (re-exported)
    Coloring,
    brooks_bound,
    exact_chromatic,
    exact_coloring,
)
from .errors import (
    ColumnCountMismatchError,
    NotAStateError,
    NotDominatingError,
    NotProperError,
    OhgError,
    SizeLimitError,
)
from .engine import count, search
from .model import Hypergraph, _bits, record

if TYPE_CHECKING:
    from .states import TravisMatrix, TwoValuedState

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


class CanonicalRows:
    """The canonical row order of a hypergraph's states, without the table.

    Row ``r`` of :func:`~ohg.states.enumerate_states` is the ``r``-th state
    in that order: by the first column, 1 before 0, then by the second, and
    so on. Rows here are ints in reading order, as in
    :class:`~ohg.states.TravisMatrix`. Each answer comes from passes over
    one trace of the search (:func:`ohg.engine.search`): row 1 from one pass
    for the largest row, ranks from counts of the states that agree with a
    prefix of the columns (:meth:`count`). A state is true on a vertex
    exactly when it is false on all the vertex's neighbours, so every count
    is one of states false on a set of vertices.
    """

    def __init__(self, h: Hypergraph):
        self._nbr = h.neighbor_masks
        self._trace = search(h)
        self._k = len(h.vertices)
        #: the number of states, the table's row count
        self.nts = count(self._trace)

    def count(self, ones: int = 0, zeros: int = 0) -> int:
        """Number of states true on the vertices of ``ones`` and false on
        those of ``zeros``, both masks in :mod:`ohg.model`'s order (bit ``i``
        = vertex ``i``)."""
        for v in _bits(ones):
            zeros |= self._nbr[v]
        # a vertex both true and false, or two adjacent true ones: no state
        return 0 if ones & zeros else count(self._trace, zeros)

    def first(self) -> int:
        """Row 1, the largest state, in one pass over the trace: a part's
        largest row is the largest over its nodes of the node's forced
        vertices OR-ed with the largest rows of its parts, which set disjoint
        vertices. Needs a state."""
        best: list[int] = []
        for part in self._trace:
            rows = []
            for forced, subs in part:
                row = states._mirror(forced, self._k)
                for q in subs:
                    row |= best[q]
                rows.append(row)
            # an empty part is below no kept node
            best.append(max(rows, default=0))
        return best[-1]

    def rank(self, row: int) -> int:
        """The 1-based index of the state ``row`` in the canonical table: one
        more than the number of states that agree with it up to some column
        where it has 0 and they have 1."""
        state = states._mirror(row, self._k)
        rank = 1
        ones = zeros = 0
        for v in range(self._k):
            if state >> v & 1:
                ones |= 1 << v
            else:
                rank += self.count(ones | 1 << v, zeros)
                zeros |= 1 << v
        return rank

    def disjoint(self, row: int) -> list[int]:
        """The states false on every vertex ``row`` makes true, in canonical
        order."""
        rows = states._rows(self._trace, self._k, states._mirror(row, self._k))
        rows.sort(reverse=True)
        return rows


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
    the answer is ``None`` at once. With every context of ``n`` vertices,
    ``n`` disjoint states are the colour classes of a proper ``n``-colouring
    of the 2-section, so the answer is ``None`` too when
    :func:`exact_chromatic` exceeds ``n``; a stop of that search at its
    budget leaves the question to the rows.

    The table is built only as a fallback. On the whole table,
    :func:`algorithm1` picks row 1 first. While that pick stands, its levels
    2..n see exactly the states disjoint from row 1, in canonical order, and
    make the same picks and tests as its search for ``n - 1`` rows (``n >= 2``,
    as contexts have two vertices or more) in a table of those states alone.
    So a find there, with row 1 in front, is the whole table's find, numbered
    by canonical ranks (:class:`CanonicalRows`), and a stop at the
    work budget there is a stop on the whole table too. Only ``None`` leaves
    the answer to the whole table, ``disjoint(0)``, whose find lacks row 1.
    """
    if n < 1:
        raise OhgError("the number of colors must be positive")
    order = CanonicalRows(h)
    states.check_row_budget(order.nts)
    if not order.nts or any(len(c) != n for c in h.contexts):
        return None
    try:
        if exact_chromatic(h) > n:
            return None
    except SizeLimitError:
        pass
    first = order.first()
    rest = states.TravisMatrix(h.vertices, tuple(order.disjoint(first)))
    found = algorithm1(rest, n - 1)
    if found is not None:
        rows = (first, *(rest.rows[r - 1] for r in found.rows))
        cells = tuple(map(states.TravisMatrix(h.vertices, rows).row_true_set, range(n)))
        return RowSelection(tuple(map(order.rank, rows))), PartitionSystem(h, cells)
    t = states.TravisMatrix(h.vertices, tuple(order.disjoint(0)))
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
    return states.TwoValuedState(h.vertices, members)


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
    # neighbour masks in the rows' bit convention: column j sits at bit k-1-j
    nbr = [states._mirror(m, k) for m in
           reversed(Hypergraph(t.vertices, h.contexts).neighbor_masks)]
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
            for b in _bits(add):
                around_add |= nbr[b]
            if around_add & add:
                continue
            current |= add
            around |= around_add
            uncolored &= ~add
        if not current:
            return None
        for j in _bits(current):
            color_of[t.vertices[k - 1 - j]] = color
    if uncolored:
        return None
    return Coloring(h, color_of)
