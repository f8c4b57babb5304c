"""Two-valued state tables and the analyses over them.

The search (:func:`ohg.engine.search`) returns its trace, one list of parts
with the root last, and each answer is a loop over it: plain counts
(:func:`count_states`, the engine's), per-vertex true counts and pairwise
co-truth counts (:func:`cotruth`, in :mod:`ohg.pairwise`), or the rows
themselves (:func:`enumerate_states`). The pairwise analyses (classification,
gadget scans and profiles, reconstruction by the adjacency criterion) need
nothing else, so they run without a state table, on the 378-vertex binding
too. Only row-level work enumerates: the state matrix, the relaxed colouring
and, only as a fallback, the paper's row selection. Enumeration counts the
trace first and refuses a table above :data:`ROW_BUDGET` rows. It imports
the engine when it runs, so that a table read from a file or a fixture, and
its co-truth counts, load no search.

Pairwise co-truth counts come from a table (:attr:`TravisMatrix.cooc`) or
the trace (:func:`cotruth`) as ``k`` × ``k`` exact ints, since the counts of
the 378-vertex binding pass 2**63. The verdicts read one form, two masks
per vertex, taken from the counts (:func:`ohg.pairwise._masks`) or, in the
commands, from the trace (:func:`ohg.pairwise._verdicts`). The counts and
the analyses read from them live apart, so that the commands that need only
those do not load the table code: :func:`cotruth` and :func:`classify` in
:mod:`ohg.pairwise`, :func:`gadget_scan` and :func:`gadget_profile` in
:mod:`ohg.implications`. Those names, :func:`count_states` and the
canonical row order without the table (:class:`ohg.coloring.CanonicalRows`)
are bound here on first use, so that ``ohg.states.cotruth is ohg.cotruth``
while the table code loads none of their modules. The package needs nothing
beyond the standard library.

Bit conventions: the engine works on :mod:`ohg.model`'s masks, bit ``i`` =
vertex ``i``, taken from :attr:`Hypergraph.context_masks` and
:attr:`Hypergraph.neighbor_masks`. A row of a :class:`TravisMatrix` is one
Python int whose binary digits read like a printed matrix row, i.e. column
``j`` (vertex ``j`` in declaration order) sits at bit ``k - 1 - j``. Sorting
these ints descending therefore yields the canonical row order: descending as
binary numbers under the column order. Enumeration converts from the engine's
order to reading order once per leaf of the trace (:func:`_rows`).
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import repeat
from typing import Iterable, Optional, Sequence

from . import _lazy
from .errors import RowLimitExceededError
from .model import Hypergraph, record

__getattr__ = _lazy(globals(), {
    "count_states": "engine",
    "CoTruth": "pairwise", "StateClassification": "pairwise",
    "classify": "pairwise", "cotruth": "pairwise",
    "GadgetProfile": "implications", "GadgetScan": "implications",
    "gadget_profile": "implications", "gadget_scan": "implications",
    "CanonicalRows": "coloring",
})

# Rows per block for TravisMatrix.cooc: 65536 rows x 108 columns is 0.9 MB
_COOC_BLOCK = 65536
# bytes 0 and 1 to the digits "0" and "1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")
# Rows per block for the text writers: a block of 4096 rows x 108 columns is
# under 1 MB of text, where 65536-row blocks raise the peak RSS of an export.
_WRITE_BLOCK = 4096

# Largest state table enumerate_states builds unless given a row limit: bind(bug)
# (2,239,488 rows) fits, bind(fig4) (about 5.9e23) is refused before any row.
ROW_BUDGET = 2 ** 23


@record
class TwoValuedState:
    """A single classical truth assignment over named vertices."""

    vertices: tuple[str, ...]
    true_set: frozenset[str]

    def value(self, vertex: str) -> int:
        return 1 if vertex in self.true_set else 0

    def bits(self) -> tuple[int, ...]:
        return tuple(1 if v in self.true_set else 0 for v in self.vertices)

    def satisfies(self, h: Hypergraph) -> bool:
        """Exactly one true vertex on every context of ``h``."""
        return all(len(ctx & self.true_set) == 1 for ctx in h.contexts)


@record
class TravisMatrix:
    """The 0/1 table of two-valued states: rows are states, columns vertices.

    Rows are packed ints in reading order (column 0 at the top bit). Matrices
    produced by :func:`enumerate_states` are in canonical row order; matrices
    transcribed from printed sources keep their source order.
    """

    vertices: tuple[str, ...]
    rows: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.vertices)

    @property
    def nts(self) -> int:
        """Number of two-valued states."""
        return len(self.rows)

    def bit(self, row: int, col: int) -> int:
        return self.rows[row] >> (self.n_cols - 1 - col) & 1

    def row_bits(self, row: int) -> tuple[int, ...]:
        r = self.rows[row]
        k = self.n_cols
        return tuple(r >> (k - 1 - j) & 1 for j in range(k))

    def row_true_set(self, row: int) -> frozenset[str]:
        r = self.rows[row]
        k = self.n_cols
        return frozenset(v for j, v in enumerate(self.vertices) if r >> (k - 1 - j) & 1)

    def state(self, row: int) -> TwoValuedState:
        return TwoValuedState(self.vertices, self.row_true_set(row))

    def states(self) -> Iterable[TwoValuedState]:
        return (self.state(r) for r in range(self.n_rows))

    def column_int(self, col: int) -> int:
        """The column as an int with bit ``r`` set when row ``r`` has a 1.

        Bulk pairwise questions should go through :attr:`cooc` instead.
        """
        shift = repeat(self.n_cols - 1 - col)
        bits = map(operator.and_, map(operator.rshift, reversed(self.rows), shift), repeat(1))
        return int(bytes(bits).translate(_DIGITS) or b"0", 2)

    @cached_property
    def cooc(self) -> tuple[tuple[int, ...], ...]:
        """Pairwise co-truth counts: ``cooc[i][j]`` = number of rows with both
        columns 1; the diagonal holds column sums. Computed once, a block of
        rows at a time: a count is the popcount of the AND of two columns,
        each read as one int, every ``k``-th digit of the block's rows as
        :func:`_row_digits` prints them."""
        k = self.n_cols
        # upper[i][d] counts columns i and i + d
        upper = [[0] * (k - i) for i in range(k)]
        for start in range(0, self.n_rows, _COOC_BLOCK):
            digits = _row_digits(self.rows[start:start + _COOC_BLOCK], k)
            cols = [int(digits[j::k], 2) for j in range(k)]
            for i, ci in enumerate(cols):
                both = map(int.bit_count, map(ci.__and__, cols[i:]))
                upper[i] = list(map(operator.add, upper[i], both))
        return tuple(
            tuple(upper[j][i - j] for j in range(i)) + tuple(upper[i])
            for i in range(k)
        )

    @property
    def column_sums(self) -> tuple[int, ...]:
        return tuple(row[i] for i, row in enumerate(self.cooc))

    @classmethod
    def from_bit_rows(
        cls,
        vertices: Sequence[str],
        bit_rows: Iterable[Sequence[int]],
        *,
        canonical: bool = False,
    ) -> "TravisMatrix":
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("columns of a state table must have distinct names")
        k = len(vs)
        rows = []
        for bits in bit_rows:
            if len(bits) != k:
                raise ValueError(f"row has {len(bits)} entries, expected {k}")
            m = 0
            for j, b in enumerate(bits):
                if b not in (0, 1):
                    raise ValueError(f"matrix entries must be 0/1, got {b!r}")
                if b:
                    m |= 1 << (k - 1 - j)
            rows.append(m)
        if len(set(rows)) != len(rows):
            raise ValueError("rows of a state table must be pairwise distinct")
        if canonical:
            rows.sort(reverse=True)
        return cls(vs, tuple(rows))

    def __repr__(self) -> str:
        return f"TravisMatrix({self.n_rows} states x {self.n_cols} vertices)"


def _row_digits(rows: Sequence[int], k: int) -> str:
    """Each of ``rows`` as ``k`` binary digits, leading zeros included, in
    one string. Adjacent rows are joined into ints of twice the width (an
    odd count gets a zero row in front) until one int is left, printed once,
    so the per-row Python work is one shift-or. A ``k`` above the rows'
    column count puts zeros before every row."""
    n = len(rows)
    width = k
    while len(rows) > 1:
        if len(rows) & 1:
            rows = [0, *rows]
        rows = [a << width | b for a, b in zip(rows[0::2], rows[1::2])]
        width *= 2
    return format(rows[0], f"0{n * k}b") if n else ""


def _mirror(mask: int, k: int) -> int:
    """``mask`` with its ``k`` low bits reversed: an engine mask (bit ``i`` =
    vertex ``i``) as a row in reading order, and back."""
    return int(format(mask, f"0{k}b")[::-1], 2)


def _rows(trace: list[tuple], k: int, zeros: int = 0) -> list[int]:
    """The states of ``trace`` that are false on ``zeros``, as rows in
    reading order (see the module docstring), unsorted. Parts are walked
    from the root down with ``now``, the vertices the nodes above set true:
    a leaf's state is ``now`` with its own forced vertices, and a node with
    parts ORs one row of each part in every combination. The walk nests once
    per level of the trace, on the walks' stack (:func:`ohg.walk._drive`)."""
    from .walk import _drive  # with the search, not with every table

    def below(p: int, now: int):
        rows: list[int] = []
        for forced, subs in trace[p]:
            if forced & zeros:
                continue
            at = now | forced
            if not subs:
                rows.append(_mirror(at, k))
                continue
            node_rows = yield below(subs[0], at)
            for q in subs[1:]:
                part_rows = yield below(q, at)
                node_rows = [a | b for a in node_rows for b in part_rows]
            if rows:
                rows += node_rows
            else:
                rows = node_rows
        return rows

    return _drive(below(len(trace) - 1, 0))


def check_row_budget(n: int, *, row_limit: Optional[int] = None) -> None:
    """Refuse a state table of ``n`` rows above ``row_limit`` (default
    :data:`ROW_BUDGET`) with :class:`RowLimitExceededError`."""
    limit, what = ((ROW_BUDGET, "row budget") if row_limit is None
                   else (row_limit, "row limit"))
    if n > limit:
        raise RowLimitExceededError(
            f"the state table would have {n} rows, above the {what} of {limit}"
        )


def enumerate_states(h: Hypergraph, *, row_limit: Optional[int] = None) -> TravisMatrix:
    """All two-valued states of ``h`` as a canonically ordered matrix.

    A hypergraph admitting no state at all (the Kochen-Specker situation)
    yields an empty matrix, not an error. The search runs once; its trace
    is counted first, and a table of more than ``row_limit`` rows (default
    :data:`ROW_BUDGET`) is refused with :class:`RowLimitExceededError` before
    any row is built. Use :func:`count_states` when only the number is needed
    and :func:`cotruth` when only the pairwise counts are.
    """
    from .engine import count, search

    trace = search(h)
    check_row_budget(count(trace), row_limit=row_limit)
    rows = _rows(trace, len(h.vertices))
    rows.sort(reverse=True)
    return TravisMatrix(h.vertices, tuple(rows))
