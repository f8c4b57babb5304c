"""Two-valued state tables and the analyses over them.

The search of :mod:`ohg.engine` runs with one of three ways of combining
results (algebras): plain counts (:func:`count_states`, defined in the
engine and the same function here), counts together with per-vertex true
counts and pairwise co-truth counts (:func:`cotruth`), or the rows
themselves (:func:`enumerate_states`). The pairwise analyses
(classification, gadget scans and profiles, reconstruction by the adjacency
criterion) need nothing else, so they run without a state table, on the
378-vertex binding too. Only row-level work enumerates: the state matrix,
the relaxed colouring and, only as a fallback, the paper's row selection.
Enumeration counts first and refuses a table above :data:`ROW_BUDGET` rows;
it runs without the component cache, because its results are whole states,
not parts of them.

Counts under a fixed prefix of the columns place a state in the canonical row
order without the table (:class:`CanonicalRows`): the first row, the rank of
any state, and the states disjoint from a given one, which is all the paper's
row selection needs when its find starts with row 1.

Pairwise co-truth counts have one form, from a table
(:attr:`TravisMatrix.cooc`) or from the counter (:func:`cotruth`): a
``k``-tuple of ``k``-tuples of exact Python ints, ``cooc[i][j]``, since the
counts of the 378-vertex binding pass 2**63. The package needs nothing
beyond the standard library.

Bit conventions: the engine works on :mod:`ohg.core`'s masks, bit ``i`` =
vertex ``i``, taken from :attr:`Hypergraph.context_masks` and
:attr:`Hypergraph.neighbor_masks`. A row of a :class:`TravisMatrix` is one
Python int whose binary digits read like a printed matrix row, i.e. column
``j`` (vertex ``j`` in declaration order) sits at bit ``k - 1 - j``. Sorting
these ints descending therefore yields the canonical row order: descending as
binary numbers under the column order. Enumeration converts from the engine's
order to reading order once per state leaf of the search (:class:`_Rows`).
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import Hypergraph, _bits, record
from .engine import _Count, _Problem, count_states  # noqa: F401 (re-exported)
from .errors import (
    ColumnCountMismatchError,
    NotAGadgetPairError,
    OhgError,
    RowLimitExceededError,
)

# Rows per block for TravisMatrix.cooc: 65536 rows x 108 columns is 0.9 MB
_COOC_BLOCK = 65536
# bytes 0 and 1 to the digits "0" and "1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")
# (shift, mask of an 8-byte word) of the delta swaps that transpose the 8 x 8
# bit matrix in each word (Warren, Hacker's Delight, section 7-3)
_TRANSPOSE8 = tuple((s, bytes.fromhex(m)) for s, m in (
    (7, "00aa00aa00aa00aa"), (14, "0000cccc0000cccc"), (28, "00000000f0f0f0f0")))
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
        each read as one int (:func:`_column_ints`)."""
        k = self.n_cols
        # upper[i][d] counts columns i and i + d
        upper = [[0] * (k - i) for i in range(k)]
        for start in range(0, self.n_rows, _COOC_BLOCK):
            cols = _column_ints(self.rows[start:start + _COOC_BLOCK], k)
            for i, ci in enumerate(cols):
                both = map(int.bit_count, map(ci.__and__, cols[i:]))
                upper[i] = list(map(operator.add, upper[i], both))
        return tuple(
            tuple(upper[j][i - j] for j in range(i)) + tuple(upper[i])
            for i in range(k)
        )

    @property
    def column_sums(self) -> tuple[int, ...]:
        return _diagonal(self.cooc)

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


def _column_ints(rows: Sequence[int], k: int) -> list[int]:
    """Each of the ``k`` columns of ``rows`` as an int: the first row at the
    top bit, then a zero bit per row padding the count to a multiple of 8.

    A byte position of the rows, read down them, holds 8 columns; three
    delta swaps transpose each of its 8 x 8 bit blocks, so that every 8th
    byte of the result belongs to one column.
    """
    width = (k + 7) // 8
    n = len(rows) + -len(rows) % 8
    buf = b"".join(map(int.to_bytes, rows, repeat(width), repeat("big")))
    buf += bytes(width * (n - len(rows)))
    swaps = [(shift, int.from_bytes(word * (n // 8), "big"))
             for shift, word in _TRANSPOSE8]
    cols = []
    for b in range(width):
        v = int.from_bytes(buf[b::width], "big")
        for shift, mask in swaps:
            t = (v ^ v >> shift) & mask
            v ^= t ^ t << shift
        out = v.to_bytes(n, "big")
        cols += (int.from_bytes(out[j::8], "big") for j in range(8))
    return cols[8 * width - k:]


def _diagonal(cooc: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(row[i] for i, row in enumerate(cooc))


@record
class CoTruth:
    """State count and pairwise co-truth counts, without the rows.

    ``cooc[i][j]`` is the number of states making columns ``i`` and ``j``
    both true, and the diagonal holds the column sums, as in
    :attr:`TravisMatrix.cooc`: a tuple of tuples of exact Python ints,
    because counts pass 2**63. The pairwise analyses (:func:`classify`,
    :func:`gadget_scan`, :func:`gadget_profile` and the reconstruction)
    accept it in place of a table.
    """

    vertices: tuple[str, ...]
    nts: int
    cooc: tuple[tuple[int, ...], ...]

    # compared and hashed by identity, not by the whole matrix
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def n_rows(self) -> int:
        return self.nts

    @property
    def n_cols(self) -> int:
        return len(self.vertices)

    @property
    def column_sums(self) -> tuple[int, ...]:
        return _diagonal(self.cooc)

    def __repr__(self) -> str:
        return f"CoTruth({self.nts} states x {self.n_cols} vertices)"


@record
class StateClassification:
    """Separability-style verdicts over a complete state table."""

    nts: int
    unital: bool
    separable: bool
    perfectly_separable: bool
    fail_witness: Optional[tuple[str, str, int]]


@record
class GadgetProfile:
    """State counts at a (head, tail) pair that is never jointly true."""

    head: str
    tail: str
    n_a: int
    n_b: int
    n_n: int


class GadgetScan(NamedTuple):
    tifs_pairs: frozenset[tuple[str, str]]
    tits_pairs: frozenset[tuple[str, str]]


class _CoTruthSum:
    """Co-truth counting: a result is ``None`` when there is no state, else
    ``(n, cols, m)``.

    ``n`` is the number of states, ``cols`` the indices of every vertex they
    may set true, in any order, and ``m`` the co-truth counts over ``cols``
    as rows of exact ints: ``m[a][b]`` counts the states making columns
    ``cols[a]`` and ``cols[b]`` both true, and the diagonal holds the true
    counts. Results are shared through the memo and never modified.
    """

    zero = None

    @staticmethod
    def node(now: int, forced: int, parts: list[tuple]) -> tuple:
        """Independent parts under vertices true in every state.

        With ``n`` the product of the part counts, a forced column is true
        in all ``n`` states and column ``a`` of part ``i`` in
        ``n / n_i * m_i[a][a]``, so those are also their co-truth counts
        with the forced columns. Columns ``a``, ``b`` of one part are jointly
        true in ``n / n_i * m_i[a][b]`` states, of parts ``i != j`` in
        ``n / (n_i * n_j) * m_i[a][a] * m_j[b][b]``. The forced columns come
        first, then each part's columns in turn.
        """
        if not forced and len(parts) == 1:
            return parts[0]
        n = math.prod(p[0] for p in parts)
        cols = list(_bits(forced))
        nf = len(cols)
        diags = [_diagonal(part_m) for _, _, part_m in parts]
        true_counts = [n] * nf
        for (part_n, part_cols, _), diag in zip(parts, diags):
            cols += part_cols
            true_counts += map(operator.mul, diag, repeat(n // part_n))
        m = [true_counts] * nf
        for i, (part_n, _, part_m) in enumerate(parts):
            rest = n // part_n
            for ta, part_row in zip(diags[i], part_m):
                row = [ta * rest] * nf
                for j, (n2, _, _) in enumerate(parts):
                    if j == i:
                        row += (map(operator.mul, part_row, repeat(rest))
                                if rest > 1 else part_row)
                    else:
                        row += map(operator.mul, diags[j], repeat(ta * (rest // n2)))
                m.append(row)
        return n, cols, m

    @staticmethod
    def add(results: list) -> Optional[tuple]:
        """Branches of one context: counts and co-truth matrices add up, over
        the union of the branches' columns."""
        results = [r for r in results if r is not None]
        if len(results) <= 1:
            return results[0] if results else None
        cols = list(dict.fromkeys(c for _, part_cols, _ in results for c in part_cols))
        # each branch's rows, by column, laid out over the union
        spread = [dict(zip(part_cols, _spread(part_cols, part_m, cols)))
                  for _, part_cols, part_m in results]
        m = []
        for c in cols:
            rows = [s[c] for s in spread if c in s]
            row = rows[0]
            for other in rows[1:]:
                row = list(map(operator.add, row, other))
            m.append(row)
        return sum(r[0] for r in results), cols, m


def _spread(cols: Sequence[int], m: Sequence[Sequence[int]],
            union: Sequence[int]) -> list[tuple[int, ...]]:
    """The rows of the co-truth counts ``m`` over ``cols``, each laid out
    over ``union``, a superset of ``cols`` in any order, with zeros at the
    other columns."""
    at = {c: a for a, c in enumerate(cols)}
    # an index past the end of a row picks the 0 appended to it
    idx = [at.get(c, len(cols)) for c in union]
    # itemgetter of one index returns the entry itself, not a 1-tuple
    pick = (operator.itemgetter(*idx) if len(idx) > 1
            else lambda row: tuple(row[a] for a in idx))
    return [pick([*row, 0]) for row in m]


def _mirror(mask: int, k: int) -> int:
    """``mask`` with its ``k`` low bits reversed: an engine mask (bit ``i`` =
    vertex ``i``) as a row in reading order, and back."""
    return int(format(mask, f"0{k}b")[::-1], 2)


class _Rows:
    """Enumeration: a result is the list of the states themselves, as rows
    in reading order (see the module docstring)."""

    zero: list[int] = []

    def __init__(self, k: int):
        self.k = k

    def node(self, now: int, forced: int, parts: list[list[int]]) -> list[int]:
        """A leaf's one state, else every combination of the parts' states.

        Each part's rows hold ``now`` and the part's own true vertices, so
        OR-ing one row of each part gives a whole state.
        """
        if not parts:
            return [_mirror(now, self.k)]
        rows = parts[0]
        for part in parts[1:]:
            rows = [a | b for a in rows for b in part]
        return rows

    @staticmethod
    def add(results: list[list[int]]) -> list[int]:
        rows: list[int] = []
        for part in results:
            rows.extend(part)
        return rows


def check_row_budget(n: int, *, row_limit: Optional[int] = None) -> None:
    """Refuse a state table of ``n`` rows above ``row_limit`` (default
    :data:`ROW_BUDGET`) with :class:`RowLimitExceededError`."""
    limit, what = ((ROW_BUDGET, "row budget") if row_limit is None
                   else (row_limit, "row limit"))
    if n > limit:
        raise RowLimitExceededError(
            f"the state table would have {n} rows, above the {what} of {limit}"
        )


class CanonicalRows:
    """The canonical row order of a hypergraph's states, without the table.

    Row ``r`` of :func:`enumerate_states` is the ``r``-th state in that
    order: by the first column, 1 before 0, then by the second, and so on.
    Rows here are ints in reading order, as in :class:`TravisMatrix`. Each
    answer comes from counts of the states that agree with a prefix of the
    columns (:meth:`count`), and every count shares one component memo. That
    is sound because each call passes the neighbours of its true vertices in
    ``zeros``, as the search does when it sets a vertex true (propagation
    zeroes the neighbours only of the vertices it forces itself): no
    undetermined vertex has a true neighbour, so a memo key ``(group_bits,
    und)`` means the same in every call.
    """

    def __init__(self, h: Hypergraph):
        self._prob = _Problem(h)
        self._memo: dict = {}
        self._k = len(h.vertices)
        #: the number of states, the table's row count
        self.nts = self.count()

    def count(self, ones: int = 0, zeros: int = 0) -> int:
        """Number of states true on the vertices of ``ones`` and false on
        those of ``zeros``, both masks in :mod:`ohg.core`'s order (bit ``i``
        = vertex ``i``)."""
        nbr = self._prob.nbr
        for v in _bits(ones):
            zeros |= nbr[v]
        if ones & zeros:
            return 0
        return self._prob.solve(_Count, self._memo, fresh=ones, zeros=zeros)

    def first(self) -> int:
        """Row 1, the largest state: column by column, 1 wherever some state
        agrees with the columns before it and has 1 there. Needs a state."""
        ones = zeros = 0
        for v in range(self._k):
            if self.count(ones | 1 << v, zeros):
                ones |= 1 << v
            else:
                zeros |= 1 << v
        return _mirror(ones, self._k)

    def rank(self, row: int) -> int:
        """The 1-based index of the state ``row`` in the canonical table: one
        more than the number of states that agree with it up to some column
        where it has 0 and they have 1."""
        state = _mirror(row, self._k)
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
        order: a table of them alone, enumerated with those vertices set to
        0 from the start."""
        rows = self._prob.solve(_Rows(self._k), None, zeros=_mirror(row, self._k))
        rows.sort(reverse=True)
        return rows


def enumerate_states(h: Hypergraph, *, row_limit: Optional[int] = None) -> TravisMatrix:
    """All two-valued states of ``h`` as a canonically ordered matrix.

    A hypergraph admitting no state at all (the Kochen-Specker situation)
    yields an empty matrix, not an error. The states are counted first, and
    a table of more than ``row_limit`` rows (default :data:`ROW_BUDGET`) is
    refused with :class:`RowLimitExceededError` before any row is built. Use
    :func:`count_states` when only the number is needed and :func:`cotruth`
    when only the pairwise counts are.
    """
    prob = _Problem(h)
    check_row_budget(prob.solve(_Count, {}), row_limit=row_limit)
    rows = prob.solve(_Rows(len(h.vertices)), None)
    rows.sort(reverse=True)
    return TravisMatrix(h.vertices, tuple(rows))


def cotruth(h: Hypergraph) -> CoTruth:
    """State count and pairwise co-truth counts of ``h``, without a table.

    One pass of the component-cached counter carries, for every component,
    its count and its co-truth matrix (see :class:`_CoTruthSum`), so the
    378-vertex binding (about 5.9e23 states) is analysed in seconds. The
    result equals ``enumerate_states(h).cooc`` entry for entry.
    """
    k = len(h.vertices)
    n, cols, m = _Problem(h).solve(_CoTruthSum, {}) or (0, [], [])
    rows = dict(zip(cols, _spread(cols, m, range(k))))
    zeros = (0,) * k
    return CoTruth(h.vertices, n, tuple(rows.get(v, zeros) for v in range(k)))


def classify(h: Hypergraph, t: TravisMatrix | CoTruth) -> StateClassification:
    """Unitality and the separability ladder over a complete state table or
    its co-truth counts (:func:`cotruth`).

    Separable: every two columns differ in some row. Perfectly separable:
    additionally each ordered pair is distinguished in both directions and
    every non-adjacent pair is jointly true in some row. The witness names
    the first violating pair together with which of the three conditions
    failed (1: no row 0/1, 2: no row 1/0, 3: no row 1/1).
    """
    if t.vertices != h.vertices:
        raise ColumnCountMismatchError(
            "state table columns do not match the hypergraph's vertices"
        )
    k = t.n_cols
    nts = t.n_rows
    cooc = t.cooc
    colsum = t.column_sums
    unital = nts > 0 and all(colsum)
    separable = True
    perfectly = True
    witness: Optional[tuple[str, str, int]] = None
    for i in range(k):
        for j in range(i + 1, k):
            both = cooc[i][j]
            item1 = colsum[j] - both > 0  # some row has i=0, j=1
            item2 = colsum[i] - both > 0  # some row has i=1, j=0
            if not item1 and not item2:
                separable = False
            item3 = True
            if not h.adjacent(h.vertices[i], h.vertices[j]):
                item3 = both > 0
            if witness is None and not (item1 and item2 and item3):
                perfectly = False
                failed = 1 if not item1 else (2 if not item2 else 3)
                witness = (h.vertices[i], h.vertices[j], failed)
    return StateClassification(
        nts=nts,
        unital=unital,
        separable=separable,
        perfectly_separable=perfectly,
        fail_witness=witness,
    )


def gadget_scan(h: Hypergraph, t: TravisMatrix | CoTruth) -> GadgetScan:
    """True-implies-false and true-implies-true pairs of the state table or
    of its co-truth counts.

    TIFS pairs are restricted to non-adjacent vertices: adjacency forbids
    co-truth trivially and would flood the output. TITS pairs require the
    head to be true in at least one state, so vacuous implications are out.
    """
    if t.vertices != h.vertices:
        raise ColumnCountMismatchError(
            "state table columns do not match the hypergraph's vertices"
        )
    if t.n_rows == 0:
        raise OhgError("gadget_scan needs at least one two-valued state")
    cooc = t.cooc
    colsum = t.column_sums
    k = t.n_cols
    tifs = set()
    tits = set()
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            u, v = h.vertices[i], h.vertices[j]
            if cooc[i][j] == 0 and not h.adjacent(u, v):
                tifs.add((u, v))
            if colsum[i] > 0 and cooc[i][j] == colsum[i]:
                tits.add((u, v))
    return GadgetScan(frozenset(tifs), frozenset(tits))


def gadget_profile(t: TravisMatrix | CoTruth, head: str, tail: str) -> GadgetProfile:
    """Count states with head true / tail true / both false.

    Raises :class:`NotAGadgetPairError` if some state sets both to 1 (the
    three counts would not partition the states)."""
    if head == tail:
        raise OhgError("head and tail of a gadget pair must differ")
    for v in (head, tail):
        if v not in t.vertices:
            raise OhgError(f"{v!r} is not a column of the state table")
    i = t.vertices.index(head)
    j = t.vertices.index(tail)
    if t.cooc[i][j] > 0:
        raise NotAGadgetPairError(
            f"{head!r} and {tail!r} are jointly true in some state"
        )
    n_a, n_b = t.column_sums[i], t.column_sums[j]
    return GadgetProfile(head, tail, n_a, n_b, t.n_rows - n_a - n_b)
