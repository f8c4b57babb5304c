"""Two-valued state enumeration and classification of the resulting table.

A two-valued state assigns 0/1 to every vertex so that each context carries
exactly one 1. The enumeration engine does depth-first branching on contexts
with unit propagation (a 1 forces 0 on all 2-section neighbors; a context with
one undetermined vertex left forces it to 1; an all-0 context kills the
branch). When the residual problem falls apart into independent components the
engine solves them separately and combines, which is what makes the 108-vertex
binding composition (2,239,488 states) enumerable in seconds. The counter also
caches the count of every component it solves, keyed by the component's
contexts and its undetermined vertices (the component caching of #SAT model
counters), so a component met again in another branch costs one lookup. That
counts the 378-vertex binding (about 5.9e23 states) in a fraction of a second.

The same branching loop runs with one of three ways of combining results
(algebras): plain counts (:func:`count_states`), counts together with
per-vertex true counts and pairwise co-truth counts (:func:`cotruth`), or the
rows themselves (:func:`enumerate_states`). The pairwise analyses
(classification, gadget scans and profiles, reconstruction by the adjacency
criterion) need nothing else, so they run without a state table, on the
378-vertex binding too. Only row-level work enumerates: the state matrix, the
paper's row selection and the relaxed colouring. Enumeration counts first
and refuses a table above :data:`ROW_BUDGET` rows; it runs without the
component cache, because its results are whole states, not parts of them.

numpy is imported inside the functions that build arrays
(``TravisMatrix.cooc``/``column_int`` through the bit blocks, and the
co-truth pass), not at module level: counting, enumeration and the text
writers' digit strings (:func:`_row_digits`) use Python ints only, so a
caller that only counts, enumerates, writes tables or colours never loads
numpy.

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
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
)

from .core import Hypergraph, _bits
from .errors import (
    ColumnCountMismatchError,
    NotAGadgetPairError,
    OhgError,
    RowLimitExceededError,
)

if TYPE_CHECKING:
    import numpy as np

_COOC_CHUNK = 65536
# Rows per block for the text writers: a block of 4096 rows x 108 columns is
# under 1 MB of text, where 65536-row blocks raise the peak RSS of an export.
_WRITE_BLOCK = 4096

# Largest state table enumerate_states builds unless given a row limit: bind(bug)
# (2,239,488 rows) fits, bind(fig4) (about 5.9e23) is refused before any row.
ROW_BUDGET = 2 ** 23


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        import numpy as np

        # every block but the last holds a multiple of 8 rows, so the packed
        # bytes of consecutive blocks line up
        packed = b"".join(
            np.packbits(bits[:, col], bitorder="little").tobytes()
            for bits in _bit_blocks(self.rows, self.n_cols, _COOC_CHUNK)
        )
        return int.from_bytes(packed, "little")

    @cached_property
    def cooc(self) -> np.ndarray:
        """Pairwise co-truth counts: ``cooc[i, j]`` = number of rows with both
        columns 1; the diagonal holds column sums. Computed once in chunks, so
        the 2.2M-row binding instance stays tractable."""
        import numpy as np

        k = self.n_cols
        counts = np.zeros((k, k), dtype=np.int64)
        for bits in _bit_blocks(self.rows, k, _COOC_CHUNK):
            bits = bits.astype(np.float32)
            counts += (bits.T @ bits).astype(np.int64)
        return counts

    @property
    def column_sums(self) -> np.ndarray:
        return self.cooc.diagonal()

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


def _bit_blocks(rows: Sequence[int], k: int, block: int) -> Iterator[np.ndarray]:
    """Consecutive slices of at most ``block`` packed rows, each as an
    ``(n, k)`` uint8 array of 0/1 entries in column order."""
    import numpy as np

    nbytes = (k + 7) // 8
    pad = nbytes * 8 - k
    for start in range(0, len(rows), block):
        chunk = rows[start:start + block]
        buf = b"".join(r.to_bytes(nbytes, "big") for r in chunk)
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(chunk), nbytes)
        yield np.unpackbits(packed, axis=1)[:, pad:]


@dataclass(frozen=True, eq=False)
class CoTruth:
    """State count and pairwise co-truth counts, without the rows.

    ``cooc[i, j]`` is the number of states making columns ``i`` and ``j``
    both true, and the diagonal holds the column sums, as in
    :attr:`TravisMatrix.cooc`; the entries are exact Python ints, because
    counts pass 2**63. The pairwise analyses (:func:`classify`,
    :func:`gadget_scan`, :func:`gadget_profile` and the reconstruction)
    accept it in place of a table.
    """

    vertices: tuple[str, ...]
    nts: int
    cooc: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.nts

    @property
    def n_cols(self) -> int:
        return len(self.vertices)

    @property
    def column_sums(self) -> np.ndarray:
        return self.cooc.diagonal()

    def __repr__(self) -> str:
        return f"CoTruth({self.nts} states x {self.n_cols} vertices)"


@dataclass(frozen=True)
class StateClassification:
    """Separability-style verdicts over a complete state table."""

    nts: int
    unital: bool
    separable: bool
    perfectly_separable: bool
    fail_witness: Optional[tuple[str, str, int]]


@dataclass(frozen=True)
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


class _CoTruthSum:
    """Co-truth counting: a result is ``None`` when there is no state, else
    ``(n, scope, m)``.

    ``n`` is the number of states, ``scope`` a bitmask holding every vertex
    they may set true, and ``m`` an object array of exact ints over the
    columns of ``scope`` in ascending order: ``m[a, b]`` counts the states
    making both columns true, and the diagonal holds the true counts.
    """

    zero = None

    def __init__(self):
        import numpy as np

        # bound once per pass, so that no node pays for an import statement
        self.np = np

    def columns(self, mask: int) -> np.ndarray:
        """Ascending column indices of the bits of ``mask``."""
        np = self.np
        digits = np.frombuffer(format(mask, "b")[::-1].encode(), dtype=np.uint8)
        return np.flatnonzero(digits == ord("1"))

    def node(self, now: int, forced: int, parts: list[tuple]) -> tuple:
        """Independent parts under vertices true in every state.

        With ``n`` the product of the part counts, a forced column is true
        in all ``n`` states and column ``a`` of part ``i`` in
        ``n / n_i * m_i[a, a]``, so those are also their co-truth counts
        with the forced columns. Columns ``a``, ``b`` of one part are jointly
        true in ``n / n_i * m_i[a, b]`` states, of parts ``i != j`` in
        ``n / (n_i * n_j) * m_i[a, a] * m_j[b, b]``.
        """
        if not forced and len(parts) == 1:
            return parts[0]
        np = self.np
        n = math.prod(p[0] for p in parts)
        scope = forced
        for _, part_scope, _ in parts:
            scope |= part_scope
        cols = self.columns(scope)
        m = np.empty((len(cols), len(cols)), dtype=object)
        f = np.searchsorted(cols, self.columns(forced))
        m[np.ix_(f, f)] = n
        placed = []
        for part_n, part_scope, part_m in parts:
            idx = np.searchsorted(cols, self.columns(part_scope))
            rest = n // part_n
            m[np.ix_(idx, idx)] = part_m * rest if rest > 1 else part_m
            diag = np.diagonal(part_m)
            true_counts = diag * rest
            m[np.ix_(f, idx)] = true_counts
            m[np.ix_(idx, f)] = true_counts[:, None]
            for idx2, diag2, n2 in placed:
                block = np.multiply.outer(diag * (rest // n2), diag2)
                m[np.ix_(idx, idx2)] = block
                m[np.ix_(idx2, idx)] = block.T
            placed.append((idx, diag, part_n))
        return n, scope, m

    def add(self, results: list) -> Optional[tuple]:
        """Branches of one context: counts and co-truth matrices add up."""
        results = [r for r in results if r is not None]
        if len(results) <= 1:
            return results[0] if results else None
        np = self.np
        scope = 0
        for _, part_scope, _ in results:
            scope |= part_scope
        cols = self.columns(scope)
        m = np.zeros((len(cols), len(cols)), dtype=object)
        for i, (_, part_scope, part_m) in enumerate(results):
            idx = np.searchsorted(cols, self.columns(part_scope))
            if i:
                m[np.ix_(idx, idx)] += part_m
            else:
                m[np.ix_(idx, idx)] = part_m
        return sum(r[0] for r in results), scope, m


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
            return [int(format(now, f"0{self.k}b")[::-1], 2)]
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
    limit, what = ((ROW_BUDGET, "row budget") if row_limit is None
                   else (row_limit, "row limit"))
    n = prob.solve(_Count, {})
    if n > limit:
        raise RowLimitExceededError(
            f"the state table would have {n} rows, above the {what} of {limit}"
        )
    rows = prob.solve(_Rows(len(h.vertices)), None)
    rows.sort(reverse=True)
    return TravisMatrix(h.vertices, tuple(rows))


def count_states(
    h: Hypergraph,
    *,
    jobs: int = 1,
    progress: Optional[Callable[[int], None]] = None,
) -> int:
    """Number of two-valued states, without storing rows.

    Counting is serial and caches the count of every residual component for
    the duration of the call. ``jobs`` is accepted for compatibility and does
    not change the result. ``progress`` is invoked with the running total
    after each branch of the root node.
    """
    return _Problem(h).solve(_Count, {}, progress=progress)


def cotruth(h: Hypergraph) -> CoTruth:
    """State count and pairwise co-truth counts of ``h``, without a table.

    One pass of the component-cached counter carries, for every component,
    its count and its co-truth matrix (see :class:`_CoTruthSum`), so the
    378-vertex binding (about 5.9e23 states) is analysed in seconds. The
    result equals ``enumerate_states(h).cooc`` entry for entry.
    """
    import numpy as np

    k = len(h.vertices)
    alg = _CoTruthSum()
    res = _Problem(h).solve(alg, {})
    cooc = np.zeros((k, k), dtype=object)
    if res is None:
        return CoTruth(h.vertices, 0, cooc)
    n, scope, m = res
    cols = alg.columns(scope)
    cooc[np.ix_(cols, cols)] = m
    return CoTruth(h.vertices, n, cooc)


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
    unital = nts > 0 and bool((colsum > 0).all())
    separable = True
    perfectly = True
    witness: Optional[tuple[str, str, int]] = None
    for i in range(k):
        for j in range(i + 1, k):
            both = int(cooc[i, j])
            item1 = int(colsum[j]) - both > 0  # some row has i=0, j=1
            item2 = int(colsum[i]) - both > 0  # some row has i=1, j=0
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
            if cooc[i, j] == 0 and not h.adjacent(u, v):
                tifs.add((u, v))
            if colsum[i] > 0 and cooc[i, j] == colsum[i]:
                tits.add((u, v))
    return GadgetScan(frozenset(tifs), frozenset(tits))


def gadget_profile(t: TravisMatrix | CoTruth, head: str, tail: str) -> GadgetProfile:
    """Count states with head true / tail true / both false.

    Raises :class:`NotAGadgetPairError` if some state sets both to 1 (the
    three counts would not partition the states)."""
    if head == tail:
        raise OhgError("head and tail of a gadget pair must differ")
    i = t.vertices.index(head)
    j = t.vertices.index(tail)
    if int(t.cooc[i, j]) > 0:
        raise NotAGadgetPairError(
            f"{head!r} and {tail!r} are jointly true in some state"
        )
    n_a = int(t.column_sums[i])
    n_b = int(t.column_sums[j])
    return GadgetProfile(head, tail, n_a, n_b, t.n_rows - n_a - n_b)
