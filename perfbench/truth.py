"""Ground truth for the benchmark, computed without importing ``ohg``.

Everything here works from the context files the benchmark hands to the
program: a small backtracking state enumerator, the classification and
reconstruction criteria restated from their definitions, a 3-colouring
search, the closed-form counts of the gadget compositions, and a streaming
validator for state matrices. The pinned numbers are the paper's
(Shekarriz & Svozil, arXiv 2105.08520) or follow from its closed forms;
``run.py --selftest`` recomputes every pinned row hash with this module.
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property

import numpy as np

# State counts of the catalogued fixtures (paper and package catalogue).
FIXTURE_COUNTS = {
    "k3": 3, "triangle": 4, "pentagon": 11, "bug": 14, "g32": 6,
    "g32x": 6, "underlying": 6, "fig4": 2589,
}
# (head, tail) terminals and their (n_a, n_b, n_n) profiles.
PROFILES = {
    "bug": (("v1", "v7"), (3, 3, 8)),
    "g32": (("v1", "v13"), (2, 2, 2)),
    "fig4": (("a1", "a11"), (45, 504, 2040)),
}
BIND_BUG_COUNT = 2_239_488
LAYER_FIG4_COUNT = 8_628_465_600
BIND_FIG4_COUNT = 594_252_343_817_330_688_000_000

# sha256 of the canonical rows (one line of k digits per state, "\n"
# terminated), independent of vertex names; ``run.py --selftest`` rebuilds
# each from :func:`all_states`.
ROW_SHA256 = {
    "fig4": "daf27f8e0ae0a5829b3dc42b93bf03a15ea6ea8cb5b3536430f3fba1413ee969",
    "layer_bug": "861767fad405c0b233a8a33beb1dc591702baa6fc3369d2afc3fc02acb00dc93",
    "bind_g32": "54391c15753a3cb66d941c6abf7aad128455e26802bc34c8f31ac97586c98d8f",
    "bind_g32+bug": "4725e08cdccd69f0365fdea55f192de095e977c403af083e98dc695b28ab8e4f",
}
# The bug's reference table as shipped, in its printed row order.
BUG_TRAVIS_SHA256 = "b1c82e34b00cb3017f6b3e9913f26f9ffa23990b6f3b663bd22039057e883adb"


def bind_count(n_a: int, n_b: int, n_n: int) -> int:
    """States of the 9-copy binding: 6 * n_a^3 * n_b^3 * n_n^3."""
    return 6 * n_a ** 3 * n_b ** 3 * n_n ** 3


def layer_count(n_a: int, n_b: int, n_n: int) -> int:
    """States of a 3-copy layer: all corners false, or exactly one true."""
    return n_n ** 3 + 3 * n_a * n_b * n_n


def parse_contexts(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            out.append(line)
    return out


class Instance:
    """A hypergraph read from a context file, with its states on demand.

    Bit convention: column ``j`` (first-appearance order) is bit ``k-1-j``,
    so descending ints are the canonical row order.
    """

    def __init__(self, contexts: list[list[str]]):
        self.contexts = contexts
        self.vertices: list[str] = []
        seen = set()
        for ctx in contexts:
            for v in ctx:
                if v not in seen:
                    seen.add(v)
                    self.vertices.append(v)
        self.k = len(self.vertices)
        self.col = {v: j for j, v in enumerate(self.vertices)}
        self.masks = [sum(self.bit(v) for v in ctx) for ctx in contexts]
        self.nbr = dict.fromkeys(self.vertices, 0)
        for ctx, cm in zip(contexts, self.masks):
            for v in ctx:
                self.nbr[v] |= cm & ~self.bit(v)

    @classmethod
    def from_text(cls, text: str) -> "Instance":
        return cls(parse_contexts(text))

    def bit(self, v: str) -> int:
        return 1 << (self.k - 1 - self.col[v])

    def adjacent(self, u: str, v: str) -> bool:
        return bool(self.nbr[u] & self.bit(v))

    @cached_property
    def states(self) -> list[int]:
        """Every two-valued state, canonical (descending) order."""
        return sorted(all_states(self.masks, self.k), reverse=True)

    @cached_property
    def columns(self) -> list[int]:
        """Column ``j`` as a bitset over rows."""
        cols = [0] * self.k
        for r, s in enumerate(self.states):
            for j in range(self.k):
                if s >> (self.k - 1 - j) & 1:
                    cols[j] |= 1 << r
        return cols

    def cotrue(self, i: int, j: int) -> int:
        return (self.columns[i] & self.columns[j]).bit_count()


def all_states(masks: list[int], k: int) -> list[int]:
    """Assignments with exactly one true vertex per context (DFS)."""
    nbr = [0] * k
    for m in masks:
        for b in range(k):
            if m >> b & 1:
                nbr[b] |= m & ~(1 << b)
    out: list[int] = []

    def dfs(ones: int, zeros: int) -> None:
        best, best_open = None, None
        for m in masks:
            if m & ones:
                continue
            open_ = m & ~zeros
            if not open_:
                return
            if best is None or open_.bit_count() < best_open.bit_count():
                best, best_open = m, open_
        if best is None:
            out.append(ones)
            return
        cand = best_open
        while cand:
            low = cand & -cand
            cand ^= low
            b = low.bit_length() - 1
            if nbr[b] & ones:
                continue
            dfs(ones | low, zeros | nbr[b])

    dfs(0, 0)
    return out


def rows_sha256(rows: list[int], k: int) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update(format(r, f"0{k}b").encode() + b"\n")
    return h.hexdigest()


# -- classification -----------------------------------------------------------


def classify_lines(inst: Instance, chromatic: int) -> list[str]:
    """The report ``ohg classify`` must print, from the definitions."""
    k = inst.k
    nts = len(inst.states)
    colsum = [c.bit_count() for c in inst.columns]
    unital = nts > 0 and all(colsum)
    separable = True
    witness = None
    for i in range(k):
        for j in range(i + 1, k):
            both = inst.cotrue(i, j)
            item1 = colsum[j] - both > 0
            item2 = colsum[i] - both > 0
            if not item1 and not item2:
                separable = False
            u, v = inst.vertices[i], inst.vertices[j]
            item3 = inst.adjacent(u, v) or both > 0
            if witness is None and not (item1 and item2 and item3):
                witness = (u, v, 1 if not item1 else (2 if not item2 else 3))
    yn = lambda b: "yes" if b else "no"  # noqa: E731
    lines = [f"nTS: {nts}", f"unital: {yn(unital)}", f"separable: {yn(separable)}",
             f"perfectly-separable: {yn(witness is None)}"]
    if witness:
        lines.append(f"witness: pair ({witness[0]}, {witness[1]}) misses condition {witness[2]}")
    lines.append(f"semi-perfect: {yn(chromatic == clique_number(inst))}")
    return lines


# -- graphs: cliques and colourings ------------------------------------------


def _cliques(nbr: list[int]) -> list[int]:
    out = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pool = p | x
        pivot = max((b for b in range(len(nbr)) if pool >> b & 1),
                    key=lambda b: (p & nbr[b]).bit_count())
        todo = p & ~nbr[pivot]
        while todo:
            low = todo & -todo
            todo ^= low
            b = low.bit_length() - 1
            expand(r | low, p & nbr[b], x & nbr[b])
            p &= ~low
            x |= low

    expand(0, (1 << len(nbr)) - 1, 0)
    return out


def _vertex_nbr(inst: Instance) -> list[int]:
    """Two-section neighbours indexed by bit position."""
    nbr = [0] * inst.k
    for v in inst.vertices:
        nbr[inst.k - 1 - inst.col[v]] = inst.nbr[v]
    return nbr


def _names(inst: Instance, mask: int) -> frozenset[str]:
    return frozenset(v for v in inst.vertices if mask & inst.bit(v))


def clique_number(inst: Instance) -> int:
    return max(c.bit_count() for c in _cliques(_vertex_nbr(inst)))


def colorable(inst: Instance, n: int) -> bool:
    """Whether the two-section has a proper ``n``-colouring (DSATUR order)."""
    nbr = _vertex_nbr(inst)
    colors = [0] * inst.k

    def go(left: int) -> bool:
        if not left:
            return True
        pick, key = -1, (-1, -1)
        for b in range(inst.k):
            if colors[b]:
                continue
            sat = len({colors[u] for u in range(inst.k) if nbr[b] >> u & 1 and colors[u]})
            if (sat, nbr[b].bit_count()) > key:
                pick, key = b, (sat, nbr[b].bit_count())
        taken = {colors[u] for u in range(inst.k) if nbr[pick] >> u & 1}
        for c in range(1, n + 1):
            if c not in taken:
                colors[pick] = c
                if go(left - 1):
                    return True
        colors[pick] = 0
        return False

    return go(inst.k)


def chromatic_number(inst: Instance) -> int:
    n = clique_number(inst)
    while not colorable(inst, n):
        n += 1
    return n


def check_coloring(inst: Instance, text: str, n: int) -> str | None:
    """Validate ``ohg color`` text output: a proper colouring in 1..n."""
    color_of = {}
    for line in text.splitlines():
        if line.startswith("rows:"):
            if len(line.split()) - 1 != n:
                return f"expected {n} rows, got {line!r}"
            continue
        head, _, members = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "color" or not parts[1].isdigit():
            return f"unexpected line {line!r}"
        c = int(parts[1])
        if not 1 <= c <= n:
            return f"colour {c} outside 1..{n}"
        for v in members.split():
            if v in color_of:
                return f"vertex {v} coloured twice"
            color_of[v] = c
    if set(color_of) != set(inst.vertices):
        return "colouring does not cover exactly the input's vertices"
    for ctx in inst.contexts:
        if len({color_of[v] for v in ctx}) != len(ctx):
            return f"context {' '.join(ctx)} repeats a colour"
    return None


# -- reconstruction -------------------------------------------------------------


def reconstruction(inst: Instance) -> tuple[str, set[frozenset[str]], set[frozenset[str]]]:
    """Verdict, extra contexts and missing contexts of the adjacency and
    completion criteria applied to the hypergraph's own states."""
    k = inst.k
    colsum = [c.bit_count() for c in inst.columns]
    for i in range(k):
        for j in range(i + 1, k):
            if inst.cotrue(i, j) == colsum[i] == colsum[j]:
                return "non-separable", set(), set()
    nbr = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and inst.cotrue(i, j) == 0:
                nbr[k - 1 - i] |= 1 << (k - 1 - j)
    n = clique_number(inst)
    kept = {_names(inst, c) for c in _cliques(nbr) if c.bit_count() >= n}
    source = {frozenset(c) for c in inst.contexts}
    extra, missing = kept - source, source - kept
    return ("reconstructable" if not extra and not missing else "extra-structure"), extra, missing


def parse_reconstruct(text: str) -> tuple[str, set, set]:
    verdict, extra, missing = None, set(), set()
    for line in text.splitlines():
        key, _, rest = line.partition(": ")
        if key == "verdict":
            verdict = rest
        elif key == "extra context":
            extra.add(frozenset(rest.split()))
        elif key == "missing context":
            missing.add(frozenset(rest.split()))
    return verdict, extra, missing


# -- geometry -------------------------------------------------------------------


def labeling_is_faithful(inst: Instance, vectors: dict[str, list[float]], tol: float = 1e-9) -> bool:
    unit = {}
    for v in inst.vertices:
        x = vectors[v]
        norm = math.sqrt(sum(c * c for c in x))
        unit[v] = [c / norm for c in x]
    for i, u in enumerate(inst.vertices):
        for v in inst.vertices[i + 1:]:
            cos = abs(sum(a * b for a, b in zip(unit[u], unit[v])))
            if inst.adjacent(u, v) != (cos <= tol) or cos > 1.0 - tol:
                return False
    return True


# -- state matrices -------------------------------------------------------------


class MatrixCheck:
    """Streaming validation of state-matrix rows against a hypergraph.

    Feed blocks of digit rows (uint8 arrays of 0/1, one row per state).
    Every row must put exactly one 1 on each context; in canonical mode the
    rows must also be strictly descending as binary numbers, which makes
    them distinct. Together with the expected row count that pins the table
    exactly. The digest covers the rows as text, one line per state.
    """

    def __init__(self, inst: Instance, canonical: bool = True):
        self.inst = inst
        self.canonical = canonical
        inc = np.zeros((inst.k, len(inst.masks)), dtype=np.float32)
        for c, ctx in enumerate(inst.contexts):
            for v in ctx:
                inc[inst.col[v], c] = 1
        self.incidence = inc
        self.rows = 0
        self.error: str | None = None
        self.sha = hashlib.sha256()
        self.prev: np.ndarray | None = None
        self.seen: set[bytes] = set()

    def feed(self, bits: np.ndarray) -> None:
        if self.error or not len(bits):
            return
        if bits.shape[1] != self.inst.k or bits.max() > 1:
            self.error = "rows are not 0/1 vectors over the input's vertices"
            return
        per_ctx = bits.astype(np.float32) @ self.incidence
        if not (per_ctx == 1).all():
            bad = int(np.argmax((per_ctx != 1).any(axis=1)))
            self.error = f"row {self.rows + bad + 1} is not a two-valued state"
            return
        packed = np.packbits(bits, axis=1)
        if self.canonical:
            seq = packed if self.prev is None else np.vstack([self.prev, packed])
            a, b = seq[:-1], seq[1:]
            diff = a != b
            first = np.argmax(diff, axis=1)
            idx = np.arange(len(a))
            if not (diff.any(axis=1) & (a[idx, first] > b[idx, first])).all():
                self.error = "rows are not strictly descending (canonical order, distinct)"
                return
            self.prev = packed[-1:]
        else:
            for row in packed:
                key = row.tobytes()
                if key in self.seen:
                    self.error = "duplicate row"
                    return
                self.seen.add(key)
        text = np.empty((len(bits), self.inst.k + 1), dtype=np.uint8)
        text[:, :-1] = bits + ord("0")
        text[:, -1] = ord("\n")
        self.sha.update(text.tobytes())
        self.rows += len(bits)

    def verdict(self, expected_rows: int, sha256: str | None) -> str | None:
        if self.error:
            return self.error
        if self.rows != expected_rows:
            return f"expected {expected_rows} rows, got {self.rows}"
        if sha256 and self.sha.hexdigest() != sha256:
            return "row digest differs from the pinned value"
        return None


def check_matrix_file(path, inst: Instance, expected_rows: int, sha256: str | None,
                      *, canonical: bool = True, block: int = 65536) -> str | None:
    """Validate a ``.mat`` file: header names, then fixed-width 0/1 rows."""
    k = inst.k
    width = 2 * k
    with open(path, "rb") as f:
        header = f.readline().decode().split()
        if header[:1] != ["vertices:"] or header[1:] != inst.vertices:
            return "matrix header differs from the input's vertex names"
        check = MatrixCheck(inst, canonical)
        while True:
            chunk = f.read(block * width)
            if not chunk:
                break
            if len(chunk) % width:
                return "matrix rows are not all the same width"
            raw = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, width)
            if not ((raw[:, 1:-1:2] == ord(" ")).all() and (raw[:, -1] == ord("\n")).all()):
                return "matrix rows are not space-separated digits"
            check.feed(raw[:, 0::2] - np.uint8(ord("0")))
    return check.verdict(expected_rows, sha256)


def check_json_rows(rows: list[str], inst: Instance, expected_rows: int,
                    sha256: str | None) -> str | None:
    check = MatrixCheck(inst)
    if any(len(r) != inst.k for r in rows):
        return "JSON rows have the wrong length"
    if rows:
        raw = np.frombuffer("".join(rows).encode(), dtype=np.uint8).reshape(-1, inst.k)
        check.feed(raw - np.uint8(ord("0")))
    return check.verdict(expected_rows, sha256)
