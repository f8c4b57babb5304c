"""Built-in fixtures and gadget compositions.

The catalogue ships the worked examples as data files: hypergraphs in the
text context format plus, where a reference state table exists, a matrix
file transcribed verbatim (reference tables keep their printed row order, so
row indices quoted against them match the printed matrices).

Compositions: :func:`layer` folds three copies of a true-implies-false gadget
into a triangle with mutually non-adjacent corners; :func:`bind` stacks three
layers and binds matching corners with three extra contexts, producing the
hypergraph whose state table grows by :func:`predicted_bind_count`.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Optional

from .errors import (
    AdjacentTerminalsError,
    NotATifsPairError,
    OhgError,
    RankMismatchError,
    UnknownFixtureError,
)
from .model import Hypergraph, build, record

if TYPE_CHECKING:
    from .states import TravisMatrix

FIXTURE_NAMES = (
    "k3",
    "triangle",
    "pentagon",
    "bug",
    "g32",
    "g32x",
    "ghz",
    "underlying",
    "fig4",
)

_NOTES = {
    "k3": "a single 3-element context",
    "triangle": "three contexts pasted in a triangle; 4 states, 3-chromatic",
    "pentagon": "house/pentagon logic: 5 contexts in a ring, 11 states",
    "bug": "Specker bug: 13-vertex true-implies-false gadget with terminals v1, v7",
    "g32": "G32 logic: 15 vertices, 10 contexts, 6 states, chromatic number 4",
    "g32x": "G32 plus five extension contexts that leave the state set unchanged",
    "ghz": "tight GHZ logic; reference state table only (8 states, 16 vertices)",
    "underlying": "3x3 grid the binding corners inherit: rows and columns as contexts",
    "fig4": "43-vertex true-implies-false gadget with distant terminals a1, a11",
}


@record
class Fixture:
    """A catalogued example: hypergraph and/or reference state table."""

    name: str
    hypergraph: Optional[Hypergraph]
    travis: Optional[TravisMatrix]
    notes: str


@record
class BindSpec:
    """A gadget with verified (head, tail) true-implies-false terminals.

    Construction counts the gadget's pairwise co-truths, without a state
    table, and refuses adjacent terminals or pairs that some state makes
    jointly true.
    """

    gadget: Hypergraph
    head: str
    tail: str

    def __post_init__(self) -> None:
        from .states import cotruth, gadget_scan

        for v in (self.head, self.tail):
            if v not in self.gadget.index:
                raise UnknownFixtureError(f"terminal {v!r} is not a gadget vertex")
        if self.head == self.tail:
            raise AdjacentTerminalsError("head and tail must be distinct")
        if self.gadget.adjacent(self.head, self.tail):
            raise AdjacentTerminalsError(
                f"terminals {self.head!r} and {self.tail!r} are adjacent"
            )
        scan = gadget_scan(self.gadget, cotruth(self.gadget))
        if (self.head, self.tail) not in scan.tifs_pairs:
            raise NotATifsPairError(
                f"({self.head!r}, {self.tail!r}) is not a true-implies-false pair"
            )


def _read_fixture_file(filename: str) -> str:
    from importlib import resources

    return (resources.files("ohg") / "fixtures" / filename).read_text()


@cache
def fixture_hypergraph(name: str) -> Optional[Hypergraph]:
    """The hypergraph of a catalogued fixture, read without its reference
    state table; ``None`` for a fixture that ships as a table only."""
    if name not in FIXTURE_NAMES:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    if name == "ghz":
        return None
    from .formats import parse_ohg

    return parse_ohg(_read_fixture_file(f"{name}.ohg"))


@cache
def fixture(name: str) -> Fixture:
    """Look up a catalogued fixture by name (see :data:`FIXTURE_NAMES`)."""
    hypergraph = fixture_hypergraph(name)
    travis = None
    if name in ("triangle", "pentagon", "bug", "g32", "underlying", "ghz"):
        from .formats import parse_matrix

        travis = parse_matrix(_read_fixture_file(f"{name}.mat"))
    return Fixture(name, hypergraph, travis, _NOTES[name])


def _splice(
    gadget: Hypergraph, head_as: str, tail_as: str, head: str, tail: str, prefix: str
) -> list[tuple[str, ...]]:
    """Contexts of a gadget copy with terminals renamed and internals prefixed."""
    def rename(v: str) -> str:
        if v == head:
            return head_as
        if v == tail:
            return tail_as
        return prefix + v

    idx = gadget.index
    return [
        tuple(rename(v) for v in sorted(ctx, key=idx.__getitem__))
        for ctx in gadget.contexts
    ]


def _fold(
    spec: BindSpec, corners: tuple[str, str, str], copy_names: tuple[str, str, str]
) -> list:
    """One triangle of three gadget copies: each corner is the head of one
    copy and the tail of the previous one."""
    a, b, c = corners
    contexts = []
    for name, (h_as, t_as) in zip(copy_names, ((a, b), (b, c), (c, a))):
        contexts += _splice(
            spec.gadget, h_as, t_as, spec.head, spec.tail, f"{name}:"
        )
    return contexts


def layer(spec: BindSpec, corners: tuple[str, str, str] = ("a", "b", "c")) -> Hypergraph:
    """Three gadget copies cyclically folded into a triangle.

    The corners end up mutually non-adjacent, and every state makes at most
    one of them true. Vertex count 3|V|-3, context count 3|E|.
    """
    g = build(_fold(spec, corners, ("g1", "g2", "g3")))
    expect = 3 * len(spec.gadget.vertices) - 3
    if len(g.vertices) != expect:
        raise OhgError("vertex name collision while composing the layer")
    return g


_BIND_CORNERS = (("a", "b", "c"), ("a'", "b'", "c'"), ("a''", "b''", "c''"))


def bind(spec: BindSpec) -> Hypergraph:
    """Three layers plus three corner-binding contexts (the B construction).

    Requires clique number 3 (the binding contexts are triples). Vertex count
    9|V|-9, context count 9|E|+3.
    """
    from . import core

    if core.shape(spec.gadget).clique_number != 3:
        raise RankMismatchError("the binding construction needs clique number 3")
    contexts: list[tuple[str, ...]] = []
    for i, corners in enumerate(_BIND_CORNERS):
        names = (f"g{3 * i + 1}", f"g{3 * i + 2}", f"g{3 * i + 3}")
        contexts += _fold(spec, corners, names)
    contexts += [tuple(corner[j] for corner in _BIND_CORNERS) for j in range(3)]
    g = build(contexts)
    expect = 9 * len(spec.gadget.vertices) - 9
    if len(g.vertices) != expect:
        raise OhgError("vertex name collision while composing the binding")
    return g


def bind_corners() -> tuple[tuple[str, str, str], ...]:
    """The corner triples of the three layers of :func:`bind` output.

    These are not contexts of the composition, yet in every state exactly one
    vertex of each triple is true; reconstruction from the state table finds
    exactly these as surplus contexts.
    """
    return _BIND_CORNERS


def predicted_bind_count(n_a: int, n_b: int, n_n: int) -> int:
    """Exact number of states of the binding composition, from the gadget's
    (head true, tail true, both false) counts: 6 * n_a^3 * n_b^3 * n_n^3."""
    if min(n_a, n_b, n_n) < 0:
        raise ValueError("state counts must be nonnegative")
    return 6 * n_a ** 3 * n_b ** 3 * n_n ** 3


def _bug_contexts(head: str, tail: str, prefix: str) -> list[tuple[str, ...]]:
    def nm(i: int) -> str:
        if i == 1:
            return head
        if i == 7:
            return tail
        return f"{prefix}{i}"

    shape = [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9), (9, 10, 11),
             (11, 12, 1), (4, 13, 10)]
    return [tuple(nm(i) for i in ctx) for ctx in shape]


def build_fig4(*, flip_first: bool = False, flip_second: bool = False) -> Hypergraph:
    """The 43-vertex long-range gadget: a 10-context ring with one chord and
    two spliced bug copies tying a1 to a8 and a1 to a14.

    The flip flags choose which bug terminal lands on a1 in each splice. The
    bug carries an automorphism exchanging its terminals, so all four
    variants are isomorphic; the default orientation is the catalogued
    fixture, and a test enumerates every variant to confirm the state counts
    and the (a1, a11) profile agree.
    """
    ring = [tuple(f"a{i}" for i in (j, j + 1, j + 2)) for j in range(1, 18, 2)]
    ring.append(("a19", "a20", "a1"))
    chord = [("a4", "a21", "a18")]
    first = ("a1", "a8") if not flip_first else ("a8", "a1")
    second = ("a1", "a14") if not flip_second else ("a14", "a1")
    bug1 = _bug_contexts(first[0], first[1], "b1_")
    bug2 = _bug_contexts(second[0], second[1], "b2_")
    return build(ring + chord + bug1 + bug2)
