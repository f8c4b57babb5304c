"""Gadget compositions, and the built-in fixtures they start from.

Compositions: :func:`layer` folds three copies of a true-implies-false gadget
into a triangle with mutually non-adjacent corners; :func:`bind` stacks three
layers and binds matching corners with three extra contexts, producing the
hypergraph whose state table grows by :func:`predicted_bind_count`.

The fixtures are :mod:`ohg.catalogue`'s and the closed form
:func:`predicted_bind_count` is :mod:`ohg.bindcount`'s, both re-exported
here, so that ``ohg gadget`` and ``ohg count`` load neither the compositions
nor each other.
"""

from __future__ import annotations

from .bindcount import predicted_bind_count  # noqa: F401 (re-exported)
from .catalogue import FIXTURE_NAMES, Fixture, fixture  # noqa: F401 (re-exported)
from .errors import (
    AdjacentTerminalsError,
    NotATifsPairError,
    OhgError,
    RankMismatchError,
    UnknownFixtureError,
)
from .model import Hypergraph, build, record


@record
class BindSpec:
    """A gadget with verified (head, tail) true-implies-false terminals.

    Construction refuses adjacent terminals, and pairs that some state makes
    jointly true: it counts, without a state table, the states false on the
    neighbours of both terminals, which are those making both true.
    """

    gadget: Hypergraph
    head: str
    tail: str

    def __post_init__(self) -> None:
        from .engine import count, search

        for v in (self.head, self.tail):
            if v not in self.gadget.index:
                raise UnknownFixtureError(f"terminal {v!r} is not a gadget vertex")
        if self.head == self.tail:
            raise AdjacentTerminalsError("head and tail must be distinct")
        if self.gadget.adjacent(self.head, self.tail):
            raise AdjacentTerminalsError(
                f"terminals {self.head!r} and {self.tail!r} are adjacent"
            )
        trace = search(self.gadget)
        if not count(trace):
            raise OhgError("the gadget has no two-valued state")
        nbr, idx = self.gadget.neighbor_masks, self.gadget.index
        if count(trace, nbr[idx[self.head]] | nbr[idx[self.tail]]):
            raise NotATifsPairError(
                f"({self.head!r}, {self.tail!r}) is not a true-implies-false pair"
            )


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
    from .cliques import shape

    if shape(spec.gadget).clique_number != 3:
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
