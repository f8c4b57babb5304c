"""The hypergraph data model: vertex masks, frozen records, :class:`Hypergraph`.

Vertices are opaque string tokens. All heavy computation runs on dense
integer indices in declaration order, with vertex sets packed into Python
int bitmasks (bit ``i`` = vertex ``i``). :func:`_bits` lists the members of
such a mask; the package walks masks through it only. The package's value
classes are frozen records made by :func:`record`. The hypergraph file
parser, :func:`parse_ohg`, lives here too, so that a command that only reads
a hypergraph loads neither the writers nor the other parsers of
:mod:`ohg.formats`, which re-exports it. :mod:`ohg.core` holds the graph
algorithms and re-exports these names; counting, parsing and export load
this module without it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateContextError,
    EmptyContextError,
    InvalidVertexNameError,
    ParseError,
    SubsetContextError,
)

def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fields(r) -> tuple:
    return tuple(getattr(r, f) for f in r.__match_args__)


def _repr(r) -> str:
    args = ", ".join(f"{f}={getattr(r, f)!r}" for f in r.__match_args__)
    return f"{type(r).__qualname__}({args})"


def _eq(r, other) -> bool:
    if other.__class__ is not r.__class__:
        return NotImplemented
    return _fields(r) == _fields(other)


def _hash(r) -> int:
    return hash(_fields(r))


def _refuse_set(r, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(r, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Make ``cls`` a frozen record of its annotated fields.

    The record gets an ``__init__`` taking the fields in order, by position
    or keyword, with a class attribute as the field's default; it calls
    ``self.__post_init__()`` when the class has one, looked up at each call.
    Fields are listed in ``__match_args__``. Unless the class defines its
    own, the record also gets a field-wise repr, and equality and a hash
    over its fields. Assigning or deleting any attribute raises
    :class:`AttributeError` (:func:`functools.cached_property` still
    caches, through ``__dict__``).
    """
    fields = tuple(cls.__annotations__)
    params = ", ".join(f"{f}=cls.{f}" if f in vars(cls) else f for f in fields)
    body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    namespace = {"cls": cls, "_set": object.__setattr__}
    exec(f"def __init__(self, {params}):\n{body}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__match_args__ = fields
    methods = {"__repr__": _repr, "__eq__": _eq, "__hash__": _hash,
               "__setattr__": _refuse_set, "__delattr__": _refuse_del}
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    return cls


def _check_name(name: object) -> str:
    if not isinstance(name, str) or not name or any(ch.isspace() for ch in name):
        raise InvalidVertexNameError(
            f"vertex names must be nonempty tokens without whitespace, got {name!r}"
        )
    return name


@record
class Hypergraph:
    """An orthogonality hypergraph: named vertices plus a family of contexts.

    Instances are immutable; use :func:`build` to construct a validated one.
    """

    vertices: tuple[str, ...]
    contexts: tuple[frozenset[str], ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def context_masks(self) -> tuple[int, ...]:
        idx = self.index
        return tuple(
            sum(1 << idx[v] for v in ctx) for ctx in self.contexts
        )

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """For each vertex, the mask of vertices sharing some context with it."""
        nbr = [0] * len(self.vertices)
        for mask in self.context_masks:
            for v in _bits(mask):
                nbr[v] |= mask & ~(1 << v)
        return tuple(nbr)

    def adjacent(self, u: str, v: str) -> bool:
        if u == v:
            return False
        return bool(self.neighbor_masks[self.index[u]] >> self.index[v] & 1)

    def __repr__(self) -> str:  # keep reprs short, fixtures have 100+ vertices
        return f"Hypergraph({len(self.vertices)} vertices, {len(self.contexts)} contexts)"


def build(raw_contexts: Sequence[Iterable[str]]) -> Hypergraph:
    """Validate and construct a hypergraph from a sequence of contexts.

    Vertex order is first appearance over the given sequence, so pass ordered
    iterables when the column order matters. Duplicate or nested contexts are
    hard errors: the logics this package handles never contain them, and
    silently dropping input would mask transcription mistakes.
    """
    vertices: list[str] = []
    seen: dict[str, int] = {}
    contexts: list[frozenset[str]] = []
    for raw in raw_contexts:
        names = [_check_name(v) for v in raw]
        ctx = frozenset(names)
        if len(ctx) < 2:
            raise EmptyContextError(
                f"context needs at least two distinct vertices, got {sorted(ctx)!r}"
            )
        if ctx in contexts:
            raise DuplicateContextError(f"context {sorted(ctx)!r} appears twice")
        for v in names:
            if v not in seen:
                seen[v] = len(vertices)
                vertices.append(v)
        contexts.append(ctx)
    for i, a in enumerate(contexts):
        for b in contexts[i + 1:]:
            if a <= b or b <= a:
                small, big = (a, b) if a <= b else (b, a)
                raise SubsetContextError(
                    f"context {sorted(small)!r} is contained in {sorted(big)!r}"
                )
    if not contexts:
        raise EmptyContextError("a hypergraph needs at least one context")
    return Hypergraph(tuple(vertices), tuple(contexts))


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_ohg(text: str) -> Hypergraph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("hypergraph file contains no contexts")
    return build([tuple(line.split()) for line in lines])
