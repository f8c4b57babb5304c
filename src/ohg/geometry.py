"""Checking vector labelings against the faithful-orthogonal-representation law.

A labeling is a faithful orthogonal representation when adjacency coincides
exactly with orthogonality and no two vectors are colinear. This is the only
numerically continuous check in the package; inner products use compensated
summation and vectors are normalized before testing, so global rotations and
per-vector scalings cannot change a report.

The vector file, one line per vertex (``name: c1 c2 ... cn``), is read and
written here (:func:`parse_vectors`, :func:`write_vectors`), so that
``ohg verify-for`` loads no other file format; :mod:`ohg.formats` binds both
names on first use.
"""

from __future__ import annotations

import math

from .errors import DimensionMismatchError, MissingVertexError, OhgError, ParseError
from .model import Hypergraph, _content_lines, record

DEFAULT_TOLERANCE = 1e-9

Violation = tuple[str, str, float]


@record
class VectorLabeling:
    """Real vectors assigned to vertex names; not required to be unit length
    (verification normalizes first)."""

    dimension: int
    vectors: dict[str, tuple[float, ...]]


@record
class ForReport:
    """Violations of the three representation laws; empty means valid.

    ``non_orthogonal_adjacent``: adjacent pairs whose inner product exceeds
    the tolerance. ``orthogonal_non_adjacent``: non-adjacent pairs that are
    orthogonal anyway (faithfulness is an if-and-only-if).
    ``colinear``: distinct vertices carrying parallel vectors.
    Each entry is ``(u, v, |cos angle|)``.
    """

    non_orthogonal_adjacent: tuple[Violation, ...]
    orthogonal_non_adjacent: tuple[Violation, ...]
    colinear: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not (
            self.non_orthogonal_adjacent
            or self.orthogonal_non_adjacent
            or self.colinear
        )


def _dot(x: tuple[float, ...], y: tuple[float, ...]) -> float:
    return math.fsum(a * b for a, b in zip(x, y))


def _normalize(name: str, vec: tuple[float, ...]) -> tuple[float, ...]:
    # every comparison with NaN is false, so a non-finite vector would pass
    if not all(map(math.isfinite, vec)):
        raise OhgError(f"vertex {name!r} carries a non-finite component")
    # hypot scales internally, so that no vector's norm underflows or overflows
    norm = math.hypot(*vec)
    if norm == 0.0:
        raise OhgError(f"vertex {name!r} carries the zero vector")
    return tuple(c / norm for c in vec)


def verify_for(
    h: Hypergraph, labeling: VectorLabeling, tol: float = DEFAULT_TOLERANCE
) -> ForReport:
    """Check a labeling of ``h`` against the faithful-representation laws.

    Requires a vector of the declared dimension for every vertex; ``tol`` is
    the orthogonality cutoff on normalized inner products (the package
    convention is 1e-9 since no canonical value exists). From 0.5 up a pair
    could be orthogonal and colinear at once, so ``tol`` must lie strictly
    between 0 and 0.5.
    """
    if not 0 < tol < 0.5:
        raise OhgError(f"tolerance must lie strictly between 0 and 0.5, got {tol}")
    unit: dict[str, tuple[float, ...]] = {}
    for v in h.vertices:
        if v not in labeling.vectors:
            raise MissingVertexError(f"labeling misses vertex {v!r}")
        vec = labeling.vectors[v]
        if len(vec) != labeling.dimension:
            raise DimensionMismatchError(
                f"vector for {v!r} has length {len(vec)}, expected {labeling.dimension}"
            )
        unit[v] = _normalize(v, vec)
    bad_adjacent = []
    bad_non_adjacent = []
    colinear = []
    vs = h.vertices
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            cos = abs(_dot(unit[u], unit[v]))
            if h.adjacent(u, v):
                if cos > tol:
                    bad_adjacent.append((u, v, cos))
            elif cos <= tol:
                bad_non_adjacent.append((u, v, cos))
            if cos > 1.0 - tol:
                colinear.append((u, v, cos))
    return ForReport(
        tuple(bad_adjacent), tuple(bad_non_adjacent), tuple(colinear)
    )


def parse_vectors(text: str) -> VectorLabeling:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("vector file is empty")
    vectors: dict[str, tuple[float, ...]] = {}
    dim = None
    for line in lines:
        if ":" not in line:
            raise ParseError(f'vector line needs "name: components": {line!r}')
        name, _, rest = line.rpartition(":")
        name = name.strip()
        try:
            comps = tuple(float(x) for x in rest.split())
        except ValueError:
            raise ParseError(f"vector components must be reals: {line!r}") from None
        if not name or not comps:
            raise ParseError(f"vector line needs a name and components: {line!r}")
        if dim is None:
            dim = len(comps)
        if name in vectors:
            raise ParseError(f"vertex {name!r} labeled twice")
        vectors[name] = comps
    return VectorLabeling(dim, vectors)


def write_vectors(labeling: VectorLabeling) -> str:
    out = []
    for name in sorted(labeling.vectors):
        comps = " ".join(repr(c) for c in labeling.vectors[name])
        out.append(f"{name}: {comps}")
    return "\n".join(out) + "\n"
