"""The catalogue of built-in fixtures.

The catalogue ships the worked examples as data files: hypergraphs in the
text context format plus, where a reference state table exists, a matrix
file transcribed verbatim (reference tables keep their printed row order, so
row indices quoted against them match the printed matrices).

A fixture has a hypergraph or a table where its ``.ohg`` or ``.mat`` file
ships. ``ohg gadget`` loads this module alone and copies that file unchanged,
which ``tests/test_gadgets.py::test_shipped_files_byte_stable`` keeps equal to
what parsing and writing it would print. :mod:`ohg.gadgets` re-exports these
names, so ``ohg.gadgets.fixture`` is ``ohg.fixture``.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Optional

from .errors import UnknownFixtureError
from .model import Hypergraph, parse_ohg, record

if TYPE_CHECKING:
    from .states import TravisMatrix

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

FIXTURE_NAMES = tuple(_NOTES)


@record
class Fixture:
    """A catalogued example: hypergraph and/or reference state table."""

    name: str
    hypergraph: Optional[Hypergraph]
    travis: Optional[TravisMatrix]
    notes: str


def _fixture_text(name: str, suffix: str) -> Optional[str]:
    """The shipped file ``name + suffix`` of a catalogued fixture, verbatim;
    ``None`` when the fixture has no such file."""
    if name not in _NOTES:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    from importlib import resources

    path = resources.files("ohg") / "fixtures" / f"{name}{suffix}"
    return path.read_text() if path.is_file() else None


@cache
def fixture(name: str) -> Fixture:
    """Look up a catalogued fixture by name (see :data:`FIXTURE_NAMES`)."""
    hypergraph, travis = _fixture_text(name, ".ohg"), _fixture_text(name, ".mat")
    if hypergraph is not None:
        hypergraph = parse_ohg(hypergraph)
    if travis is not None:
        from .formats import parse_matrix

        travis = parse_matrix(travis)
    return Fixture(name, hypergraph, travis, _NOTES[name])
