"""The catalogue of built-in fixtures.

The catalogue ships the worked examples as data files: hypergraphs in the
text context format plus, where a reference state table exists, a matrix
file transcribed verbatim (reference tables keep their printed row order, so
row indices quoted against them match the printed matrices).

``ohg gadget`` loads this module alone; :mod:`ohg.gadgets`, the gadget
compositions, re-exports its names, so ``ohg.gadgets.fixture`` is
``ohg.fixture``.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Optional

from .errors import UnknownFixtureError
from .model import Hypergraph, parse_ohg, record

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
