"""Text formats: hypergraph files, state-table files, vector labelings.

A hypergraph file has one context per line, vertex names separated by
whitespace; ``#`` starts a comment. A matrix file opens with a
``vertices:`` header naming the columns, followed by one row of
space-separated 0/1 digits per state. A vector file has one line per
vertex: ``name: c1 c2 ... cn``.

The hypergraph parser, :func:`parse_ohg`, is :mod:`ohg.model`'s, re-exported
here: a command that only reads a hypergraph loads it without this module.
The vector parser and writer, :func:`parse_vectors` and
:func:`write_vectors`, are :mod:`ohg.geometry`'s, next to the check that
reads the labeling; their names are bound here on first use.

Writers emit a canonical form (context members in vertex declaration order),
so canonical files round-trip byte-identically modulo comments.

The matrix writer formats rows in blocks of a few thousand: each block is
printed as one binary big int and laid out as text by slice assignment, not
digit by digit. :func:`matrix_chunks` yields the text block by block, so a
caller can write a multi-million-row table (the 2,239,488 x 108 matrix of
the binding of the bug, 484 MB of text) with memory bounded by one block;
``ohg states --out`` and the matrix on standard output are written that way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import _lazy
from .errors import ParseError
from .model import Hypergraph, _content_lines, parse_ohg  # noqa: F401 (re-exported)

if TYPE_CHECKING:
    from .states import TravisMatrix

__getattr__ = _lazy(globals(), {"parse_vectors": "geometry", "write_vectors": "geometry"})


def write_ohg(h: Hypergraph) -> str:
    idx = h.index
    out = []
    for ctx in h.contexts:
        out.append(" ".join(sorted(ctx, key=idx.__getitem__)))
    return "\n".join(out) + "\n"


def parse_matrix(text: str) -> TravisMatrix:
    from .states import TravisMatrix

    lines = _content_lines(text)
    if not lines or not lines[0].startswith("vertices:"):
        raise ParseError('matrix file must start with a "vertices:" header')
    vertices = tuple(lines[0][len("vertices:"):].split())
    if not vertices:
        raise ParseError("matrix header names no vertices")
    rows = []
    for line in lines[1:]:
        digits = line.split()
        try:
            bits = [int(d) for d in digits]
        except ValueError:
            raise ParseError(f"matrix row is not 0/1 digits: {line!r}") from None
        rows.append(bits)
    try:
        return TravisMatrix.from_bit_rows(vertices, rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _matrix_lines(rows: Sequence[int], k: int) -> str:
    """Rows of ``k`` columns as matrix-file lines: digits at the even byte
    positions, spaces between them and a newline last."""
    from .states import _row_digits

    digits = _row_digits(rows, k).encode("ascii")
    out = bytearray(b" ") * (2 * len(digits))
    out[0::2] = digits
    out[2 * k - 1::2 * k] = b"\n" * len(rows)
    return out.decode("ascii")


def write_matrix(t: TravisMatrix, start: int = 0, stop: Optional[int] = None) -> str:
    """The matrix-file text of ``t``: the ``vertices:`` header, then one line
    of space-separated 0/1 digits per row.

    Given ``start``/``stop``, only rows ``start:stop`` are written, and the
    header only when ``start`` is 0, so consecutive slices concatenate to the
    whole text. Rows are formatted a block at a time: the block's rows are
    printed as one binary big int, whose digits go to the even byte positions
    of a text buffer of spaces, with a newline after each row's last digit.
    To write a large table without holding all of its text, use
    :func:`matrix_chunks`.
    """
    from .states import _WRITE_BLOCK

    head = "vertices: " + " ".join(t.vertices) + "\n" if start == 0 else ""
    rows = t.rows[start:stop]
    return head + "".join(
        _matrix_lines(rows[i:i + _WRITE_BLOCK], t.n_cols)
        for i in range(0, len(rows), _WRITE_BLOCK)
    )


def matrix_chunks(t: TravisMatrix) -> Iterator[str]:
    """The text of :func:`write_matrix` in consecutive chunks, header first,
    of at most a few thousand rows each (under 1 MB at 108 columns)."""
    from .states import _WRITE_BLOCK

    for start in range(0, max(t.n_rows, 1), _WRITE_BLOCK):
        yield write_matrix(t, start, start + _WRITE_BLOCK)
