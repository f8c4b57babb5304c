"""The JSON document that ``states --format json`` prints, with the state
table's rows, in chunks; loaded only for that output."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import Iterator

    from .. import states


def json_with_rows(payload: dict, t: states.TravisMatrix) -> Iterator[str]:
    """``_emit_json({**payload, "rows": [row digit strings]})`` in chunks."""
    import json

    from .. import states

    text = json.dumps({**payload, "rows": []}, indent=2) + "\n"
    if not t.n_rows:
        yield text
        return
    yield text[:-len("[]\n}\n")] + "["
    # each row printed with 8 leading zeros, overwritten by the separator
    sep = b'",\n    "'
    width = t.n_cols + len(sep)
    for start in range(0, t.n_rows, states._WRITE_BLOCK):
        rows = t.rows[start:start + states._WRITE_BLOCK]
        out = bytearray(states._row_digits(rows, width).encode("ascii"))
        for i, c in enumerate(sep):
            out[i::width] = bytes([c]) * len(rows)
        # a block opens with the tail of a separator: '\n    "' after the
        # bracket, ',\n    "' after an earlier block
        yield out[1 if start else 2:].decode("ascii") + '"'
    yield "\n  ]\n}\n"
