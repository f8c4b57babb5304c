"""``ohg color``: search for a proper coloring."""

import sys
from typing import TYPE_CHECKING

from . import _emit_json, _load_hypergraph
from ..errors import OhgError

if TYPE_CHECKING:
    from typing import Optional

    from ..chromatic import Coloring


ARGUMENTS = {
    "file": {},
    "--n": {"type": int, "required": True},
    "--algorithm": {"choices": ("paper", "relaxed", "exact"), "default": "paper"},
    "--format": {"choices": ("text", "json", "dot"), "default": "text"},
}


def run(args) -> int:
    h = _load_hypergraph(args.file)
    n = args.n
    if n < 1:
        raise OhgError("the number of colors must be positive")
    rows_out: Optional[list[int]] = None
    col: Optional[Coloring] = None
    if args.algorithm == "paper":
        from .. import coloring

        found = coloring.paper_coloring(h, n)
        if found is not None:
            selection, partition = found
            rows_out = list(selection.rows)
            col = coloring.coloring_from_partition(partition)
    elif args.algorithm == "relaxed":
        from .. import coloring, states

        t = states.enumerate_states(h)
        col = coloring.relaxed_coloring(t, h, n)
    else:
        from .. import chromatic

        chi, best = chromatic.exact_coloring(h)
        if chi <= n:
            col = best
    if col is None:
        message = f"no {n}-coloring from two-valued states"
        if args.format == "json":
            _emit_json({"vertices": list(h.vertices), "coloring": None})
        elif args.format == "dot":
            print(message, file=sys.stderr)
        else:
            print(message)
        return 1
    if args.format == "json":
        payload = {
            "vertices": list(h.vertices),
            "coloring": {v: col.color_of[v] for v in h.vertices},
        }
        if rows_out is not None:
            payload["rows"] = rows_out
        _emit_json(payload)
    elif args.format == "dot":
        from ._dot import dot_structure

        sys.stdout.write(dot_structure(h, fills=col.color_of))
    else:
        if rows_out is not None:
            print("rows: " + " ".join(str(r) for r in rows_out))
        for c in col.colors():
            members = sorted(col.color_class(c), key=h.index.__getitem__)
            print(f"color {c}: " + " ".join(members))
    return 0
