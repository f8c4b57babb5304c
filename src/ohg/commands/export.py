"""``ohg export``: emit the hypergraph as JSON or DOT."""

import sys

from . import _emit_json, _load_hypergraph


ARGUMENTS = {
    "file": {},
    "--format": {"choices": ("json", "dot"), "required": True},
}


def run(args) -> int:
    h = _load_hypergraph(args.file)
    if args.format == "json":
        _emit_json({
            "vertices": list(h.vertices),
            "contexts": [sorted(c, key=h.index.__getitem__) for c in h.contexts],
        })
    else:
        from ._dot import dot_structure

        sys.stdout.write(dot_structure(h))
    return 0
