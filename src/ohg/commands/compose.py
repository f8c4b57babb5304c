"""``ohg compose``: layer or bind a gadget."""

import sys

from . import _emit_json, _load_hypergraph


ARGUMENTS = {
    "kind": {"choices": ("layer", "bind")},
    "file": {},
    "--head": {"required": True},
    "--tail": {"required": True},
    "--format": {"choices": ("text", "json"), "default": "text"},
}


def run(args) -> int:
    from .. import gadgets
    from ..formats import write_ohg

    gadget = _load_hypergraph(args.file)
    spec = gadgets.BindSpec(gadget, args.head, args.tail)
    composed = gadgets.layer(spec) if args.kind == "layer" else gadgets.bind(spec)
    if args.format == "json":
        _emit_json({
            "vertices": list(composed.vertices),
            "contexts": [sorted(c, key=composed.index.__getitem__)
                         for c in composed.contexts],
        })
        return 0
    sys.stdout.write(write_ohg(composed))
    print(
        f"{args.kind}: {len(composed.vertices)} vertices, "
        f"{len(composed.contexts)} contexts",
        file=sys.stderr,
    )
    return 0
