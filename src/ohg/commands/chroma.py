"""``ohg chroma``: chromatic number or Brooks bound."""

from . import _emit_json, _load_hypergraph


ARGUMENTS = {
    "file": {},
    "--brooks": {"action": "store_true"},
    "--format": {"choices": ("text", "json"), "default": "text"},
}


def run(args) -> int:
    from .. import chromatic

    h = _load_hypergraph(args.file)
    if args.brooks:
        value = chromatic.brooks_bound(h)
        key = "brooksBound"
    else:
        value = chromatic.exact_chromatic(h)
        key = "chromatic"
    if args.format == "json":
        _emit_json({"vertices": list(h.vertices), key: value})
    else:
        print(value)
    return 0
