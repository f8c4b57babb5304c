"""``ohg chroma``: chromatic number or Brooks bound."""

from . import _emit_json, _load_hypergraph


def add_arguments(p) -> None:
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--brooks", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")


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
