"""``ohg reconstruct``: rebuild the hypergraph from its states."""

from . import _emit_json, _load_hypergraph


ARGUMENTS = {
    "file": {},
    "--n": {"type": int, "default": None, "help": "clique number override"},
    "--format": {"choices": ("text", "json"), "default": "text"},
}


def run(args) -> int:
    from .. import reconstruction

    h = _load_hypergraph(args.file)
    v, rec = reconstruction.evaluate(h, n=args.n)
    kind = v.kind.replace("_", "-")
    extra = [sorted(c) for c in (rec.extra_contexts if rec else ())]
    missing = [sorted(c) for c in (rec.missing_contexts if rec else ())]
    if args.format == "json":
        _emit_json({
            "vertices": list(h.vertices),
            "verdicts": {"reconstruction": kind},
            "extraContexts": extra,
            "missingContexts": missing,
            "witness": list(v.witness) if v.witness else None,
        })
    else:
        print(f"verdict: {kind}")
        for ctx in extra:
            print("extra context: " + " ".join(ctx))
        for ctx in missing:
            print("missing context: " + " ".join(ctx))
        if v.witness:
            print(f"witness: columns {v.witness[0]} and {v.witness[1]} coincide")
    return 0 if v.reconstructable else 1
