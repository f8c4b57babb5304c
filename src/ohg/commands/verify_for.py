"""``ohg verify-for``: check a vector labeling."""

from . import _emit_json, _load_hypergraph, _read


ARGUMENTS = {
    "file": {},
    "vectors": {},
    # None stands for geometry.DEFAULT_TOLERANCE, so that reading the
    # arguments does not load geometry
    "--tol": {"type": float, "default": None},
    "--format": {"choices": ("text", "json"), "default": "text"},
}


def run(args) -> int:
    from .. import geometry

    h = _load_hypergraph(args.file)
    labeling = geometry.parse_vectors(_read(args.vectors))
    tol = geometry.DEFAULT_TOLERANCE if args.tol is None else args.tol
    report = geometry.verify_for(h, labeling, tol=tol)
    if args.format == "json":
        _emit_json({
            "vertices": list(h.vertices),
            "verdicts": {"faithfulRepresentation": report.ok},
            "violations": {
                "nonOrthogonalAdjacent": [list(x) for x in report.non_orthogonal_adjacent],
                "orthogonalNonAdjacent": [list(x) for x in report.orthogonal_non_adjacent],
                "colinear": [list(x) for x in report.colinear],
            },
        })
        return 0 if report.ok else 1
    if report.ok:
        print("valid faithful orthogonal representation")
        return 0
    for kind, pairs in [("adjacent but not orthogonal", report.non_orthogonal_adjacent),
                        ("orthogonal but not adjacent", report.orthogonal_non_adjacent),
                        ("colinear", report.colinear)]:
        for u, v, cos in pairs:
            print(f"{kind}: {u} {v} |cos|={cos:.3e}")
    return 1
