"""Command-line front end.

Reports go to stdout, diagnostics and progress to stderr. Exit codes:
0 success, 1 negative verdict (no coloring, not reconstructable, labeling
rejected), 2 usage or input error (also a ``--out`` file that cannot be
written). ``--format json`` makes every report machine readable with the
stable keys {vertices, contexts, nTS, verdicts, rows, extraContexts} where
applicable. State matrices are written in chunks of a few thousand rows; when
the reader of standard output closes the pipe early, the command stops
quietly with exit code 141, as a program killed by SIGPIPE would.

Each subcommand imports the package modules it calls, and :mod:`json` only
when it prints JSON, so that a command loads only the code it runs. For the
same reason the parser gets the arguments of the one subcommand named first
on the command line, and of all of them only for ``--help``, a missing or an
unknown subcommand; its help, usage lines and errors are the same either way.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import OhgError, SizeLimitError

_DOT_PALETTE = (
    "red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta",
    "olive", "teal", "gold", "gray", "pink", "navy", "limegreen", "salmon",
)


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise OhgError(f"cannot read {path}: {exc}") from None


def _load_hypergraph(path: str) -> core.Hypergraph:
    from .formats import parse_ohg

    return parse_ohg(_read(path))


def _emit_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _json_with_rows(payload: dict, t: states.TravisMatrix) -> Iterator[str]:
    """``_emit_json({**payload, "rows": [row digit strings]})`` in chunks."""
    import json

    from . import states

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


def _dot_structure(h: core.Hypergraph, fills: Optional[dict[str, int]] = None) -> str:
    lines = ["graph hypergraph {", "  node [shape=circle];"]
    for v in h.vertices:
        if fills and v in fills:
            color = _DOT_PALETTE[(fills[v] - 1) % len(_DOT_PALETTE)]
            lines.append(f'  "{v}" [style=filled, fillcolor="{color}"];')
        else:
            lines.append(f'  "{v}";')
    idx = h.index
    for ci, ctx in enumerate(h.contexts):
        color = _DOT_PALETTE[ci % len(_DOT_PALETTE)]
        members = sorted(ctx, key=idx.__getitem__)
        for u, v in zip(members, members[1:]):
            lines.append(f'  "{u}" -- "{v}" [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommands ----------------------------------------------------------------


def _cmd_states(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise OhgError(f"the row limit must not be negative, got --limit {args.limit}")
    h = _load_hypergraph(args.file)
    if args.count_only:
        # the engine alone: the count needs none of the table code
        from . import engine

        progress = None
        if args.progress:
            def progress(total: int) -> None:
                print(f"states so far: {total}", file=sys.stderr)
        n = engine.count_states(h, progress=progress)
        if args.format == "json":
            _emit_json({"vertices": list(h.vertices), "nTS": n})
        else:
            print(n)
        return 0
    from . import states
    from .formats import matrix_chunks

    t = states.enumerate_states(h, row_limit=args.limit)
    if args.out:
        # opened only now, so that a refused table leaves no file behind
        try:
            with open(args.out, "w") as f:
                f.writelines(matrix_chunks(t))
        except OSError as exc:
            raise OhgError(f"cannot write {args.out}: {exc}") from None
        print(t.n_rows)
    elif args.format == "json":
        payload = {"vertices": list(h.vertices), "nTS": t.n_rows}
        sys.stdout.writelines(_json_with_rows(payload, t))
    else:
        sys.stdout.writelines(matrix_chunks(t))
    return 0


def _cmd_classify(args) -> int:
    from . import coloring, core, states

    h = _load_hypergraph(args.file)
    c = states.classify(h, states.cotruth(h))
    rep = core.shape(h)
    semi: Optional[bool]
    try:
        semi = coloring.exact_chromatic(h) == rep.clique_number
    except SizeLimitError:
        semi = None
    if args.format == "json":
        _emit_json({
            "vertices": list(h.vertices),
            "nTS": c.nts,
            "verdicts": {
                "unital": c.unital,
                "separable": c.separable,
                "perfectlySeparable": c.perfectly_separable,
                "semiPerfect": semi,
            },
            "witness": list(c.fail_witness) if c.fail_witness else None,
        })
        return 0
    print(f"nTS: {c.nts}")
    print(f"unital: {'yes' if c.unital else 'no'}")
    print(f"separable: {'yes' if c.separable else 'no'}")
    print(f"perfectly-separable: {'yes' if c.perfectly_separable else 'no'}")
    if c.fail_witness:
        u, v, item = c.fail_witness
        print(f"witness: pair ({u}, {v}) misses condition {item}")
    if semi is None:
        print("semi-perfect: unknown (size limit)")
    else:
        print(f"semi-perfect: {'yes' if semi else 'no'}")
    return 0


def _cmd_reconstruct(args) -> int:
    from . import reconstruction

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


def _cmd_color(args) -> int:
    from . import coloring

    h = _load_hypergraph(args.file)
    n = args.n
    if n < 1:
        raise OhgError("the number of colors must be positive")
    rows_out: Optional[list[int]] = None
    col: Optional[coloring.Coloring] = None
    if args.algorithm == "paper":
        found = coloring.paper_coloring(h, n)
        if found is not None:
            selection, partition = found
            rows_out = list(selection.rows)
            col = coloring.coloring_from_partition(partition)
    elif args.algorithm == "relaxed":
        from . import states

        t = states.enumerate_states(h)
        col = coloring.relaxed_coloring(t, h, n)
    else:
        chi, best = coloring.exact_coloring(h)
        if chi <= n:
            col = best
    if col is None:
        print(f"no {n}-coloring from two-valued states")
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
        sys.stdout.write(_dot_structure(h, fills=col.color_of))
    else:
        if rows_out is not None:
            print("rows: " + " ".join(str(r) for r in rows_out))
        for c in col.colors():
            members = sorted(col.color_class(c), key=h.index.__getitem__)
            print(f"color {c}: " + " ".join(members))
    return 0


def _cmd_chroma(args) -> int:
    from . import coloring

    h = _load_hypergraph(args.file)
    if args.brooks:
        value = coloring.brooks_bound(h)
        key = "brooksBound"
    else:
        value = coloring.exact_chromatic(h)
        key = "chromatic"
    if args.format == "json":
        _emit_json({"vertices": list(h.vertices), key: value})
    else:
        print(value)
    return 0


def _cmd_gadget(args) -> int:
    from . import gadgets

    if args.travis:
        from .formats import matrix_chunks

        travis = gadgets.fixture(args.name).travis
        if travis is None:
            raise OhgError(f"fixture {args.name!r} has no reference state table")
        sys.stdout.writelines(matrix_chunks(travis))
        return 0
    from .formats import write_ohg

    h = gadgets.fixture_hypergraph(args.name)
    if h is None:
        raise OhgError(
            f"fixture {args.name!r} ships as a state table only; use --travis"
        )
    sys.stdout.write(write_ohg(h))
    return 0


def _cmd_compose(args) -> int:
    from . import gadgets
    from .formats import write_ohg

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


def _cmd_count(args) -> int:
    from . import gadgets

    try:
        value = gadgets.predicted_bind_count(args.na, args.nb, args.nn)
    except ValueError as exc:
        raise OhgError(str(exc)) from None
    if args.format == "json":
        _emit_json({"count": value})
    else:
        print(value)
    return 0


def _cmd_verify_for(args) -> int:
    from . import geometry
    from .formats import parse_vectors

    h = _load_hypergraph(args.file)
    labeling = parse_vectors(_read(args.vectors))
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
    for u, v, cos in report.non_orthogonal_adjacent:
        print(f"adjacent but not orthogonal: {u} {v} |cos|={cos:.3e}")
    for u, v, cos in report.orthogonal_non_adjacent:
        print(f"orthogonal but not adjacent: {u} {v} |cos|={cos:.3e}")
    for u, v, cos in report.colinear:
        print(f"colinear: {u} {v} |cos|={cos:.3e}")
    return 1


def _cmd_export(args) -> int:
    h = _load_hypergraph(args.file)
    if args.format == "json":
        _emit_json({
            "vertices": list(h.vertices),
            "contexts": [sorted(c, key=h.index.__getitem__) for c in h.contexts],
        })
    else:
        sys.stdout.write(_dot_structure(h))
    return 0


# Each subcommand with its one-line help, in the order ``ohg --help`` lists them
_COMMANDS = {
    "states": "enumerate or count all two-valued states",
    "classify": "unital/separable/perfectly-separable verdicts",
    "reconstruct": "rebuild the hypergraph from its states",
    "color": "search for a proper coloring",
    "chroma": "chromatic number or Brooks bound",
    "gadget": "emit a catalogued fixture",
    "compose": "layer or bind a gadget",
    "count": "predicted state count of a binding",
    "verify-for": "check a vector labeling",
    "export": "emit the hypergraph as JSON or DOT",
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.

    When ``argv[0]`` names a subcommand, only that subcommand's parser is
    built; otherwise (``--help``, no arguments, an unknown name) all of
    them are. Either way the usage line and every message are the same.
    """
    parser = argparse.ArgumentParser(
        prog="ohg",
        description="Analyze orthogonality hypergraphs via their two-valued states.",
    )
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    # The usage line lists the subcommands that were built; with one built,
    # the metavar lists them all instead. It stays unset otherwise, because
    # it would also replace "command" in the errors on a missing or unknown
    # subcommand, which only the full parser reports.
    metavar = "{" + ",".join(_COMMANDS) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str) -> Optional[argparse.ArgumentParser]:
        if only in (None, name):
            return sub.add_parser(name, help=_COMMANDS[name])
        return None

    if p := add("states"):
        p.add_argument("file")
        p.add_argument("--count-only", action="store_true")
        p.add_argument("--out", metavar="MATRIXFILE")
        p.add_argument("--limit", type=int, default=None,
                       help="abort past this many rows (replaces the row budget)")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--progress", action="store_true",
                       help="stream running counts to stderr")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_states)

    if p := add("classify"):
        p.add_argument("file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_classify)

    if p := add("reconstruct"):
        p.add_argument("file")
        p.add_argument("--n", type=int, default=None, help="clique number override")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_reconstruct)

    if p := add("color"):
        p.add_argument("file")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--algorithm", choices=("paper", "relaxed", "exact"),
                       default="paper")
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")
        p.set_defaults(func=_cmd_color)

    if p := add("chroma"):
        p.add_argument("file")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exact", action="store_true", default=True)
        group.add_argument("--brooks", action="store_true")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_chroma)

    if p := add("gadget"):
        from .gadgets import FIXTURE_NAMES

        p.add_argument("name", choices=FIXTURE_NAMES)
        p.add_argument("--travis", action="store_true",
                       help="emit the reference state table instead")
        p.set_defaults(func=_cmd_gadget)

    if p := add("compose"):
        p.add_argument("kind", choices=("layer", "bind"))
        p.add_argument("file")
        p.add_argument("--head", required=True)
        p.add_argument("--tail", required=True)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_compose)

    if p := add("count"):
        p.add_argument("--na", type=int, required=True)
        p.add_argument("--nb", type=int, required=True)
        p.add_argument("--nn", type=int, required=True)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_count)

    if p := add("verify-for"):
        p.add_argument("file")
        p.add_argument("vectors")
        # None stands for geometry.DEFAULT_TOLERANCE, so that building the
        # parser does not load geometry
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_verify_for)

    if p := add("export"):
        p.add_argument("file")
        p.add_argument("--format", choices=("json", "dot"), required=True)
        p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OhgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone (``ohg states big.ohg | head``). Point
        # stdout at /dev/null so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
