"""``ohg states``: enumerate or count all two-valued states."""

from __future__ import annotations

import sys

from . import _emit_json, _load_hypergraph
from ..errors import OhgError


ARGUMENTS = {
    "file": {},
    "--count-only": {"action": "store_true"},
    "--out": {"metavar": "MATRIXFILE"},
    "--limit": {"type": int, "default": None,
                "help": "abort past this many rows (replaces the row budget)"},
    "--jobs": {"type": int, "default": 1},
    "--progress": {"action": "store_true", "help": "stream running counts to stderr"},
    "--format": {"choices": ("text", "json"), "default": "text"},
}


def run(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise OhgError(f"the row limit must not be negative, got --limit {args.limit}")
    if args.jobs < 1:
        raise OhgError(f"the number of jobs must be positive, got --jobs {args.jobs}")
    # refuse a flag that the other flags would leave unused: --out takes the
    # text matrix, which a count or JSON would not write; --limit bounds the
    # table, which a count does not build; --progress reports on a count
    if args.out and args.count_only:
        raise OhgError("--count-only and --out cannot be combined")
    if args.limit is not None and args.count_only:
        raise OhgError("--count-only and --limit cannot be combined")
    if args.progress and not args.count_only:
        raise OhgError("--progress needs --count-only")
    if args.out and args.format == "json":
        raise OhgError("--out and --format json cannot be combined")
    h = _load_hypergraph(args.file)
    if args.count_only:
        # the engine alone: the count needs none of the table code
        from .. import engine

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
    from .. import states

    t = states.enumerate_states(h, row_limit=args.limit)
    if args.format == "json":
        from ._json_rows import json_with_rows

        payload = {"vertices": list(h.vertices), "nTS": t.n_rows}
        sys.stdout.writelines(json_with_rows(payload, t))
        return 0
    from ..formats import matrix_chunks

    if args.out:
        # opened only now, so that a refused table leaves no file behind
        try:
            with open(args.out, "w") as f:
                f.writelines(matrix_chunks(t))
        except OSError as exc:
            raise OhgError(f"cannot write {args.out}: {exc}") from None
        print(t.n_rows)
    else:
        sys.stdout.writelines(matrix_chunks(t))
    return 0
