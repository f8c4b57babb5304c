"""The ``ohg`` subcommands, one module each, with their arguments as data,
``ARGUMENTS`` (each name with its :mod:`argparse` keywords, and
``EXCLUSIVE`` for a pair that cannot be combined), and ``run(args)``;
:mod:`ohg.cli` loads the one a command line names, reads the line from that
table and builds a parser from it only where its reader does not decide.
This module holds the helpers they share."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import OhgError

if TYPE_CHECKING:
    from ..model import Hypergraph


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise OhgError(f"cannot read {path}: {exc}") from None


def _load_hypergraph(path: str) -> Hypergraph:
    from ..model import parse_ohg

    return parse_ohg(_read(path))


def _emit_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2))
