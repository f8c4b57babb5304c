"""The ``ohg`` subcommands, one module each, with their arguments as data,
``ARGUMENTS`` (each name with its :mod:`argparse` keywords), and
``run(args)``; :mod:`ohg.cli` loads the one a command line names and reads
the line from that table, and only where its reader does not decide does it
load :mod:`ohg.commands._parser`, which builds a parser from the same
tables. This module holds the list of subcommands and the helpers they
share."""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from ..errors import OhgError

if TYPE_CHECKING:
    from ..model import Hypergraph

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


def _command(name: str):
    return import_module(f".{name.replace('-', '_')}", __name__)


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
