"""Command-line front end.

Reports go to stdout, diagnostics and progress to stderr. Exit codes:
0 success, 1 negative verdict (no coloring, not reconstructable, labeling
rejected), 2 usage or input error (also a ``--out`` file that cannot be
written). ``--format json`` makes every report machine readable with the
stable keys {vertices, contexts, nTS, verdicts, rows, extraContexts} where
applicable. State matrices are written in chunks of a few thousand rows; when
the reader of standard output closes the pipe early, the command stops
quietly with exit code 141, as a program killed by SIGPIPE would.

This module holds the entry point and the parser; :mod:`ohg.commands` holds
the helpers the subcommands share. Each subcommand lives in its own module,
``ohg.commands.<name>`` (``verify_for`` for ``verify-for``), with
``add_arguments(parser)`` and ``run(args)``, so that a command loads and
compiles only its own arguments and handler. The parser gets the arguments of
the one subcommand named first on the command line, and of all of them only
for ``--help``, a missing or an unknown subcommand; its help, usage lines and
errors are the same either way. A subcommand imports the package modules it
calls, and :mod:`json` only when it prints JSON, so that it loads only the
code it runs.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import TYPE_CHECKING

from .errors import OhgError

if TYPE_CHECKING:
    from typing import Optional


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
    built, and only its module is loaded; otherwise (``--help``, no
    arguments, an unknown name) all of them are. Either way the usage line
    and every message are the same.
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
    for name in [only] if only else _COMMANDS:
        command = importlib.import_module(
            f".commands.{name.replace('-', '_')}", __package__)
        p = sub.add_parser(name, help=_COMMANDS[name])
        command.add_arguments(p)
        p.set_defaults(func=command.run)
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
