"""The :mod:`argparse` parser of ``ohg``, built from the subcommands'
tables. :mod:`ohg.cli` loads it only for a command line its reader leaves
undecided: help, an abbreviated option or a usage error."""

import argparse
import sys

from . import _COMMANDS, _command


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops an OSError from writing help or usage; write and
        # flush here so that it reaches ohg.cli.main, which reports it
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``, built from the subcommands' tables.

    When ``argv[0]`` names a subcommand, only that subcommand's parser is
    built, and only its module is loaded; otherwise (``--help``, no
    arguments, an unknown name) all of them are. Either way the usage line
    and every message are the same.
    """
    parser = _Parser(
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
        command = _command(name)
        p = sub.add_parser(name, help=_COMMANDS[name])
        for arg, kw in command.ARGUMENTS.items():
            p.add_argument(arg, **kw)
        p.set_defaults(func=command.run)
    return parser
