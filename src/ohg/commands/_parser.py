"""The :mod:`argparse` parser of ``ohg``, built from the subcommands'
tables. :mod:`ohg.cli` loads it only for a command line its reader leaves
undecided: help, an abbreviated option or a usage error. It loads every
subcommand's module, so that its usage line lists them all."""

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


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built from their tables."""
    parser = _Parser(
        prog="ohg",
        description="Analyze orthogonality hypergraphs via their two-valued states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        command = _command(name)
        p = sub.add_parser(name, help=_COMMANDS[name])
        for arg, kw in command.ARGUMENTS.items():
            p.add_argument(arg, **kw)
        p.set_defaults(func=command.run)
    return parser
