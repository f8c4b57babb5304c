"""Command-line front end.

Reports go to stdout, diagnostics and progress to stderr. Exit codes:
0 success, 1 negative verdict (no coloring, not reconstructable, labeling
rejected), 2 usage or input error (also a ``--out`` file or standard output
that cannot be written), 141 for a closed pipe (below). ``--format json``
makes every report machine readable with the stable keys {vertices,
contexts, nTS, verdicts, rows, extraContexts} where applicable. State
matrices are written in chunks of a few thousand rows; when the reader of
standard output closes the pipe early, the command stops quietly with exit
code 141, as a program killed by SIGPIPE would.

This module holds the entry point and the command-line reader;
:mod:`ohg.commands` holds the list of subcommands and the helpers they
share. Each subcommand lives in its own module, ``ohg.commands.<name>``
(``verify_for`` for ``verify-for``), with its arguments as data,
``ARGUMENTS`` (each name with its :mod:`argparse` keywords), and
``run(args)``, so that a command loads and compiles only its own arguments
and handler. A valid command line is read by a small reader over the named
subcommand's table, without :mod:`argparse`. Anything the
reader does not take, such as ``--help``, an abbreviated option or a usage
error, goes to the parser built from the same tables
(:mod:`ohg.commands._parser`, loaded only then), and the parser alone
answers it. The parser gets the arguments of the one subcommand named first
on the command line, and of all of them only for ``--help``, a missing or an
unknown subcommand; its help, usage lines and errors are the same either way.
A subcommand imports the package modules it calls, and :mod:`json` only when
it prints JSON, so that it loads only the code it runs.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .commands import _COMMANDS, _command
from .errors import OhgError

if TYPE_CHECKING:
    from typing import Optional


def _read_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The arguments of ``argv`` as the parser would give them, or ``None``
    where the reader does not decide.

    It takes exact long names, ``--name value``, ``--name=value``, flags and
    positionals in any order, converts and checks values as the table says,
    and requires the required options. Everything else is left to the
    parser: help, abbreviations, a value that is empty or starts with ``-``,
    a repeated option, a failed conversion or choice, and a wrong number of
    positionals.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = _command(argv[0])
    table = command.ARGUMENTS
    positionals = iter([name for name in table if not name.startswith("-")])
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        # a positional is read as if it were --<its name>=<arg>
        if arg.startswith("-"):
            name, eq, value = arg.partition("=")
        else:
            name, eq, value = next(positionals, None), "=", arg
        # the one action the tables use is store_true
        if name not in table or name in given or eq and "action" in table[name]:
            return None
        given[name] = True if "action" in table[name] else value if eq else next(rest, "")
    args = {"command": argv[0], "func": command.run}
    for name, kw in table.items():
        value = given.get(name)
        if value is None:
            if kw.get("required") or not name.startswith("-"):
                return None
            value = kw.get("default", False if "action" in kw else None)
        elif value is not True:
            if not value or value.startswith("-"):
                return None
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                return None
            if value not in kw.get("choices", [value]):
                return None
        args[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**args)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_args(argv)
        if args is None:
            from .commands._parser import build_parser

            args = build_parser(argv).parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (OhgError, OSError) as exc:
        # An OSError here is a standard stream that cannot be written: its
        # reader has gone (``ohg states big.ohg | head``) or the disk is full.
        # A stream that failed is pointed at /dev/null, so that no later
        # flush writes the lost text again.
        if isinstance(exc, OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 141
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
