"""The entry of ``python -m ohg`` and of the ``ohg`` console script."""

import os
import sys

from .cli import main


def run() -> None:
    """Run :func:`ohg.cli.main`, flush both streams and end the process
    with its code through :func:`os._exit`, skipping the interpreter's
    teardown: safe while the package closes its files before ``main``
    returns and starts no thread, process or :mod:`atexit` hook."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
