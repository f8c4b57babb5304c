"""The entry of ``python -m ohg`` and of the ``ohg`` console script."""

import os
import sys

from .cli import main


def run() -> None:
    """Run :func:`ohg.cli.main`, flush both streams and end the process
    with its code through :func:`os._exit`, skipping the interpreter's
    teardown. That is safe while the package closes its files before
    ``main`` returns and starts no thread, process or :mod:`atexit` hook.
    An ``OSError`` from writing the output ends with one ``error:`` line
    and exit 2."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
