"""``ohg gadget``: emit a catalogued fixture."""

import sys

from .. import catalogue
from ..errors import OhgError

ARGUMENTS = {
    "name": {"choices": catalogue.FIXTURE_NAMES},
    "--travis": {"action": "store_true", "help": "emit the reference state table instead"},
}


def run(args) -> int:
    if args.travis:
        from ..formats import matrix_chunks

        travis = catalogue.fixture(args.name).travis
        if travis is None:
            raise OhgError(f"fixture {args.name!r} has no reference state table")
        sys.stdout.writelines(matrix_chunks(travis))
        return 0
    from ..formats import write_ohg

    h = catalogue.fixture_hypergraph(args.name)
    if h is None:
        raise OhgError(
            f"fixture {args.name!r} ships as a state table only; use --travis"
        )
    sys.stdout.write(write_ohg(h))
    return 0
