"""``ohg gadget``: copy a catalogued fixture's shipped file, unparsed (see
:mod:`ohg.catalogue`; ``test_shipped_files_byte_stable`` keeps it canonical)."""

import sys

from .. import catalogue
from ..errors import OhgError

ARGUMENTS = {
    "name": {"choices": catalogue.FIXTURE_NAMES},
    "--travis": {"action": "store_true", "help": "emit the reference state table instead"},
}


def run(args) -> int:
    text = catalogue._fixture_text(args.name, ".mat" if args.travis else ".ohg")
    if text is None:
        raise OhgError(
            f"fixture {args.name!r} has no reference state table" if args.travis
            else f"fixture {args.name!r} ships as a state table only; use --travis"
        )
    sys.stdout.write(text)
    return 0
