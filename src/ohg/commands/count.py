"""``ohg count``: predicted state count of a binding."""

from . import _emit_json
from ..errors import OhgError


ARGUMENTS = {
    "--na": {"type": int, "required": True},
    "--nb": {"type": int, "required": True},
    "--nn": {"type": int, "required": True},
    "--format": {"choices": ("text", "json"), "default": "text"},
}


def run(args) -> int:
    from ..bindcount import predicted_bind_count

    try:
        value = predicted_bind_count(args.na, args.nb, args.nn)
    except ValueError as exc:
        raise OhgError(str(exc)) from None
    if args.format == "json":
        _emit_json({"count": value})
    else:
        print(value)
    return 0
