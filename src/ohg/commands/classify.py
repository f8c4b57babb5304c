"""``ohg classify``: unital, separable and perfectly-separable verdicts."""

from typing import TYPE_CHECKING

from . import _emit_json, _load_hypergraph
from ..errors import SizeLimitError

if TYPE_CHECKING:
    from typing import Optional


ARGUMENTS = {
    "file": {},
    "--format": {"choices": ("text", "json"), "default": "text"},
}


def run(args) -> int:
    from .. import chromatic, cliques, pairwise

    h = _load_hypergraph(args.file)
    c = pairwise._classify(h, *pairwise._cotruth_rows(h))
    rep = cliques.shape(h)
    semi: Optional[bool]
    try:
        semi = chromatic.exact_chromatic(h) == rep.clique_number
    except SizeLimitError:
        semi = None
    if args.format == "json":
        _emit_json({
            "vertices": list(h.vertices),
            "nTS": c.nts,
            "verdicts": {
                "unital": c.unital,
                "separable": c.separable,
                "perfectlySeparable": c.perfectly_separable,
                "semiPerfect": semi,
            },
            "witness": list(c.fail_witness) if c.fail_witness else None,
        })
        return 0
    print(f"nTS: {c.nts}")
    print(f"unital: {'yes' if c.unital else 'no'}")
    print(f"separable: {'yes' if c.separable else 'no'}")
    print(f"perfectly-separable: {'yes' if c.perfectly_separable else 'no'}")
    if c.fail_witness:
        u, v, item = c.fail_witness
        print(f"witness: pair ({u}, {v}) misses condition {item}")
    if semi is None:
        print("semi-perfect: unknown (size limit)")
    else:
        print(f"semi-perfect: {'yes' if semi else 'no'}")
    return 0
