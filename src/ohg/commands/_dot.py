"""The DOT drawing that ``export`` and ``color`` print. Names are quoted with
``\\`` and ``"`` escaped, since a vertex name refuses only whitespace."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import Optional

    from ..model import Hypergraph

_DOT_PALETTE = (
    "red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta",
    "olive", "teal", "gold", "gray", "pink", "navy", "limegreen", "salmon",
)


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fill(color: int, n: int) -> str:
    """The fill of colour ``color`` of ``1..n``: a named colour for the
    first 16, then ``n - 16`` evenly spaced pale hues as Graphviz "H S V"
    strings, so that no two colour classes share a fill."""
    extra = color - 1 - len(_DOT_PALETTE)
    if extra < 0:
        return _DOT_PALETTE[color - 1]
    return f"{extra / (n - len(_DOT_PALETTE)):.6f} 0.400 1.000"


def dot_structure(h: Hypergraph, fills: Optional[dict[str, int]] = None) -> str:
    lines = ["graph hypergraph {", "  node [shape=circle];"]
    n = max((fills or {}).values(), default=0)
    for v in h.vertices:
        if fills and v in fills:
            color = _fill(fills[v], n)
            lines.append(f'  {_quote(v)} [style=filled, fillcolor="{color}"];')
        else:
            lines.append(f"  {_quote(v)};")
    idx = h.index
    for ci, ctx in enumerate(h.contexts):
        color = _DOT_PALETTE[ci % len(_DOT_PALETTE)]
        members = sorted(ctx, key=idx.__getitem__)
        for u, v in zip(members, members[1:]):
            lines.append(f'  {_quote(u)} -- {_quote(v)} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
