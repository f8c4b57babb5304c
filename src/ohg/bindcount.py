"""The closed form for the state count of the binding composition.

It needs no hypergraph, so ``ohg count`` loads this module alone;
:mod:`ohg.gadgets` re-exports it, so ``ohg.gadgets.predicted_bind_count``
is ``ohg.predicted_bind_count``.
"""


def predicted_bind_count(n_a: int, n_b: int, n_n: int) -> int:
    """Exact number of states of the binding composition, from the gadget's
    (head true, tail true, both false) counts: 6 * n_a^3 * n_b^3 * n_n^3."""
    if min(n_a, n_b, n_n) < 0:
        raise ValueError("state counts must be nonnegative")
    return 6 * n_a ** 3 * n_b ** 3 * n_n ** 3
