"""The one stack that the package's nested walks run on.

A walk is a generator that yields each sub-walk it would call and is sent
back the sub-walk's return value. The search over states, the rows built
from its trace, the clique search, the isomorphism search (which also
compares state tables) and the exact colouring are such walks, so they nest
on a list here and not on Python's stack: no input is refused, and none
crashes, for nesting deep.
"""

from typing import Generator


def _drive(walk: Generator):
    """The return value of ``walk``, run with its sub-walks on one stack."""
    stack, value = [walk], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value
