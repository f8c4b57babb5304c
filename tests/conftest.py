"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's enumeration engine: brute
force over all 2^k assignments, quadratic pair scans, and quadruple scans, so
engine results are checked against something that cannot share its bugs.
"""

from __future__ import annotations

import itertools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import ohg
from ohg import core, gadgets, states

# the directory holding the package under test, for child processes
_PACKAGE_ROOT = str(Path(ohg.__file__).resolve().parents[1])


@pytest.fixture(scope="session")
def k3():
    return gadgets.fixture("k3").hypergraph


@pytest.fixture(scope="session")
def triangle():
    return gadgets.fixture("triangle").hypergraph


@pytest.fixture(scope="session")
def pentagon():
    return gadgets.fixture("pentagon").hypergraph


@pytest.fixture(scope="session")
def bug():
    return gadgets.fixture("bug").hypergraph


@pytest.fixture(scope="session")
def g32():
    return gadgets.fixture("g32").hypergraph


@pytest.fixture(scope="session")
def g32x():
    return gadgets.fixture("g32x").hypergraph


@pytest.fixture(scope="session")
def underlying():
    return gadgets.fixture("underlying").hypergraph


@pytest.fixture(scope="session")
def fig4():
    return gadgets.fixture("fig4").hypergraph


@pytest.fixture(scope="session")
def bind_bug():
    spec = gadgets.BindSpec(gadgets.fixture("bug").hypergraph, "v1", "v7")
    return gadgets.bind(spec)


@pytest.fixture(scope="session")
def bind_fig4():
    spec = gadgets.BindSpec(gadgets.fixture("fig4").hypergraph, "a1", "a11")
    return gadgets.bind(spec)


@pytest.fixture(scope="session")
def bind_bug_matrix(bind_bug):
    return states.enumerate_states(bind_bug)


def ohg_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "ohg", *args]


def child_options(address_space: Optional[int] = None) -> dict:
    """Keyword arguments for ``subprocess`` that let a child ``python -m
    ohg`` import the package under test, installed or not, optionally
    under an ``RLIMIT_AS`` cap of ``address_space`` bytes, so that a command
    that grows without bound fails its test instead of exhausting memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    options: dict = {"env": env}
    if address_space is not None:
        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        options["preexec_fn"] = cap
    return options


def run_ohg(*args: str, address_space: Optional[int] = None,
            timeout: float = 60) -> subprocess.CompletedProcess:
    """``ohg ARGS`` in a child process, with text output captured."""
    return subprocess.run(ohg_argv(*args), capture_output=True, text=True,
                          timeout=timeout, **child_options(address_space))


def brute_force_true_sets(h: core.Hypergraph) -> set[frozenset[str]]:
    """All two-valued states by filtering every one of the 2^k assignments."""
    k = len(h.vertices)
    assert k <= 22, "brute force oracle capped at 22 vertices"
    assignments = np.arange(1 << k, dtype=np.uint32)
    keep = np.ones(1 << k, dtype=bool)
    for mask in h.context_masks:
        x = assignments & np.uint32(mask)
        keep &= (x != 0) & ((x & (x - 1)) == 0)  # exactly one bit set
    out = set()
    for value in assignments[keep]:
        v = int(value)
        out.add(frozenset(h.vertices[i] for i in range(k) if v >> i & 1))
    return out


def engine_true_sets(t: states.TravisMatrix) -> set[frozenset[str]]:
    return {t.row_true_set(r) for r in range(t.n_rows)}


def brute_force_two_section_edges(h: core.Hypergraph) -> set[frozenset[str]]:
    edges = set()
    for ctx in h.contexts:
        for u, v in itertools.combinations(sorted(ctx), 2):
            edges.add(frozenset((u, v)))
    return edges


def brute_force_chromatic(h: core.Hypergraph) -> int:
    """Chromatic number of the 2-section: the clique number found by trying
    vertex subsets of growing size, then a plain backtracking k-colouring
    for k = that number, one more, and so on."""
    n = len(h.vertices)
    assert n <= 14, "brute force chromatic oracle capped at 14 vertices"
    edges = brute_force_two_section_edges(h)
    adjacent = [[frozenset((u, v)) in edges for v in h.vertices]
                for u in h.vertices]
    # a subset of a clique is a clique, so stop at the first size with none
    omega = 1
    while any(all(adjacent[u][v] for u, v in itertools.combinations(subset, 2))
              for subset in itertools.combinations(range(n), omega + 1)):
        omega += 1

    def colourable(k: int) -> bool:
        colour = [0] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            for c in range(1, k + 1):
                if all(not adjacent[u][v] or colour[u] != c for u in range(v)):
                    colour[v] = c
                    if place(v + 1):
                        return True
            return False

        return place(0)

    k = omega
    while not colourable(k):
        k += 1
    return k


def brute_force_four_cycles(
    h: core.Hypergraph,
) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Every closed chain of four distinct contexts with four distinct
    intertwining vertices, once, sorted: found over all ordered 4-tuples of
    contexts, each named by its least rotation or reflection with the first
    distinct choice of vertices over that orientation's sorted
    intersections."""
    ctxs = h.contexts
    m = range(len(ctxs))
    meet = [[bool(x & y) for y in ctxs] for x in ctxs]
    found = {}
    for cycle in ((a, b, c, d) for a in m for b in m if meet[a][b]
                  for c in m if meet[b][c] for d in m if meet[c][d] and meet[d][a]):
        if len(set(cycle)) < 4:
            continue
        turns = [cycle[i:] + cycle[:i] for i in range(4)]
        key = min(turns + [t[::-1] for t in turns])
        meets = [sorted(ctxs[x] & ctxs[y]) for x, y in zip(key, key[1:] + key[:1])]
        choices = [vs for vs in itertools.product(*meets) if len(set(vs)) == 4]
        if choices:
            found[key] = choices[0]
    return sorted(found.items())


def random_pasting(rng: random.Random, max_contexts: int = 6,
                   max_vertices: int = 22, size: int = 3) -> core.Hypergraph:
    """A random connected pasting of ``size``-element contexts, any two
    contexts sharing at most one vertex (the Greechie drawing convention)."""
    fresh = itertools.count()

    def new_vertex() -> str:
        return f"t{next(fresh)}"

    contexts: list[tuple[str, ...]] = [tuple(new_vertex() for _ in range(size))]
    vertices = set(contexts[0])
    adjacent: dict[str, set[str]] = {v: set(contexts[0]) - {v} for v in contexts[0]}
    target = rng.randint(2, max_contexts)
    while len(contexts) < target and len(vertices) + size - 1 <= max_vertices:
        n_shared = rng.choice((1, 1, 1, 2))
        pool = sorted(vertices)
        shared: list[str] = []
        rng.shuffle(pool)
        for v in pool:
            if all(v not in adjacent[u] and v != u for u in shared):
                shared.append(v)
            if len(shared) == n_shared:
                break
        new = list(shared) + [new_vertex() for _ in range(size - len(shared))]
        ctx = tuple(new)
        contexts.append(ctx)
        for v in ctx:
            vertices.add(v)
            adjacent.setdefault(v, set()).update(set(ctx) - {v})
    return core.build(contexts)


def brute_force_isomorphic(h: core.Hypergraph, g: core.Hypergraph) -> bool:
    """Whether some bijection of the vertices carries the contexts of ``h``
    onto those of ``g``, by trying every permutation."""
    assert len(h.vertices) <= 8, "brute force isomorphism capped at 8 vertices"
    if len(h.vertices) != len(g.vertices):
        return False
    target = set(g.contexts)
    for image in itertools.permutations(g.vertices):
        to = dict(zip(h.vertices, image))
        if {frozenset(to[v] for v in c) for c in h.contexts} == target:
            return True
    return False


def shuffled(h: core.Hypergraph, rng: random.Random,
             swap: bool = False) -> core.Hypergraph:
    """``h`` with its vertices renamed and its contexts and their members
    shuffled; with ``swap``, one member of one context replaced by a new
    vertex."""
    names = list(h.vertices)
    rng.shuffle(names)
    rename = {v: f"s{i}" for i, v in enumerate(names)}
    contexts = [[rename[v] for v in sorted(c)] for c in h.contexts]
    rng.shuffle(contexts)
    for c in contexts:
        rng.shuffle(c)
    if swap:
        contexts[rng.randrange(len(contexts))][0] = "new"
    return core.build(contexts)


def chain(n: int) -> str:
    """Context-file text of ``n`` contexts ``a{i} b{i} a{i+1}`` in a row
    (``2n + 1`` vertices), whose search nests deeper the longer it is."""
    return "".join(f"a{i} b{i} a{i + 1}\n" for i in range(n))


def deep_trace(n: int) -> str:
    """Context-file text of ``n`` contexts ``a{i} b{i} a{i+1}`` and ``n``
    contexts ``b{i} c{i} d{i}``, with ``c{i} d{i+1}`` between neighbouring
    ones: ``4n + 1`` vertices and ``n + 4`` states, whose trace nests about
    ``n / 2`` parts deep."""
    return "".join([*(f"a{i} b{i} a{i + 1}\nb{i} c{i} d{i}\n" for i in range(n)),
                    *(f"c{i} d{i + 1}\n" for i in range(n - 1))])


def chain_count(n: int) -> int:
    """The number of states of ``chain(n)``, the Fibonacci number F(n + 3):
    those with ``a{n}`` false are the states of ``chain(n - 1)``, and those
    with it true the states of ``chain(n - 2)``."""
    a, b = 1, 1  # F(1), F(2)
    for _ in range(n + 1):
        a, b = b, a + b
    return b


def disjoint_union(a: str, b: str) -> str:
    """Context-file text of two hypergraphs side by side; ``b``'s vertices
    are renamed apart. The states are all pairs of states."""
    renamed = "".join(" ".join("u" + v for v in line.split()) + "\n"
                      for line in b.splitlines())
    return a + renamed


def random_rows(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    """``n`` rows of ``k`` columns: all zeros, all ones, rows whose leading
    columns are 0, and uniform rows."""
    ones = (1 << k) - 1
    return tuple(rng.choice((
        lambda: 0,
        lambda: ones,
        lambda: rng.getrandbits(rng.randrange(k)),
        lambda: rng.getrandbits(k),
    ))() for _ in range(n))


def assert_states_lawful(h: core.Hypergraph, t: states.TravisMatrix) -> None:
    """Every row must put exactly one 1 on every context (engine-independent
    check, straight from the definition)."""
    for r in range(t.n_rows):
        true_set = t.row_true_set(r)
        for ctx in h.contexts:
            assert len(ctx & true_set) == 1
