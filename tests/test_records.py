"""The contract of the package's record classes.

Every public record is a frozen value: built by position or by keyword, with
its defaults, checked on construction where it has a ``__post_init__``,
compared and hashed by its fields (``CoTruth`` by identity), refusing
assignment with an ``AttributeError``, and printed by a field-wise repr
unless it defines a shorter one.
"""

import pickle

import pytest

from ohg import coloring, core, gadgets, geometry, reconstruction, states
from ohg.errors import (
    AdjacentTerminalsError,
    NotATifsPairError,
    NotDominatingError,
    NotProperError,
    OhgError,
    UnknownFixtureError,
)

K3 = core.build([("a", "b", "c")])
PATH = core.build([("a", "b", "c"), ("c", "d", "e")])
EDGE = frozenset("ab")


def _records():
    """(class, field names, positional arguments, repr) per record."""
    bug = gadgets.fixture("bug").hypergraph
    return [
        (core.Hypergraph, ("vertices", "contexts"),
         (K3.vertices, K3.contexts), "Hypergraph(3 vertices, 1 contexts)"),
        (core.Graph, ("vertices", "edges"),
         (("a", "b", "c"), frozenset({EDGE})), "Graph(3 vertices, 1 edges)"),
        (core.ShapeReport,
         ("clique_number", "uniform", "conformal", "completion_ok", "max_degree"),
         (3, True, True, False, 2),
         "ShapeReport(clique_number=3, uniform=True, conformal=True, "
         "completion_ok=False, max_degree=2)"),
        (states.TwoValuedState, ("vertices", "true_set"),
         (("a", "b"), frozenset("a")),
         "TwoValuedState(vertices=('a', 'b'), true_set=frozenset({'a'}))"),
        (states.TravisMatrix, ("vertices", "rows"),
         (("a", "b", "c"), (4, 2, 1)), "TravisMatrix(3 states x 3 vertices)"),
        (states.CoTruth, ("vertices", "nts", "cooc"),
         (("a", "b"), 2, ((1, 0), (0, 1))), "CoTruth(2 states x 2 vertices)"),
        (states.StateClassification,
         ("nts", "unital", "separable", "perfectly_separable", "fail_witness"),
         (3, True, False, False, ("a", "b", 1)),
         "StateClassification(nts=3, unital=True, separable=False, "
         "perfectly_separable=False, fail_witness=('a', 'b', 1))"),
        (states.GadgetProfile, ("head", "tail", "n_a", "n_b", "n_n"),
         ("v1", "v7", 3, 3, 8),
         "GadgetProfile(head='v1', tail='v7', n_a=3, n_b=3, n_n=8)"),
        (gadgets.Fixture, ("name", "hypergraph", "travis", "notes"),
         ("k3", K3, None, "one context"),
         "Fixture(name='k3', hypergraph=Hypergraph(3 vertices, 1 contexts), "
         "travis=None, notes='one context')"),
        (gadgets.BindSpec, ("gadget", "head", "tail"),
         (bug, "v1", "v7"),
         "BindSpec(gadget=Hypergraph(13 vertices, 7 contexts), head='v1', tail='v7')"),
        (geometry.VectorLabeling, ("dimension", "vectors"),
         (2, {"a": (1.0, 0.0)}),
         "VectorLabeling(dimension=2, vectors={'a': (1.0, 0.0)})"),
        (geometry.ForReport,
         ("non_orthogonal_adjacent", "orthogonal_non_adjacent", "colinear"),
         ((), (("a", "b", 0.0),), ()),
         "ForReport(non_orthogonal_adjacent=(), "
         "orthogonal_non_adjacent=(('a', 'b', 0.0),), colinear=())"),
        (coloring.PartitionSystem, ("hypergraph", "cells"),
         (K3, (frozenset("a"), frozenset("b"), frozenset("c"))),
         "PartitionSystem(hypergraph=Hypergraph(3 vertices, 1 contexts), "
         "cells=(frozenset({'a'}), frozenset({'b'}), frozenset({'c'})))"),
        (coloring.Coloring, ("hypergraph", "color_of"),
         (K3, {"a": 1, "b": 2, "c": 3}),
         "Coloring(hypergraph=Hypergraph(3 vertices, 1 contexts), "
         "color_of={'a': 1, 'b': 2, 'c': 3})"),
        (coloring.RowSelection, ("rows",), ((1, 7, 14),),
         "RowSelection(rows=(1, 7, 14))"),
        (reconstruction.ReconstructionResult,
         ("raw_graph", "raw_hypergraph", "filtered_hypergraph",
          "extra_contexts", "missing_contexts"),
         (core.two_section(K3), K3, K3, (), ()),
         "ReconstructionResult(raw_graph=Graph(3 vertices, 3 edges), "
         "raw_hypergraph=Hypergraph(3 vertices, 1 contexts), "
         "filtered_hypergraph=Hypergraph(3 vertices, 1 contexts), "
         "extra_contexts=(), missing_contexts=())"),
        (reconstruction.Verdict, ("kind", "extra_contexts", "witness"),
         ("non_separable", (), ("a", "b")),
         "Verdict(kind='non_separable', extra_contexts=(), witness=('a', 'b'))"),
    ]


RECORDS = _records()
IDS = [r[0].__name__ for r in RECORDS]
# records holding a dict: equal by fields, but unhashable
UNHASHABLE = {geometry.VectorLabeling, coloring.Coloring}


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
class TestEveryRecord:
    def test_fields_in_order(self, cls, names, args, text):
        assert cls.__match_args__ == names
        r = cls(*args)
        assert tuple(getattr(r, n) for n in names) == args

    def test_keyword_construction(self, cls, names, args, text):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        for n in names:
            assert getattr(by_keyword, n) is getattr(by_position, n)
        if cls is not states.CoTruth:
            assert by_keyword == by_position

    def test_wrong_arity_refused(self, cls, names, args, text):
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls()

    def test_equality_and_hash(self, cls, names, args, text):
        a, b = cls(*args), cls(*args)
        assert a == a
        assert a != object()
        if cls is states.CoTruth:
            # compared and hashed by identity
            assert a != b
            assert hash(a) == object.__hash__(a)
            assert len({a, b}) == 2
            return
        assert a == b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_assignment_refused(self, cls, names, args, text):
        r = cls(*args)
        with pytest.raises(AttributeError):
            setattr(r, names[0], args[0])
        with pytest.raises(AttributeError):
            r.extra_attribute = 1
        with pytest.raises(AttributeError):
            delattr(r, names[-1])
        assert getattr(r, names[-1]) is args[-1]

    def test_repr(self, cls, names, args, text):
        assert repr(cls(*args)) == text


def test_equality_by_fields_and_class():
    assert states.GadgetProfile("h", "t", 1, 2, 3) != states.GadgetProfile("h", "t", 1, 2, 4)
    assert core.Hypergraph(K3.vertices, K3.contexts) != PATH
    # equality needs the same class, not just the same fields
    assert states.TravisMatrix(("a",), (1,)) != states.TwoValuedState(("a",), (1,))


def test_reconstruction_defaults():
    v = reconstruction.Verdict("empty")
    assert (v.kind, v.extra_contexts, v.witness) == ("empty", (), None)
    assert v == reconstruction.Verdict("empty", (), None)
    assert reconstruction.Verdict("non_separable", witness=("a", "b")).extra_contexts == ()
    r = reconstruction.ReconstructionResult(core.two_section(K3), K3, K3)
    assert (r.extra_contexts, r.missing_contexts) == ((), ())
    r = reconstruction.ReconstructionResult(
        core.two_section(K3), K3, K3, missing_contexts=(frozenset("ab"),))
    assert (r.extra_contexts, r.missing_contexts) == ((), (frozenset("ab"),))


def test_cached_properties_on_frozen_records():
    h = core.Hypergraph(PATH.vertices, PATH.contexts)
    assert h.index is h.index
    assert h.neighbor_masks == PATH.neighbor_masks
    assert h == PATH and hash(h) == hash(PATH)
    t = states.TravisMatrix(("a", "b", "c"), (4, 2, 1))
    assert t.cooc is t.cooc


def test_pickle_round_trip():
    for r in (PATH, states.TravisMatrix(("a", "b"), (2, 1)), reconstruction.Verdict("empty")):
        assert pickle.loads(pickle.dumps(r)) == r


class TestPostInit:
    def test_graph(self):
        with pytest.raises(ValueError, match="two distinct"):
            core.Graph(("a", "b"), frozenset({frozenset("a")}))
        with pytest.raises(ValueError, match="undeclared"):
            core.Graph(("a", "b"), frozenset({frozenset("ac")}))

    def test_bind_spec(self):
        bug = gadgets.fixture("bug").hypergraph
        with pytest.raises(UnknownFixtureError):
            gadgets.BindSpec(bug, "v1", "nope")
        with pytest.raises(AdjacentTerminalsError):
            gadgets.BindSpec(bug, "v1", "v1")
        with pytest.raises(AdjacentTerminalsError):
            gadgets.BindSpec(bug, "v1", "v2")
        with pytest.raises(NotATifsPairError):
            gadgets.BindSpec(gadget=bug, head="v1", tail="v4")

    def test_post_init_looked_up_at_call_time(self, monkeypatch):
        # the benchmark's tracer wraps BindSpec.__post_init__ after import
        seen = []
        monkeypatch.setattr(gadgets.BindSpec, "__post_init__", lambda self: seen.append(self))
        spec = gadgets.BindSpec(K3, "a", "b")
        assert seen == [spec]

    def test_partition_system(self):
        with pytest.raises(OhgError, match="nonempty"):
            coloring.PartitionSystem(K3, (frozenset("abc"), frozenset()))
        with pytest.raises(OhgError, match="exactly"):
            coloring.PartitionSystem(K3, (frozenset("ab"),))
        with pytest.raises(NotProperError):
            coloring.PartitionSystem(K3, (frozenset("ab"), frozenset("c")))
        with pytest.raises(NotDominatingError):
            coloring.PartitionSystem(
                PATH, (frozenset("a"), frozenset("bd"), frozenset("ce")))

    def test_coloring(self):
        with pytest.raises(OhgError, match="misses"):
            coloring.Coloring(K3, {"a": 1, "b": 2})
        with pytest.raises(NotProperError):
            coloring.Coloring(hypergraph=K3, color_of={"a": 1, "b": 1, "c": 2})
