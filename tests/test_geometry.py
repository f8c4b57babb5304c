import math
import random

import numpy as np
import pytest

from ohg import core, gadgets
from ohg.errors import DimensionMismatchError, MissingVertexError, OhgError
from ohg.geometry import VectorLabeling, parse_vectors, verify_for, write_vectors

K3_BASIS = VectorLabeling(3, {
    "a": (1.0, 0.0, 0.0),
    "b": (0.0, 1.0, 0.0),
    "c": (0.0, 0.0, 1.0),
})


def rotate(labeling: VectorLabeling, seed: int) -> VectorLabeling:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(labeling.dimension, labeling.dimension)))
    return VectorLabeling(labeling.dimension, {
        name: tuple(q @ np.array(vec)) for name, vec in labeling.vectors.items()
    })


def rescale(labeling: VectorLabeling, seed: int, factor: float = 1.0) -> VectorLabeling:
    """Each vector times ``factor`` and a random scale of its own."""
    rng = random.Random(seed)
    scales = {name: rng.choice((-3.5, 0.25, 7.0, -0.01)) * factor
              for name in labeling.vectors}
    return VectorLabeling(labeling.dimension, {
        name: tuple(c * scales[name] for c in vec)
        for name, vec in labeling.vectors.items()
    })


def shipped_pentagon_labeling() -> VectorLabeling:
    from importlib import resources
    from ohg.formats import parse_vectors

    return parse_vectors((resources.files("ohg") / "fixtures" / "pentagon.vec").read_text())


# far enough from 1 that the squared norm of a vector underflows or overflows
SCALES = (1.0, 1e-200, 1e200)


def violation_pairs(report):
    return (
        {(u, v) for u, v, _ in report.non_orthogonal_adjacent},
        {(u, v) for u, v, _ in report.orthogonal_non_adjacent},
        {(u, v) for u, v, _ in report.colinear},
    )


class TestVerify:
    def test_k3_standard_basis(self, k3):
        assert verify_for(k3, K3_BASIS, tol=1e-9).ok

    def test_k3_colinear_pair(self, k3):
        bad = VectorLabeling(3, {
            "a": (1.0, 0.0, 0.0),
            "b": (1.0, 0.0, 0.0),
            "c": (0.0, 1.0, 0.0),
        })
        report = verify_for(k3, bad, tol=1e-9)
        assert ("a", "b", 1.0) in report.colinear
        assert any(p[:2] == ("a", "b") for p in report.non_orthogonal_adjacent)

    def test_two_context_chain(self):
        h = core.build([("a", "b", "c"), ("c", "d", "e")])
        th = 0.7
        labeling = VectorLabeling(3, {
            "a": (1.0, 0.0, 0.0),
            "b": (0.0, 1.0, 0.0),
            "c": (0.0, 0.0, 1.0),
            "d": (math.cos(th), math.sin(th), 0.0),
            "e": (-math.sin(th), math.cos(th), 0.0),
        })
        assert verify_for(h, labeling, tol=1e-9).ok

    def test_disjoint_contexts_on_one_basis(self):
        # each vector of one context is orthogonal to two of the other's,
        # which share no context with it, and equal to the third
        h = core.build([("a", "b", "c"), ("d", "e", "f")])
        basis = K3_BASIS.vectors
        labeling = VectorLabeling(3, {**basis, "d": basis["a"], "e": basis["b"],
                                      "f": basis["c"]})
        report = verify_for(h, labeling, tol=1e-9)
        assert report.non_orthogonal_adjacent == ()
        assert report.orthogonal_non_adjacent == tuple(
            (u, v, 0.0) for u, v in [("a", "e"), ("a", "f"), ("b", "d"), ("b", "f"),
                                     ("c", "d"), ("c", "e")])
        assert report.colinear == (("a", "d", 1.0), ("b", "e", 1.0), ("c", "f", 1.0))
        assert not report.ok

    def test_pentagon_cone_representation(self, pentagon):
        # corners sit on a cone with 144-degree steps, the apex angle tuned
        # so consecutive corners are orthogonal; midpoints are cross products
        c = math.cos(4 * math.pi / 5)
        tan2 = -1.0 / c
        sin_t = math.sqrt(tan2 / (1 + tan2))
        cos_t = math.sqrt(1 / (1 + tan2))
        corners = []
        for k in range(5):
            phi = 4 * math.pi * k / 5
            corners.append(
                (sin_t * math.cos(phi), sin_t * math.sin(phi), cos_t)
            )

        def cross(u, v):
            return (u[1] * v[2] - u[2] * v[1],
                    u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0])

        vectors = {}
        for name, vec in zip(("a1", "a3", "a5", "a7", "a9"), corners):
            vectors[name] = vec
        for k, name in enumerate(("a2", "a4", "a6", "a8", "a10")):
            vectors[name] = cross(corners[k], corners[(k + 1) % 5])
        report = verify_for(pentagon, VectorLabeling(3, vectors), tol=1e-9)
        assert report.ok

    def test_shipped_pentagon_labeling(self, pentagon):
        assert verify_for(pentagon, shipped_pentagon_labeling(), tol=1e-9).ok

    def test_chorded_bug_has_no_representation(self, bug):
        chorded = core.build(
            [tuple(sorted(c)) for c in bug.contexts] + [("v1", "v7", "x")]
        )
        assert core.four_cycle_lint(chorded)
        rng = random.Random(11)
        for _ in range(5):
            labeling = VectorLabeling(3, {
                v: tuple(rng.gauss(0, 1) for _ in range(3))
                for v in chorded.vertices
            })
            assert not verify_for(chorded, labeling, tol=1e-9).ok


class TestInvariance:
    def test_rotation_preserves_validity(self, k3):
        for seed in (1, 2, 3):
            assert verify_for(k3, rotate(K3_BASIS, seed), tol=1e-9).ok

    def test_rotation_preserves_violations(self, k3):
        bad = VectorLabeling(3, {
            "a": (1.0, 0.0, 0.0),
            "b": (1.0, 0.0, 0.0),
            "c": (0.0, 1.0, 0.0),
        })
        base = violation_pairs(verify_for(k3, bad, tol=1e-9))
        for seed in (4, 5):
            rotated = violation_pairs(verify_for(k3, rotate(bad, seed), tol=1e-9))
            assert rotated == base

    def test_scaling_is_ignored(self, k3, pentagon):
        shipped = shipped_pentagon_labeling()
        for factor in SCALES:
            for seed in (6, 7):
                assert verify_for(k3, rescale(K3_BASIS, seed, factor), tol=1e-9).ok
            assert verify_for(pentagon, rescale(shipped, 6, factor), tol=1e-9).ok, factor

    def test_scaling_preserves_violations(self, k3):
        bad = VectorLabeling(3, {
            "a": (1.0, 0.0, 0.0),
            "b": (1.0, 0.0, 0.0),
            "c": (0.0, 1.0, 0.0),
        })
        base = violation_pairs(verify_for(k3, bad, tol=1e-9))
        for factor in SCALES:
            scaled = verify_for(k3, rescale(bad, 8, factor), tol=1e-9)
            assert violation_pairs(scaled) == base, factor


class TestErrors:
    def test_missing_vertex(self, k3):
        partial = VectorLabeling(3, {"a": (1.0, 0.0, 0.0), "b": (0.0, 1.0, 0.0)})
        with pytest.raises(MissingVertexError):
            verify_for(k3, partial)

    def test_dimension_mismatch(self, k3):
        ragged = VectorLabeling(3, {
            "a": (1.0, 0.0, 0.0), "b": (0.0, 1.0), "c": (0.0, 0.0, 1.0),
        })
        with pytest.raises(DimensionMismatchError):
            verify_for(k3, ragged)

    def test_zero_vector(self, k3):
        degenerate = VectorLabeling(3, {
            "a": (0.0, 0.0, 0.0), "b": (0.0, 1.0, 0.0), "c": (0.0, 0.0, 1.0),
        })
        with pytest.raises(OhgError):
            verify_for(k3, degenerate)

    def test_non_finite_component(self, pentagon):
        # every comparison with NaN is false, so these would pass as valid
        shipped = shipped_pentagon_labeling()
        for bad in ((math.nan,) * 3, (math.inf, 0.0, 0.0), (1.0, -math.inf, 0.0)):
            vectors = dict(shipped.vectors, a3=bad)
            with pytest.raises(OhgError, match="'a3' carries a non-finite"):
                verify_for(pentagon, VectorLabeling(3, vectors))

    def test_bad_tolerance(self, k3):
        # from 0.5 up one pair could be both orthogonal and colinear
        for tol in (0.0, -1e-9, math.nan, math.inf, 0.5, 0.75):
            with pytest.raises(OhgError, match="tolerance"):
                verify_for(k3, K3_BASIS, tol=tol)


class TestVectorFile:
    def test_round_trip_over_composed_names(self, bind_bug):
        # composed vertices are named ``g1:v2``, so a line splits at its last colon
        lay = gadgets.layer(gadgets.BindSpec(gadgets.fixture("bug").hypergraph, "v1", "v7"))
        for h in (lay, bind_bug):
            assert any(":" in v for v in h.vertices)
            labeling = VectorLabeling(3, {v: (1.0, float(i), -0.5)
                                          for i, v in enumerate(h.vertices)})
            assert parse_vectors(write_vectors(labeling)) == labeling
