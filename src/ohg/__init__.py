"""Analysis of orthogonality hypergraphs via their two-valued states.

The package enumerates all two-valued states of a hypergraph of contexts,
classifies separability, reconstructs hypergraphs from their state tables,
searches for noncontextual colorings, builds the gadget compositions behind
those results, and verifies vector labelings. The ``ohg`` command exposes the
same operations on text files.
"""

import importlib

# Public names by submodule, each imported on first use (PEP 562), so that a
# command loads only the modules it runs.
_EXPORTS = {
    "model": "Hypergraph build",
    "core": "FourCycle Graph four_cycle_lint is_isomorphic maximal_cliques two_section",
    "cliques": "ShapeReport shape",
    "errors": "OhgError",
    "engine": "count_states",
    "pairwise": "CoTruth StateClassification classify cotruth",
    "implications": "GadgetProfile GadgetScan gadget_profile gadget_scan",
    "states": "TravisMatrix TwoValuedState enumerate_states",
    "reconstruction": ("ReconstructionResult Verdict adjacency_from_states "
                       "evaluate_reconstruction reconstruct travis_equivalent verdict"),
    "chromatic": "Coloring brooks_bound exact_chromatic exact_coloring",
    "coloring": ("PartitionSystem RowSelection algorithm1 color_to_state "
                 "coloring_from_partition partition_from_coloring "
                 "partition_from_rows relaxed_coloring verify_rows"),
    "bindcount": "predicted_bind_count",
    "catalogue": "Fixture FIXTURE_NAMES fixture",
    "gadgets": "BindSpec bind build_fig4 layer",
    "geometry": "ForReport VectorLabeling verify_for",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "formats"}


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)
