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
    "core": ("FourCycle Graph ShapeReport four_cycle_lint is_isomorphic "
             "maximal_cliques shape two_section"),
    "errors": "OhgError",
    "engine": "count_states",
    "states": ("CoTruth GadgetProfile GadgetScan StateClassification TravisMatrix "
               "TwoValuedState classify cotruth enumerate_states "
               "gadget_profile gadget_scan"),
    "reconstruction": ("ReconstructionResult Verdict adjacency_from_states "
                       "evaluate_reconstruction reconstruct travis_equivalent verdict"),
    "coloring": ("Coloring PartitionSystem RowSelection algorithm1 brooks_bound "
                 "color_to_state coloring_from_partition exact_chromatic "
                 "exact_coloring partition_from_coloring partition_from_rows "
                 "relaxed_coloring verify_rows"),
    "gadgets": ("BindSpec Fixture FIXTURE_NAMES bind build_fig4 fixture layer "
                "predicted_bind_count"),
    "geometry": "ForReport VectorLabeling verify_for",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
# public names that differ from the name in their submodule
_SOURCE_NAME = {"evaluate_reconstruction": "evaluate"}
_SUBMODULES = {*_EXPORTS, "cli", "formats"}


def __getattr__(name: str):
    if name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        value = getattr(module, _SOURCE_NAME.get(name, name))
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
