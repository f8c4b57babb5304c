"""Analysis of orthogonality hypergraphs via their two-valued states.

The package enumerates all two-valued states of a hypergraph of contexts,
classifies separability, reconstructs hypergraphs from their state tables,
searches for noncontextual colorings, builds the gadget compositions behind
those results, and verifies vector labelings. The ``ohg`` command exposes the
same operations on text files.
"""

from importlib import import_module


# A module ``__getattr__`` (PEP 562) for the module whose globals are
# ``namespace``. On first access it imports a name of ``home`` from the
# submodule ``home[name]`` of this package, or a name of ``submodules`` as
# that submodule, and binds it in ``namespace``, so that the module loads a
# submodule only where it is used. It serves attribute access and ``from``
# imports, not the module's own global lookups.
def _lazy(namespace, home, submodules=()):
    def __getattr__(name):
        if name in home:
            value = getattr(import_module(f".{home[name]}", __name__), name)
        elif name in submodules:
            value = import_module(f".{name}", __name__)
        else:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    return __getattr__


# Public names by submodule, each imported on first use, so that a command
# loads only the modules it runs.
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
__getattr__ = _lazy(globals(), _MODULE_OF, {*_EXPORTS, "cli", "formats"})


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)
