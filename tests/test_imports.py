"""The package never loads numpy, and each command loads exactly what it runs.

Each command line runs once, in a fresh interpreter, as the tests use numpy as
an oracle. The child runs ``ohg.cli.main`` and reports on stderr the ``ohg.*``
modules, and which of numpy, ``dataclasses``, ``argparse`` and ``json``, were
loaded after ``import ohg.cli`` and after the command. One table gives each
command line's exact set. Two tests read the same runs: the commands that
must leave numpy and ``argparse`` unloaded, and a ceiling on the AST nodes of
the package modules that some commands load, which every run compiles where no
bytecode cache is written.
"""

import ast
import builtins
import functools
import importlib.util
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ohg
from ohg import (bindcount, catalogue, chromatic, cliques, coloring, core, engine,
                 formats, gadgets, geometry, implications, model, pairwise, reconstruction,
                 states)
from ohg.formats import write_ohg

from conftest import child_options

_PROBE = """
import sys
import ohg.cli
def loaded():
    return ",".join(m for m in sys.modules if m.startswith("ohg.")
                    or m in ("numpy", "dataclasses", "json", "argparse")) or "-"
before = loaded()
code = ohg.cli.main(sys.argv[1:])
sys.stdout.flush()
print("loaded", before, loaded(), code, file=sys.stderr)
"""


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    out = {}
    for name in ("bug", "pentagon"):
        path = root / f"{name}.ohg"
        path.write_text(write_ohg(gadgets.fixture(name).hypergraph))
        out[name] = str(path)
    vec = root / "pentagon.vec"
    vec.write_text((resources.files("ohg") / "fixtures" / "pentagon.vec").read_text())
    out["pentagon_vec"] = str(vec)
    out["matrix"] = str(root / "bug.mat")
    return out


@functools.cache
def probe(*args: str) -> tuple[frozenset[str], frozenset[str], int]:
    """The package and watched modules loaded after ``import ohg.cli`` and
    after running ``ohg ARGS``, and the exit code, from a fresh interpreter
    started once for each command line."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        capture_output=True, text=True, timeout=60, **child_options(),
    )
    assert result.returncode == 0, result.stderr
    word, before, after, code = result.stderr.splitlines()[-1].split()
    assert word == "loaded"
    return frozenset(before.split(",")) - {"-"}, frozenset(after.split(",")) - {"-"}, int(code)


def test_import_ohg_leaves_numpy_unloaded():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, ohg; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60, **child_options(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize("args", [
    ("states", "{bug}", "--count-only"),
    ("states", "{bug}", "--count-only", "--format", "json"),
    ("count", "--na", "3", "--nb", "3", "--nn", "8"),
    ("gadget", "bug"),
    ("chroma", "{bug}"),
    ("color", "{bug}", "--n", "3", "--algorithm", "paper"),
    ("color", "{bug}", "--n", "3", "--algorithm", "relaxed"),
    ("color", "{bug}", "--n", "3", "--algorithm", "exact"),
    ("verify-for", "{pentagon}", "{pentagon_vec}"),
    ("export", "{bug}", "--format", "json"),
    ("states", "{bug}"),
    ("states", "{bug}", "--out", "{matrix}"),
    ("states", "{bug}", "--format", "json"),
    ("gadget", "bug", "--travis"),
    ("classify", "{bug}"),
    ("reconstruct", "{bug}"),
    ("compose", "bind", "{bug}", "--head", "v1", "--tail", "v7"),
], ids=" ".join)
def test_numpy_free_commands(paths, args):
    # nor do they load argparse, which only help and usage errors need
    before, after, code = probe(*(a.format(**paths) for a in args))
    assert code == 0
    assert "numpy" not in before | after
    assert "argparse" not in before | after


def test_import_ohg_loads_no_submodule():
    # public names and submodules then load on first access
    child = ("import sys, ohg; print([m for m in sys.modules if m.startswith('ohg.')]); "
             "print(ohg.states.__name__, ohg.count_states.__module__)")
    result = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, timeout=60, **child_options(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\nohg.states ohg.engine\n"


# Each name moved out of a module is imported back into it, or bound there on
# first use, by the module it moved to and the module it left.
_MOVED = [
    (pairwise, states, "classify cotruth"),
    (implications, states, "gadget_profile gadget_scan"),
    (engine, states, "count_states"),
    (coloring, states, "CanonicalRows"),
    (geometry, formats, "parse_vectors write_vectors"),
    (chromatic, coloring, "brooks_bound exact_chromatic exact_coloring"),
    (cliques, core, "shape"),
    (catalogue, gadgets, "fixture"),
    (bindcount, gadgets, "predicted_bind_count"),
]
_MOVED_OBJECTS = [
    (pairwise, states, "CoTruth StateClassification"),
    (implications, states, "GadgetProfile GadgetScan"),
    (chromatic, coloring, "Coloring"),
    (cliques, core, "ShapeReport"),
    (catalogue, gadgets, "FIXTURE_NAMES Fixture"),
]


def test_count_states_is_one_function():
    # the benchmark's tracer swaps a function for a wrapper by identity in
    # every loaded module, so each name must hold the same object
    assert states.count_states is engine.count_states is ohg.count_states
    assert formats.parse_ohg is model.parse_ohg
    for home, old, names in _MOVED:
        for name in names.split():
            assert getattr(home, name) is getattr(old, name), name
            if name in ohg.__all__:
                assert getattr(ohg, name) is getattr(home, name), name


def test_model_objects_are_one_object():
    assert ohg.Hypergraph is core.Hypergraph is model.Hypergraph
    assert ohg.build is core.build is model.build
    for home, old, names in _MOVED_OBJECTS:
        for name in names.split():
            assert getattr(home, name) is getattr(old, name) is getattr(ohg, name), name


def test_import_states_loads_no_module_it_binds_on_first_use():
    child = ("import sys, ohg.states; "
             "print(sorted(m for m in sys.modules if m.startswith('ohg.')))")
    result = subprocess.run([sys.executable, "-c", child], capture_output=True,
                            text=True, timeout=60, **child_options())
    assert result.returncode == 0, result.stderr
    loaded = set(ast.literal_eval(result.stdout))
    assert "ohg.states" in loaded
    assert loaded & {"ohg.pairwise", "ohg.implications", "ohg.engine"} == set()


def test_states_needs_no_name_it_binds_on_first_use():
    # A module's ``__getattr__`` serves attribute access, not the global
    # lookups of the module's own functions: a function of ``ohg.states``
    # that read a name bound on first use would raise NameError here.
    # Nor do a table's counts load the search, nor the verdicts on them.
    child = ("import sys, ohg.states; "
             "t = ohg.states.TravisMatrix.from_bit_rows('abc', [(1, 0, 0), (0, 1, 1)]); "
             "print(t.column_sums, t.cooc); "
             "print(sorted({'ohg.pairwise', 'ohg.engine'} & set(sys.modules))); "
             "h = ohg.model.Hypergraph(tuple('abc'), (frozenset('ab'),)); "
             "ohg.states.gadget_scan(h, t); ohg.states.classify(h, t); "
             "print('ohg.engine' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", child], capture_output=True,
                            text=True, timeout=60, **child_options())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "(1, 1, 1) ((1, 0, 0), (0, 1, 1), (0, 1, 1))\n[]\nFalse\n"


@pytest.mark.parametrize("module", [states, formats], ids=lambda m: m.__name__)
def test_unknown_name_of_a_lazy_module_is_an_attribute_error(module):
    assert not hasattr(module, "no_such_name")
    message = f"module {module.__name__!r} has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=re.escape(message)):
        module.no_such_name


_REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"
_REPLAY_CHILD = """
import sys
{imports}
loaded = {{m for m in sys.modules if m.startswith("ohg.")}}
for module, attr in {pairs!r}:
    obj = getattr(sys.modules["ohg." + module], attr)
    home = obj.__module__
    bound = home in loaded and getattr(sys.modules[home], obj.__name__, None) is obj
    print(module, attr, home, bound)
"""


def test_replay_targets_are_bound_where_defined():
    # The benchmark's tracer imports these modules, lists the loaded ones and
    # swaps each target wherever it is bound. A target whose defining module
    # those imports did not load, or that is not bound there under its own
    # name, would keep an untraced binding.
    tree = ast.parse(_REPLAY.read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.Import) and node.names[0].name.startswith("ohg.")
               or isinstance(node, ast.ImportFrom) and node.module == "ohg"]
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    pairs = [(t.elts[0].id, t.elts[1].value) for t in targets.elts]
    assert len(imports) == 2 and ("states", "classify") in pairs
    child = _REPLAY_CHILD.format(imports="\n".join(map(ast.unparse, imports)), pairs=pairs)
    result = subprocess.run([sys.executable, "-c", child], capture_output=True,
                            text=True, timeout=60, **child_options())
    assert result.returncode == 0, result.stderr
    unbound = [line for line in result.stdout.splitlines() if not line.endswith(" True")]
    assert len(result.stdout.splitlines()) == len(pairs)
    assert unbound == []


def test_no_module_is_named_after_a_public_name():
    # Importing a submodule binds it on its package, over a name the package
    # binds. The subcommands' modules bind on ``ohg.commands``, so
    # ``ohg.commands.classify`` leaves ``ohg.classify`` alone.
    root = Path(ohg.__file__).parent
    stems = {p.stem for p in root.glob("*.py")}
    assert {"model", "pairwise", "commands"} <= stems | {p.name for p in root.iterdir()}
    assert stems & set(ohg.__all__) == set()
    commands = root / "commands"
    bound = _module_names(ast.parse((commands / "__init__.py").read_text()).body)
    assert {p.stem for p in commands.glob("*.py")} & bound == set()


PUBLIC = """
BindSpec CoTruth Coloring FIXTURE_NAMES Fixture ForReport FourCycle GadgetProfile
GadgetScan Graph Hypergraph OhgError PartitionSystem ReconstructionResult RowSelection
ShapeReport StateClassification TravisMatrix TwoValuedState VectorLabeling Verdict
adjacency_from_states algorithm1 bind brooks_bound build build_fig4 classify
color_to_state coloring_from_partition cotruth count_states enumerate_states
evaluate_reconstruction exact_chromatic exact_coloring fixture four_cycle_lint
gadget_profile gadget_scan is_isomorphic layer maximal_cliques partition_from_coloring
partition_from_rows predicted_bind_count reconstruct relaxed_coloring shape
travis_equivalent two_section verdict verify_for verify_rows
""".split()


def test_star_import_binds_every_public_name():
    assert ohg.__all__ == PUBLIC
    namespace: dict = {}
    exec("from ohg import *", namespace)
    assert set(ohg.__all__) <= set(namespace)
    assert namespace["evaluate_reconstruction"] is reconstruction.evaluate
    assert namespace["FIXTURE_NAMES"] is gadgets.FIXTURE_NAMES
    assert set(ohg.__all__) <= set(dir(ohg))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(ohg, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        ohg.no_such_name


# The complete set of modules each command loads: the entry point, the
# errors, the command's own module under ``ohg.commands`` and what it runs.
# - Colouring, reconstruction and geometry load only where they are called;
#   ``ohg.chromatic`` and ``ohg.cliques`` without the state-based colourings;
#   the co-truth analyses (``ohg.pairwise``, ``ohg.implications``) without
#   the tables; the fixtures (``ohg.catalogue``) and the binding's closed form
#   (``ohg.bindcount``) without the compositions (``ohg.gadgets``).
# - The counting engine, ``ohg.engine``, loads only where states are counted
#   or listed: not to print a fixture or its table, nor to colour exactly.
# - The stack of the nested walks, ``ohg.walk``, loads with the engine or the
#   clique search, and not for ``verify-for``.
# - The table code, ``ohg.states``, loads only where a table is built or
#   parsed, without the modules whose names it binds on first use.
# - Only ``reconstruct`` loads core's graph algorithms, ``ohg.core``; the
#   other commands load only the model.
# - ``json`` loads exactly for JSON output; numpy, ``dataclasses`` and
#   ``argparse`` never do.
_ENTRY = {"ohg.cli", "ohg.errors", "ohg.commands"}
_MODEL = {"ohg.model"}
_COTRUTH = _MODEL | {"ohg.engine", "ohg.walk", "ohg.pairwise"}
_TABLE = _MODEL | {"ohg.engine", "ohg.walk", "ohg.states"}
_CHI = _MODEL | {"ohg.cliques", "ohg.walk", "ohg.chromatic"}
_GADGETS = _MODEL | {"ohg.engine", "ohg.walk", "ohg.formats", "ohg.catalogue",
                     "ohg.bindcount", "ohg.gadgets"}

_COMMANDS = [
    (("states", "{bug}", "--count-only"), _MODEL | {"ohg.engine", "ohg.walk"}),
    (("states", "{bug}", "--count-only", "--format", "json"),
     _MODEL | {"ohg.engine", "ohg.walk", "json"}),
    (("states", "{bug}"), _TABLE | {"ohg.formats"}),
    (("states", "{bug}", "--out", "{matrix}"), _TABLE | {"ohg.formats"}),
    (("states", "{bug}", "--format", "json"), _TABLE | {"ohg.commands._json_rows", "json"}),
    (("count", "--na", "3", "--nb", "3", "--nn", "8"), {"ohg.bindcount"}),
    (("count", "--na", "3", "--nb", "3", "--nn", "8", "--format", "json"),
     {"ohg.bindcount", "json"}),
    (("gadget", "bug"), _MODEL | {"ohg.catalogue"}),
    (("gadget", "k3"), _MODEL | {"ohg.catalogue"}),
    (("gadget", "bug", "--travis"), _MODEL | {"ohg.catalogue"}),
    (("compose", "bind", "{bug}", "--head", "v1", "--tail", "v7"), _GADGETS | {"ohg.cliques"}),
    (("export", "{bug}", "--format", "dot"), _MODEL | {"ohg.commands._dot"}),
    (("export", "{bug}", "--format", "json"), _MODEL | {"json"}),
    (("classify", "{bug}"), _COTRUTH | _CHI),
    (("reconstruct", "{bug}"), _COTRUTH | {"ohg.cliques", "ohg.core", "ohg.reconstruction"}),
    (("color", "{bug}", "--n", "3"), _TABLE | _CHI | {"ohg.coloring"}),
    (("color", "{bug}", "--n", "3", "--algorithm", "paper"), _TABLE | _CHI | {"ohg.coloring"}),
    (("color", "{bug}", "--n", "3", "--algorithm", "relaxed"),
     _TABLE | _CHI | {"ohg.coloring"}),
    (("color", "{bug}", "--n", "3", "--algorithm", "exact"), _CHI),
    (("chroma", "{bug}"), _CHI),
    (("chroma", "{bug}", "--brooks"), _CHI),
    (("chroma", "{bug}", "--format", "json"), _CHI | {"json"}),
    (("verify-for", "{pentagon}", "{pentagon_vec}"), _MODEL | {"ohg.geometry"}),
    (("compose", "layer", "{bug}", "--head", "v1", "--tail", "v7"), _GADGETS),
]


@pytest.mark.parametrize("args, loads", _COMMANDS,
                         ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_commands_load_exactly_these_modules(paths, args, loads):
    before, after, code = probe(*(a.format(**paths) for a in args))
    assert code == 0
    assert before == _ENTRY
    assert after == _ENTRY | {"ohg.commands." + args[0].replace("-", "_")} | loads


def _ast_nodes(modules: set[str]) -> int:
    """The AST nodes of the package and of ``modules``, the sources that a
    run compiles where no bytecode cache is written."""
    paths = [importlib.util.find_spec(m).origin for m in {"ohg", *modules}]
    return sum(sum(1 for _ in ast.walk(ast.parse(Path(p).read_text()))) for p in paths)


# Counted before the library modules that these commands share were split
# (13,043 / 8,336 / 11,026 / 13,225 / 4,416 nodes): classify and chroma at
# most 60% of that, reconstruct 75%, color 90%, a bare count no more. The
# export commands at their counts once ``ohg.states`` and ``ohg.formats``
# bound the names that moved out of them on first use (8,053 / 7,522 / 8,022
# / 3,903 nodes before), and gadget --travis again at its count once it
# copied the shipped file instead of parsing and writing it (4,765 before);
# verify-for at the count it had then, so it cannot grow past it.
@pytest.mark.parametrize("args, ceiling", [
    (("classify", "{bug}"), 7825),
    (("chroma", "{bug}"), 5001),
    (("reconstruct", "{bug}"), 8269),
    (("color", "{bug}", "--n", "3"), 11902),
    (("states", "{bug}", "--count-only"), 4416),
    (("states", "{bug}", "--out", "{matrix}"), 6003),
    (("states", "{bug}", "--format", "json"), 5725),
    (("gadget", "bug", "--travis"), 2468),
    (("verify-for", "{pentagon}", "{pentagon_vec}"), 3250),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_commands_compile_at_most(paths, args, ceiling):
    _, after, code = probe(*(a.format(**paths) for a in args))
    assert code == 0
    assert _ast_nodes({m for m in after if m.startswith("ohg.")}) <= ceiling


def test_python_m_cli_imports_cli_once(tmp_path):
    # ``python -m ohg.cli`` runs the module as ``__main__``; a subcommand
    # that imported ``ohg.cli`` would load it a second time. The log lists
    # what an import statement names, such as the file parser the shared
    # helpers import, and not what ``from <package> import`` loads.
    path = tmp_path / "k3.ohg"
    path.write_text(write_ohg(gadgets.fixture("k3").hypergraph))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ohg.cli", "states", str(path),
         "--count-only"],
        capture_output=True, text=True, timeout=60, **child_options(),
    )
    assert result.returncode == 0 and result.stdout == "3\n", result.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "ohg.model" in imported
    assert "ohg.cli" not in imported


def test_no_function_calls_itself():
    # A walk that nests as deep as its input yields each sub-walk it would
    # call to ``ohg.walk._drive``, which runs it on a stack of its own;
    # ``yield f(...)`` only builds the sub-walk. A function that calls
    # itself nests on Python's stack and crashes past its recursion limit.
    # A method calls itself as ``self.name``; a bare ``name`` there is not it.
    root = Path(ohg.__file__).parent
    calls = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            itself = f"self.{func.name}" if id(func) in methods else func.name
            yielded = {id(node.value) for node in ast.walk(func)
                       if isinstance(node, ast.Yield)}
            calls += [f"{path.relative_to(root)}:{node.lineno}: {func.name}"
                      for node in ast.walk(func)
                      if isinstance(node, ast.Call) and id(node) not in yielded
                      and ast.unparse(node.func) == itself]
    assert calls == []


def _module_names(body: list) -> set[str]:
    """The names a module's top level binds, in ``if`` and ``try`` blocks
    too: imports, ``def``, ``class`` and assignment targets."""
    names = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        for block in ("body", "orelse", "finalbody"):
            if isinstance(node, (ast.If, ast.Try)):
                names |= _module_names(getattr(node, block, []))
        for handler in getattr(node, "handlers", []):
            names |= _module_names(handler.body)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(annotation: ast.expr):
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _used_names(ast.parse(node.value, mode="eval").body)


def test_annotation_names_are_bound_at_module_level():
    # what ``typing.get_type_hints`` needs, and what pyflakes checks: every
    # name in an annotation is imported (under TYPE_CHECKING too), defined,
    # assigned at the top of its module, or a builtin
    root = Path(ohg.__file__).parent
    unbound = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = _module_names(tree.body) | set(dir(builtins))
        for annotation in _annotations(tree):
            unbound += [f"{path.relative_to(root)}:{annotation.lineno}: {name}"
                        for name in _used_names(annotation) if name not in bound]
    assert unbound == []
