"""The package never loads numpy: not on import, not in any command.

The tests use numpy as an oracle, so each case runs in a fresh interpreter.
The child runs ``ohg.cli.main`` on one command and reports on stderr
whether numpy was loaded before and after it.
"""

import subprocess
import sys
from importlib import resources

import pytest

from ohg import gadgets
from ohg.formats import write_ohg

from conftest import child_options

_PROBE = """
import sys
import ohg.cli
before = "numpy" in sys.modules
code = ohg.cli.main(sys.argv[1:])
sys.stdout.flush()
print("numpy", before, "numpy" in sys.modules, code, file=sys.stderr)
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


def probe(*args: str) -> tuple[bool, bool, int]:
    """Whether numpy was loaded after ``import ohg.cli`` and after running
    ``ohg ARGS``, and the exit code, from a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        capture_output=True, text=True, timeout=60, **child_options(),
    )
    assert result.returncode == 0, result.stderr
    word, before, after, code = result.stderr.splitlines()[-1].split()
    assert word == "numpy"
    return before == "True", after == "True", int(code)


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
    before, after, code = probe(*(a.format(**paths) for a in args))
    assert code == 0
    assert not before and not after
