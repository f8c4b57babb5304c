"""Workloads: seeded inputs, the timed command list, probes and checks.

Inputs come from ``ohg gadget`` and ``ohg compose``. The seed then renames
every vertex while keeping first-appearance order, so the engine's bit
layout, and with it the work done, does not depend on the seed. One
``bind(bug)`` copy has its context and member order scrambled with a fixed
scramble seed: its count takes ~20x the canonical copy's, and the count time
of a scrambled copy ranges over 17x from one scramble to the next, which
would swamp run-to-run comparisons if the run seed chose the scramble.

Probes are commands that fail today because of known defects. Each runs
once per run under its own memory cap and budget; it counts in
``fail_ratio`` and nowhere else until it succeeds, and its answer is checked
as soon as it does.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import truth
from proc import Result

SCRAMBLE_SEED = 2
SMALL_VERTICES = 43  # fixture size: commands on inputs up to this many vertices


@dataclass
class Cmd:
    label: str
    args: list[str]
    instance: str
    check: Callable[[Result], Optional[str]]
    small: bool = False


@dataclass
class Probe(Cmd):
    defect: str = ""
    mem_mb: int = 1024
    cpu_s: int = 20
    timeout_s: float = 60.0


class SetupError(RuntimeError):
    pass


@dataclass
class Inputs:
    """One run's input files in ``work``, with what is known about them."""

    work: Path
    seed: int
    ohg: Callable[[list[str]], str]  # runs one ohg command, returns stdout
    checkout: Path
    files: dict[str, str] = field(default_factory=dict)
    inst: dict[str, truth.Instance] = field(default_factory=dict)
    names: dict[str, dict[str, str]] = field(default_factory=dict)
    raw: dict[str, str] = field(default_factory=dict)
    count: dict[str, int] = field(default_factory=dict)
    setup_log: list[tuple[list[str], str]] = field(default_factory=list)
    _used: set[str] = field(default_factory=set)

    def _token(self, rng: random.Random) -> str:
        alphabet = string.ascii_lowercase + string.digits
        while True:
            name = "v" + "".join(rng.choice(alphabet) for _ in range(7))
            if name not in self._used:
                self._used.add(name)
                return name

    def _store(self, name: str, contexts: list[list[str]], count: int) -> None:
        rng = random.Random(f"{self.seed}:{name}")
        mapping: dict[str, str] = {}
        lines = []
        for ctx in contexts:
            for v in ctx:
                if v not in mapping:
                    mapping[v] = self._token(rng)
            lines.append(" ".join(mapping[v] for v in ctx))
        text = "\n".join(lines) + "\n"
        self.files[name] = f"{name}.ohg"
        (self.work / self.files[name]).write_text(text)
        self.names[name] = mapping
        self.inst[name] = truth.Instance.from_text(text)
        self.count[name] = count

    def _run(self, args: list[str]) -> str:
        out = self.ohg(args)
        self.setup_log.append((args, out))
        return out

    def gadget(self, name: str) -> None:
        self.raw[name] = self._run(["gadget", name])
        self._store(name, truth.parse_contexts(self.raw[name]), truth.FIXTURE_COUNTS[name])

    def compose(self, kind: str, gadget: str) -> None:
        (head, tail), profile = truth.PROFILES[gadget]
        m = self.names[gadget]
        name = f"{kind}_{gadget}"
        self.raw[name] = self._run(["compose", kind, self.files[gadget],
                                    "--head", m[head], "--tail", m[tail]])
        count = (truth.layer_count if kind == "layer" else truth.bind_count)(*profile)
        self._store(name, truth.parse_contexts(self.raw[name]), count)

    def scramble(self, source: str, k: int) -> str:
        contexts = truth.parse_contexts(self.raw[source])
        rng = random.Random(f"scramble:{k}")
        rng.shuffle(contexts)
        for ctx in contexts:
            rng.shuffle(ctx)
        name = f"{source}_s{k}"
        self._store(name, contexts, self.count[source])
        return name

    def union(self, a: str, b: str) -> None:
        """Disjoint union of two inputs: its states are all pairs of states."""
        name = f"{a}+{b}"
        text = (self.work / self.files[a]).read_text() + (self.work / self.files[b]).read_text()
        self.files[name] = f"{name}.ohg"
        (self.work / self.files[name]).write_text(text)
        self.inst[name] = truth.Instance.from_text(text)
        self.count[name] = self.count[a] * self.count[b]

    def vectors(self, name: str) -> None:
        m = self.names[name]
        src = self.checkout / "src" / "ohg" / "fixtures" / f"{name}.vec"
        lines = []
        for line in src.read_text().splitlines():
            v, _, comps = line.partition(":")
            if comps:
                lines.append(f"{m[v.strip()]}:{comps}")
        (self.work / f"{name}.vec").write_text("\n".join(lines) + "\n")

    def corner(self, name: str, corner: str) -> str:
        return self.names[name][corner]


def setup(workload: str, inputs: Inputs) -> None:
    if workload == "count":
        for f in truth.FIXTURE_COUNTS:
            inputs.gadget(f)
        for kind, g in (("layer", "bug"), ("layer", "fig4"), ("bind", "bug"), ("bind", "fig4")):
            inputs.compose(kind, g)
        inputs.scramble("bind_bug", SCRAMBLE_SEED)
    elif workload == "table":
        for f in ("pentagon", "bug", "g32", "fig4"):
            inputs.gadget(f)
        inputs.compose("bind", "bug")
        inputs.compose("bind", "fig4")
        inputs.vectors("pentagon")
    elif workload == "export":
        for f in ("bug", "fig4", "g32"):
            inputs.gadget(f)
        inputs.compose("layer", "bug")
        inputs.compose("bind", "g32")
        inputs.compose("bind", "bug")
        inputs.union("bind_g32", "bug")
    else:
        raise ValueError(f"unknown workload {workload!r}")


# -- checks ---------------------------------------------------------------------


def _expect_int(res: Result, value: int) -> Optional[str]:
    if res.returncode != 0:
        return res.describe()
    got = res.out().strip()
    return None if got == str(value) else f"printed {got[:60]!r}, expected {value}"


def _expect_lines(res: Result, code: int, check: Callable[[list[str]], Optional[str]]) -> Optional[str]:
    if res.returncode != code:
        return f"{res.describe()}, expected exit {code}"
    return check(res.out().splitlines())


def _count_cmd(inputs: Inputs, name: str) -> Cmd:
    return Cmd(f"states --count-only {name}", ["states", inputs.files[name], "--count-only"],
               name, lambda r: _expect_int(r, inputs.count[name]),
               small=inputs.inst[name].k <= SMALL_VERTICES)


def _classify_cmd(inputs: Inputs, name: str) -> Cmd:
    inst = inputs.inst[name]

    def check(lines):
        want = truth.classify_lines(inst, truth.chromatic_number(inst))
        return None if lines == want else f"printed {lines}, expected {want}"
    return Cmd(f"classify {name}", ["classify", inputs.files[name]], name,
               lambda r: _expect_lines(r, 0, check), small=True)


def _classify_bind_bug(inputs: Inputs) -> Cmd:
    a, b = inputs.corner("bind_bug", "a"), inputs.corner("bind_bug", "b")
    # The layer corners a, b are non-adjacent and never jointly true, and
    # every earlier column pair is separated in all three ways.
    want = [f"nTS: {truth.BIND_BUG_COUNT}", "unital: yes", "separable: yes",
            "perfectly-separable: no", f"witness: pair ({a}, {b}) misses condition 3"]
    # chi = 3 (see the colour check), so semi-perfect is "yes"; the seed
    # program cannot decide it above 64 vertices and says so.
    semi = ("semi-perfect: yes", "semi-perfect: unknown (size limit)")

    def check(lines):
        ok = lines[:-1] == want and lines[-1:] and lines[-1] in semi
        return None if ok else f"printed {lines}"
    return Cmd("classify bind_bug", ["classify", inputs.files["bind_bug"]], "bind_bug",
               lambda r: _expect_lines(r, 0, check))


def _reconstruct_cmd(inputs: Inputs, name: str, want=None) -> Cmd:
    inst = inputs.inst[name]

    def check_output(res):
        verdict, extra, missing = want() if want else truth.reconstruction(inst)
        code = 0 if verdict == "reconstructable" else 1
        got = truth.parse_reconstruct(res.out())
        if res.returncode != code:
            return f"{res.describe()}, expected exit {code}"
        return None if got == (verdict, extra, missing) else f"printed {got}, expected {(verdict, extra, missing)}"
    return Cmd(f"reconstruct {name}", ["reconstruct", inputs.files[name]], name,
               check_output, small=inst.k <= SMALL_VERTICES)


def _color_cmd(inputs: Inputs, name: str, n: int = 3, exists: Optional[bool] = None) -> Cmd:
    inst = inputs.inst[name]

    def check_output(res):
        ok = exists if exists is not None else truth.colorable(inst, n)
        if not ok:
            return _expect_lines(res, 1, lambda lines: None if lines == [
                f"no {n}-coloring from two-valued states"] else f"printed {lines}")
        if res.returncode != 0:
            return f"{res.describe()}, expected a {n}-colouring"
        return truth.check_coloring(inst, res.out(), n)
    return Cmd(f"color --n {n} {name}", ["color", inputs.files[name], "--n", str(n)], name,
               check_output, small=inst.k <= SMALL_VERTICES)


def _chroma_cmd(inputs: Inputs, name: str) -> Cmd:
    inst = inputs.inst[name]
    return Cmd(f"chroma {name}", ["chroma", inputs.files[name]], name,
               lambda r: _expect_int(r, truth.chromatic_number(inst)), small=True)


def _verify_for_cmd(inputs: Inputs, name: str) -> Cmd:
    inst = inputs.inst[name]
    vec = f"{name}.vec"

    def check_output(res):
        vectors = {}
        for line in (inputs.work / vec).read_text().splitlines():
            v, _, comps = line.partition(":")
            vectors[v.strip()] = [float(c) for c in comps.split()]
        if truth.labeling_is_faithful(inst, vectors):
            return _expect_lines(res, 0, lambda lines: None if lines == [
                "valid faithful orthogonal representation"] else f"printed {lines}")
        return None if res.returncode == 1 else f"{res.describe()}, expected a rejection"
    return Cmd(f"verify-for {name}", ["verify-for", inputs.files[name], vec], name,
               check_output, small=True)


def _out_cmd(inputs: Inputs, name: str, sha: Optional[str]) -> Cmd:
    inst = inputs.inst[name]
    mat = f"{name}.mat"

    def check_output(res):
        bad = _expect_int(res, inputs.count[name])
        return bad or truth.check_matrix_file(inputs.work / mat, inst, inputs.count[name], sha)
    return Cmd(f"states --out {name}", ["states", inputs.files[name], "--out", mat], name,
               check_output, small=inst.k <= SMALL_VERTICES)


def _json_cmd(inputs: Inputs, name: str, sha: Optional[str]) -> Cmd:
    inst = inputs.inst[name]

    def check_output(res):
        if res.returncode != 0:
            return res.describe()
        doc = json.loads(res.out())
        if doc.get("vertices") != inst.vertices or doc.get("nTS") != inputs.count[name]:
            return "JSON vertices or nTS differ from the input"
        return truth.check_json_rows(doc.get("rows", []), inst, inputs.count[name], sha)
    return Cmd(f"states --format json {name}", ["states", inputs.files[name], "--format", "json"],
               name, check_output, small=inst.k <= SMALL_VERTICES)


def _travis_cmd(inputs: Inputs, name: str) -> Cmd:
    inst = truth.Instance.from_text(inputs.raw[name])  # the catalogue's own names
    return Cmd(f"gadget --travis {name}", ["gadget", name, "--travis"], name,
               lambda r: r.describe() if r.returncode else truth.check_matrix_file(
                   r.stdout, inst, truth.FIXTURE_COUNTS[name], truth.BUG_TRAVIS_SHA256,
                   canonical=False),
               small=True)


def commands(workload: str, inputs: Inputs) -> list[Cmd]:
    if workload == "count":
        cmds = [_count_cmd(inputs, f) for f in truth.FIXTURE_COUNTS]
        cmds += [_count_cmd(inputs, n) for n in ("layer_bug", "layer_fig4", "bind_bug")]
        cmds.append(_count_cmd(inputs, f"bind_bug_s{SCRAMBLE_SEED}"))
        na, nb, nn = truth.PROFILES["fig4"][1]
        value = truth.bind_count(na, nb, nn)
        cmds.append(Cmd("count fig4 profile", ["count", "--na", str(na), "--nb", str(nb),
                                               "--nn", str(nn)], "",
                        lambda r: _expect_int(r, value), small=True))
        return cmds
    if workload == "table":
        cmds = []
        for f in ("pentagon", "bug", "g32", "fig4"):
            cmds += [_classify_cmd(inputs, f), _reconstruct_cmd(inputs, f),
                     _color_cmd(inputs, f), _chroma_cmd(inputs, f)]
        cmds.append(_verify_for_cmd(inputs, "pentagon"))
        corners = {frozenset(inputs.corner("bind_bug", c) for c in triple)
                   for triple in (("a", "b", "c"), ("a'", "b'", "c'"), ("a''", "b''", "c''"))}
        cmds += [_classify_bind_bug(inputs),
                 _reconstruct_cmd(inputs, "bind_bug", lambda: ("extra-structure", corners, set())),
                 _color_cmd(inputs, "bind_bug", exists=True)]
        return cmds
    if workload == "export":
        sha = truth.ROW_SHA256
        return [_out_cmd(inputs, "fig4", sha["fig4"]),
                _json_cmd(inputs, "fig4", sha["fig4"]),
                _out_cmd(inputs, "layer_bug", sha["layer_bug"]),
                _json_cmd(inputs, "layer_bug", sha["layer_bug"]),
                _travis_cmd(inputs, "bug"),
                _out_cmd(inputs, "bind_g32", sha["bind_g32"]),
                _out_cmd(inputs, "bind_g32+bug", sha["bind_g32+bug"])]
    raise ValueError(f"unknown workload {workload!r}")


def probes(workload: str, inputs: Inputs) -> list[Probe]:
    if workload == "count":
        c = _count_cmd(inputs, "bind_fig4")
        return [Probe(c.label, c.args, c.instance, c.check, cpu_s=5, timeout_s=30,
                      defect="the counter has no component cache: ~55 s serial")]
    if workload == "table":
        bind_bug = inputs.files["bind_bug"]
        inst = inputs.inst["bind_bug"]

        def classify_fig4(res):
            return _expect_lines(res, 0, lambda lines: None if lines[:1] == [
                f"nTS: {truth.BIND_FIG4_COUNT}"] else f"printed {lines[:1]}")
        return [
            Probe("classify bind_fig4", ["classify", inputs.files["bind_fig4"]], "bind_fig4",
                  classify_fig4, defect="materialises ~5.9e23 rows: MemoryError under the cap"),
            Probe("chroma bind_bug", ["chroma", bind_bug], "bind_bug",
                  lambda r: _expect_int(r, 3), defect="exact search refuses >64 vertices (exit 2)"),
            Probe("color --algorithm exact bind_bug",
                  ["color", bind_bug, "--n", "3", "--algorithm", "exact"], "bind_bug",
                  lambda r: r.describe() if r.returncode else truth.check_coloring(inst, r.out(), 3),
                  defect="exact search refuses >64 vertices (exit 2)"),
        ]
    if workload == "export":
        c = _out_cmd(inputs, "bind_bug", None)
        return [Probe(c.label, c.args, c.instance, c.check, cpu_s=10, timeout_s=40,
                      defect="write_matrix builds the whole 484 MB text: ~70 s, 1.7 GB")]
    raise ValueError(f"unknown workload {workload!r}")


# Known-defect commands left out of every run, with the reason.
EXCLUDED = {
    "table": [{"command": "color --algorithm relaxed bind_bug",
               "reason": "MemoryError only after ~56 s at a 4 GB cap; does not fit a run"}],
}


def selftest_commands(inputs: Inputs) -> tuple[list[Cmd], list[Probe]]:
    """Every kind of check on small inputs, plus one command whose expected
    value is wrong on purpose and must be counted as failed."""
    cmds = [_count_cmd(inputs, f) for f in ("k3", "bug", "g32")]
    wrong = _count_cmd(inputs, "k3")
    cmds.append(Cmd("wrong: states --count-only k3 expecting 4", wrong.args, "k3",
                    lambda r: _expect_int(r, truth.FIXTURE_COUNTS["k3"] + 1), small=True))
    for f in ("pentagon", "bug", "g32"):
        cmds += [_classify_cmd(inputs, f), _reconstruct_cmd(inputs, f),
                 _color_cmd(inputs, f), _chroma_cmd(inputs, f)]
    cmds += [_verify_for_cmd(inputs, "pentagon"),
             _out_cmd(inputs, "fig4", truth.ROW_SHA256["fig4"]),
             _json_cmd(inputs, "layer_bug", truth.ROW_SHA256["layer_bug"]),
             _travis_cmd(inputs, "bug")]
    bind_bug = inputs.files["bind_bug"]
    probes = [Probe("chroma bind_bug", ["chroma", bind_bug], "bind_bug",
                    lambda r: _expect_int(r, 3), defect="exact search refuses >64 vertices")]
    return cmds, probes
