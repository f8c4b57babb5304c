"""Benchmark of the ``ohg`` pipeline: count, tabulate, export.

    python3 perfbench/run.py --workload count|table|export --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout; the program under test is the
``src/ohg`` package next to this directory. The benchmark is one closed-loop
client: it runs ``python -m ohg`` subcommands one at a time as child
processes and checks every answer against ground truth computed without
``ohg`` (see ``truth.py``).

``--trace 0`` alternates three generations of the inputs (``setup_s`` is
their median) with passes over the workload's command list, until the
passes have taken ``--seconds``; the workload's probes run once, after the
first pass. It prints the end-to-end metrics. ``--trace 1`` runs the
command list once untimed, then replays each command in-process with spans
around every layer boundary (``replay.py``) and prints the per-layer
metrics. The last line of standard output is the result object; the line
before it holds the run's metadata. Spans are written to
``perfbench/.work/<workload>/trace.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The program gets the caller's environment; the benchmark's own numpy (used
# to validate matrices) stays single-threaded so that forking children from
# this process is safe and it does not compete with the command under test.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

import proc  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("count", "table", "export")
SETUPS = 3  # set-up repetitions per timed run; setup_s is their median
COMMAND_TIMEOUT_S = 120
COMMAND_MEM_MB = 3072  # guard for the shared machine, far above any timed command
RUN_DEADLINE_S = 150  # traced runs end their budgeted measurements by about this
STARTUP_SAMPLES = 5

# The speed of a shared machine swings by up to 1.6x within seconds, so raw
# times spread by 0.1-0.38 (quartile distance over median) across ten runs,
# and no statistic taken inside one run removes that. Every time metric is
# therefore reported in seconds at a reference speed. Each timed command
# and set-up is bracketed by two runs of a reference job that runs no ohg
# code; its time is scaled by REF_WALL_S (REF_CPU_S for CPU time) over the
# mean of the two reference times. The job is an interpreter start with
# numpy's import plus a pure-Python loop, like the start-up and interpreted
# work every command does. A change to the program moves the metrics fully;
# the raw values are in the metadata.
REFERENCE = ["-c", "import numpy\nx = 0\nfor i in range(750_000):\n    x += i"]
REF_WALL_S = 0.25  # the reference's typical median wall time on a 2-core machine
REF_CPU_S = 0.35  # and its user+sys time (numpy's BLAS threads start up too)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "small_p50_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s", "fail_ratio": "ratio"}


class Bench:
    """Runs ``ohg`` commands inside one work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.out = work / "cmd.out"  # each answer is checked before the next command

    def ohg(self, args: list[str], *, mem_mb: int = COMMAND_MEM_MB, cpu_s: int | None = None,
            timeout_s: float = COMMAND_TIMEOUT_S) -> proc.Result:
        return proc.run([sys.executable, "-m", "ohg", *args], cwd=self.work, env=CHILD_ENV,
                        out=self.out, timeout_s=timeout_s, mem_mb=mem_mb, cpu_s=cpu_s)

    def reference(self) -> proc.Result:
        res = proc.run([sys.executable, *REFERENCE], cwd=self.work, env=CHILD_ENV,
                       out=self.out, timeout_s=COMMAND_TIMEOUT_S)
        if res.returncode != 0:
            raise workloads.SetupError(f"reference job: {res.describe()}")
        return res

    def replay(self, args: list[str], cmd_id: int, *, cpu_s: int | None = None,
               timeout_s: float = COMMAND_TIMEOUT_S) -> tuple[proc.Result, dict]:
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        res = proc.run([sys.executable, str(HERE / "replay.py"), str(spans), str(cmd_id), "--",
                        *args], cwd=self.work, env=CHILD_ENV, out=self.out,
                       timeout_s=timeout_s, mem_mb=COMMAND_MEM_MB, cpu_s=cpu_s)
        doc = json.loads(spans.read_text()) if spans.exists() else {"import_s": None, "spans": []}
        return res, doc

    def text(self, args: list[str]) -> str:
        res = self.ohg(args)
        if res.returncode != 0:
            raise workloads.SetupError(f"ohg {' '.join(args)}: {res.describe()}")
        return res.out()

    def setup(self, workload: str, seed: int) -> workloads.Inputs:
        inputs = workloads.Inputs(self.work, seed, self.text, ROOT)
        workloads.setup(workload, inputs)
        return inputs


def check(cmd: workloads.Cmd, res: proc.Result) -> str | None:
    """The command's verdict: ``None`` when its answer is right."""
    try:
        return cmd.check(res)
    except Exception as exc:  # a malformed answer must count, not crash the run
        return f"unreadable output ({type(exc).__name__}: {exc})"


def speed_scale(before: proc.Result, after: proc.Result) -> tuple[float, float]:
    """Factors that bring wall and CPU times measured between two runs of the
    reference job to the reference speed."""
    return (2 * REF_WALL_S / (before.wall_s + after.wall_s),
            2 * REF_CPU_S / (before.cpu_s + after.cpu_s))


def run_pass(bench: Bench, cmds: list[workloads.Cmd], *, timed: bool = False) -> list[dict]:
    """Run and check each command; ``timed`` brackets each one with runs of
    the reference job and records its ``scale`` to the reference speed."""
    out = []
    before = bench.reference() if timed else None
    for c in cmds:
        res = bench.ohg(c.args)
        rec = {"cmd": c, "res": res, "error": check(c, res)}
        if timed:
            after = bench.reference()
            rec["scale"], before = speed_scale(before, after), after
        out.append(rec)
    return out


def run_probes(bench: Bench, probes: list[workloads.Probe]) -> list[dict]:
    """Known-defect probes: ``failed`` is today's expected outcome, ``passed``
    a fixed defect, ``wrong`` a success with a wrong answer."""
    out = []
    for p in probes:
        res = bench.ohg(p.args, mem_mb=p.mem_mb, cpu_s=p.cpu_s, timeout_s=p.timeout_s)
        if res.returncode == 0 and not res.timed_out:
            err = check(p, res)
            outcome, detail = ("passed", None) if err is None else ("wrong", err)
        else:
            outcome, detail = "failed", res.describe()
        out.append({"label": p.label, "outcome": outcome, "detail": detail,
                    "defect": p.defect, "wall_s": round(res.wall_s, 3),
                    "peak_rss_mb": round(res.peak_rss_mb, 1)})
    return out


def fail_ratio(passes: list[list[dict]], probe_log: list[dict]) -> float:
    """Share of one pass plus the probes that failed, was refused or was
    wrong; the worst pass counts."""
    probe_fail = sum(p["outcome"] != "passed" for p in probe_log)
    return max((sum(r["error"] is not None for r in rec) + probe_fail) / (len(rec) + len(probe_log))
               for rec in passes)


def input_hashes(inputs: workloads.Inputs) -> dict[str, str]:
    files = sorted(inputs.work.glob("*.ohg")) + sorted(inputs.work.glob("*.vec"))
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()[:16] for f in files}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def errors_of(passes: list[list[dict]]) -> list[str]:
    return sorted({f"{r['cmd'].label}: {r['error']}" for rec in passes for r in rec if r["error"]})


# -- untraced run -----------------------------------------------------------------


def timed_run(bench: Bench, workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    # Set-ups and passes alternate, and the probes sit after the first pass,
    # so that set-ups and passes sample the whole run. Every set-up writes
    # the same files; the commands keep the first one's ground truth.
    setup_raw: list[float] = []
    setup_times: list[float] = []
    passes: list[list[dict]] = []
    pass_s = 0.0
    while len(setup_times) < SETUPS or pass_s < seconds:
        if len(setup_times) < SETUPS:
            before = bench.reference()
            t0 = time.perf_counter()
            again = bench.setup(workload, seed)
            setup_raw.append(time.perf_counter() - t0)
            setup_times.append(setup_raw[-1] * speed_scale(before, bench.reference())[0])
            if not passes:
                inputs, cmds = again, workloads.commands(workload, again)
            elif input_hashes(again) != input_hashes(inputs):
                raise workloads.SetupError("the same seed generated different inputs")
        if pass_s < seconds:
            t0 = time.perf_counter()
            passes.append(run_pass(bench, cmds, timed=True))
            pass_s += time.perf_counter() - t0
            if len(passes) == 1:
                probe_log = run_probes(bench, workloads.probes(workload, inputs))

    records = [r for rec in passes for r in rec]
    small = [r for r in records if r["cmd"].small]
    metrics = {
        "wall_s": statistics.median(sum(r["res"].wall_s * r["scale"][0] for r in rec)
                                    for rec in passes),
        "cpu_s": statistics.median(sum(r["res"].cpu_s * r["scale"][1] for r in rec)
                                   for rec in passes),
        "small_p50_s": statistics.median(r["res"].wall_s * r["scale"][0] for r in small),
        "peak_rss_mb": max(r["res"].peak_rss_mb for r in records),
        "setup_s": statistics.median(setup_times),
        "fail_ratio": fail_ratio(passes, probe_log),
    }
    raw = {
        "wall_s": statistics.median(sum(r["res"].wall_s for r in rec) for rec in passes),
        "cpu_s": statistics.median(sum(r["res"].cpu_s for r in rec) for rec in passes),
        "small_p50_s": statistics.median(r["res"].wall_s for r in small),
        "setup_s": statistics.median(setup_raw),
    }
    failed = sum(r["error"] is not None for r in records)
    correct = failed == 0 and not any(p["outcome"] == "wrong" for p in probe_log)
    meta = {
        "raw": raw, "wall_scale_median": statistics.median(r["scale"][0] for r in records),
        "passes": len(passes), "commands_per_pass": len(cmds), "small_samples": len(small),
        "pass_wall_s": [round(sum(r["res"].wall_s for r in rec), 4) for rec in passes],
        "setup_s_samples": [round(t, 4) for t in setup_raw],
        "per_command_median_s": {c.label: round(statistics.median(
            rec[i]["res"].wall_s for rec in passes), 4) for i, c in enumerate(cmds)},
        "errors": errors_of(passes), "probes": probe_log,
        "excluded": workloads.EXCLUDED.get(workload, []),
        "inputs": input_hashes(inputs),
    }
    line = result_line(correct, len(records), failed,
                       {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()})
    return meta, line


# -- traced run -------------------------------------------------------------------


def _durations(spans: list[dict]) -> tuple[list[float], list[float], float]:
    """Per-span duration, per-span self time, and the top-level span sum."""
    dur = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            covered[s["parent"]] += dur[i]
    top = sum(d for s, d in zip(spans, dur) if s["parent"] is None)
    return dur, [d - c for d, c in zip(dur, covered)], top


LAYERS = ("cli", "formats", "gadgets", "states", "core", "reconstruction", "coloring", "geometry")
SPAN_METRICS = {  # per-layer metric -> span name whose durations it sums
    "formats.parse_ohg_s": "formats.parse_ohg",
    "formats.write_matrix_s": "formats.write_matrix",
    "gadgets.bindspec_s": "gadgets.bindspec",
    "gadgets.layer_s": "gadgets.layer",
    "gadgets.bind_s": "gadgets.bind",
    "states.enumerate_s": "states.enumerate_states",
    "states.cooc_s": "states.cooc",
    "states.classify_s": "states.classify",
    "core.shape_s": "core.shape",
    "core.maximal_cliques_s": "core.maximal_cliques",
    "core.is_isomorphic_s": "core.is_isomorphic",
    "reconstruction.adjacency_s": "reconstruction.adjacency_from_states",
    "reconstruction.reconstruct_s": "reconstruction.reconstruct",
    "coloring.algorithm1_s": "coloring.algorithm1",
    "coloring.exact_chromatic_s": "coloring.exact_chromatic",
    "geometry.verify_for_s": "geometry.verify_for",
}


class Totals:
    """Per-layer sums over the replayed commands of one traced run."""

    def __init__(self):
        self.named = dict.fromkeys(SPAN_METRICS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.count_s: dict[str, float] = {}
        self.cli_self: dict[str, float] = {}
        self.rows = self.matrix_bytes = 0
        self.cooc_gflop = self.cooc_mb = 0.0

    def add(self, label: str, instance: str, wall_s: float, spans: list[dict]) -> None:
        dur, self_t, top = _durations(spans)
        self.cli_self[label] = wall_s - top
        self.self_s["cli"] += wall_s - top
        for s, d, st in zip(spans, dur, self_t):
            self.self_s[s["name"].split(".")[0]] += st
            if s["name"] == "states.count_states":
                self.count_s[instance] = self.count_s.get(instance, 0.0) + d
            elif s["name"] == "states.enumerate_states":
                self.rows += s.get("rows", 0)
            elif s["name"] == "states.cooc" and "rows" in s:
                self.cooc_gflop += 2 * s["rows"] * s["cols"] ** 2 / 1e9
                self.cooc_mb += 4 * s["rows"] * s["cols"] / 1e6
            elif s["name"] == "formats.write_matrix":
                self.matrix_bytes += s.get("bytes", 0)
        for key, name in SPAN_METRICS.items():
            self.named[key] += sum(d for s, d in zip(spans, dur) if s["name"] == name)


def _budgeted_count(bench: Bench, args: list[str], cmd_id: int, budget_s: float,
                    all_spans: list) -> tuple[float, bool]:
    """Time of one count_states call under a CPU and wall budget; on
    exhaustion the elapsed time, a lower bound, and ``True``."""
    budget = max(1, int(budget_s))
    res, doc = bench.replay(args, cmd_id, cpu_s=budget, timeout_s=budget + 10)
    all_spans.extend(doc["spans"])
    spans = [s for s in doc["spans"] if s["name"] == "states.count_states"]
    if res.returncode == 0 and spans and "error" not in spans[0]:
        return spans[0]["end"] - spans[0]["start"], False
    return res.wall_s, True


def traced_run(bench: Bench, workload: str, seed: int) -> tuple[dict, str]:
    t_start = time.perf_counter()
    inputs = bench.setup(workload, seed)
    cmds = workloads.commands(workload, inputs)
    untraced = run_pass(bench, cmds)

    all_spans: list[dict] = []
    errors = []
    # Set-up commands are replayed for the gadgets layer only; their output
    # must match the untraced set-up byte for byte.
    setup = Totals()
    for cid, (args, want) in enumerate(inputs.setup_log):
        res, doc = bench.replay(args, cid)
        all_spans.extend(doc["spans"])
        setup.add(" ".join(args), "", res.wall_s, doc["spans"])
        if res.returncode != 0 or res.out() != want:
            errors.append(f"replay of ohg {' '.join(args)}: {res.describe()}, output differs")
    cid = len(inputs.setup_log)
    totals = Totals()
    traced, imports = [], []
    for c in cmds:
        res, doc = bench.replay(c.args, cid)
        cid += 1
        all_spans.extend(doc["spans"])
        traced.append({"cmd": c, "res": res, "error": check(c, res)})
        totals.add(c.label, c.instance, res.wall_s, doc["spans"])
        if doc["import_s"] is not None:
            imports.append(doc["import_s"])

    budget_exceeded = 0
    fig4_serial = fig4_jobs2 = 0.0
    if workload == "count":
        fig4 = ["states", inputs.files["bind_fig4"], "--count-only"]
        remaining = RUN_DEADLINE_S - (time.perf_counter() - t_start)
        fig4_serial, over = _budgeted_count(bench, fig4, cid, min(80, remaining - 55), all_spans)
        budget_exceeded += over
        remaining = RUN_DEADLINE_S - (time.perf_counter() - t_start)
        jobs = str(min(2, os.cpu_count() or 1))
        fig4_jobs2, over = _budgeted_count(bench, fig4 + ["--jobs", jobs], cid + 1,
                                           min(50, remaining - 15), all_spans)
        budget_exceeded += over
    startup = [bench.ohg(["count", "--na", "1", "--nb", "1", "--nn", "1"]).wall_s
               for _ in range(STARTUP_SAMPLES)]

    untraced_wall = sum(r["res"].wall_s for r in untraced)
    traced_wall = sum(r["res"].wall_s for r in traced)
    named = totals.named
    write_s, matrix_mb = named["formats.write_matrix_s"], totals.matrix_bytes / 1e6
    per_layer = {
        "cli.startup_s": (statistics.median(startup), "s"),
        "cli.import_s": (statistics.median(imports) if imports else 0.0, "s"),
        "cli.self_s": (totals.self_s["cli"], "s"),
        "formats.parse_ohg_s": (named["formats.parse_ohg_s"], "s"),
        "formats.write_matrix_s": (write_s, "s"),
        "formats.matrix_mb": (matrix_mb, "MB"),
        "formats.write_mb_per_s": (matrix_mb / write_s if write_s else 0.0, "MB/s"),
    }
    for key in ("gadgets.bindspec_s", "gadgets.layer_s", "gadgets.bind_s"):
        per_layer[key] = (setup.named[key], "s")
    per_layer.update({
        "states.count_s.bind_fig4": (fig4_serial, "s"),
        "states.count_s.layer_fig4": (totals.count_s.get("layer_fig4", 0.0), "s"),
        "states.count_s.bind_bug": (totals.count_s.get("bind_bug", 0.0), "s"),
        "states.count_s.bind_bug_scrambled": (
            totals.count_s.get(f"bind_bug_s{workloads.SCRAMBLE_SEED}", 0.0), "s"),
        "states.count_jobs2_s": (fig4_jobs2, "s"),
        "states.parallel_speedup": (fig4_serial / fig4_jobs2 if fig4_jobs2 else 0.0, "x"),
        "states.enumerate_s": (named["states.enumerate_s"], "s"),
        "states.rows": (totals.rows, "count"),
        "states.cooc_s": (named["states.cooc_s"], "s"),
        "states.cooc_gflop": (totals.cooc_gflop, "GFLOP"),
        "states.cooc_mb": (totals.cooc_mb, "MB"),
    })
    for key in ("states.classify_s", "core.shape_s", "core.maximal_cliques_s",
                "core.is_isomorphic_s", "reconstruction.adjacency_s",
                "reconstruction.reconstruct_s", "coloring.algorithm1_s",
                "coloring.exact_chromatic_s", "geometry.verify_for_s"):
        per_layer[key] = (named[key], "s")
    for layer in LAYERS:
        per_layer[f"self_s.{layer}"] = (totals.self_s[layer], "s")
    per_layer.update({
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.span_share": ((traced_wall - totals.self_s["cli"]) / untraced_wall, "ratio"),
        "trace.budget_exceeded": (budget_exceeded, "count"),
    })

    (bench.work / "trace.json").write_text(json.dumps({"workload": workload, "seed": seed,
                                                        "spans": all_spans}))
    records = untraced + traced
    errors += errors_of([records])
    meta = {"commands": len(cmds), "errors": errors, "inputs": input_hashes(inputs),
            "cli_self_s": {k: round(v, 4) for k, v in totals.cli_self.items()},
            "ratio_bases": {
                "states.parallel_speedup": "states.count_s.bind_fig4 / states.count_jobs2_s",
                "trace.span_share": "span time of the traced pass / trace.untraced_wall_s",
                "formats.write_mb_per_s": "formats.matrix_mb / formats.write_matrix_s",
                "states.cooc_gflop": "2 * rows * cols^2 per cooc call (float32 matmul)",
                "states.cooc_mb": "4 * rows * cols per cooc call (float32 bit matrix)"},
            "budget_exceeded_means": "a bind_fig4 count value is its budget, a lower bound"}
    line = result_line(not errors, len(records), sum(r["error"] is not None for r in records),
                       {k: metric(v, u) for k, (v, u) in per_layer.items()})
    return meta, line


# -- self-test ----------------------------------------------------------------------


def selftest() -> int:
    """Checks of the checks, in seconds, over the small fixtures only."""
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    expect(truth.bind_count(3, 3, 8) == truth.BIND_BUG_COUNT, "bind(bug) closed form")
    expect(truth.layer_count(45, 504, 2040) == truth.LAYER_FIG4_COUNT, "layer(fig4) closed form")
    expect(truth.bind_count(45, 504, 2040) == truth.BIND_FIG4_COUNT, "bind(fig4) closed form")

    work = fresh_work("selftest")
    bench = Bench(work)
    inputs = bench.setup("export", 7)  # holds every gadget of truth.PROFILES
    for name, (pair, profile) in truth.PROFILES.items():
        inst = inputs.inst[name]
        expect(len(inst.states) == truth.FIXTURE_COUNTS[name], f"{name}: pinned count")
        h, t = (inst.bit(inputs.names[name][v]) for v in pair)
        got = (sum(bool(s & h) for s in inst.states), sum(bool(s & t) for s in inst.states),
               sum(not s & (h | t) for s in inst.states))
        expect(got == profile and not any(s & h and s & t for s in inst.states),
               f"{name}: pinned profile {profile}")
    for name in ("fig4", "layer_bug", "bind_g32"):
        inst = inputs.inst[name]
        expect(truth.rows_sha256(inst.states, inst.k) == truth.ROW_SHA256[name],
               f"{name}: pinned row digest")
    g32, bug = inputs.inst["bind_g32"], inputs.inst["bug"]
    union = sorted(((a << bug.k) | b for a in g32.states for b in bug.states), reverse=True)
    expect(truth.rows_sha256(union, g32.k + bug.k) == truth.ROW_SHA256["bind_g32+bug"],
           "bind_g32+bug: pinned row digest")
    bug_mat = ROOT / "src" / "ohg" / "fixtures" / "bug.mat"
    digits = [line.split() for line in bug_mat.read_text().splitlines()[1:] if line.strip()]
    expect(hashlib.sha256("".join("".join(d) + "\n" for d in digits).encode()).hexdigest()
           == truth.BUG_TRAVIS_SHA256, "bug reference table: pinned row digest")

    # Every check and the failure accounting, on the small inputs.
    for f in ("k3", "pentagon"):
        inputs.gadget(f)
    inputs.vectors("pentagon")
    cmds, probes = workloads.selftest_commands(inputs)
    rec = run_pass(bench, cmds)
    for r in rec:
        wrong_on_purpose = r["cmd"].label.startswith("wrong:")
        expect((r["error"] is not None) == wrong_on_purpose,
               f"{r['cmd'].label}: " + (r["error"] or "correct"))
    probe_log = run_probes(bench, probes)
    for p in probe_log:
        expect(p["outcome"] == "failed", f"probe {p['label']}: counted as failed ({p['detail']})")
    want = (1 + len(probe_log)) / (len(cmds) + len(probe_log))
    expect(abs(fail_ratio([rec], probe_log) - want) < 1e-12,
           f"fail_ratio counts the wrong answer and the probes ({want:.3f})")
    shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


# -- entry point ----------------------------------------------------------------------


def fresh_work(name: str) -> Path:
    work = HERE / ".work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="quick check of the checks")
    args = ap.parse_args()
    if not (ROOT / "src" / "ohg" / "cli.py").is_file():
        print(f"perfbench: no ohg source tree at {ROOT / 'src' / 'ohg'}", file=sys.stderr)
        return 2
    proc.become_subreaper()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    work = fresh_work(args.workload)
    bench = Bench(work)
    try:
        if args.trace:
            meta, line = traced_run(bench, args.workload, args.seed)
        else:
            meta, line = timed_run(bench, args.workload, args.seed, args.seconds)
    except workloads.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for f in work.glob("*.mat"):
            f.unlink()
    meta.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "python": platform.python_version(),
                 "numpy": numpy.__version__, "nproc": os.cpu_count()})
    print(json.dumps({"meta": meta}))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
