"""Traced replay of one ``ohg`` command, in-process.

Usage: python3 replay.py SPANS_JSON CMD_ID -- OHG_ARGS...

Wraps every package function the subcommands call, and the functions they
call across layers, then runs the command through ``ohg.cli.main``. Each
call records a span (name, start, end, parent span, command id, error, size
annotations) in memory. The spans and the time taken by ``import ohg`` are
written to SPANS_JSON when the command ends, also when it fails or runs out
of its CPU budget. Standard output is the command's own.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import ohg.cli  # noqa: E402
from ohg import coloring, core, formats, gadgets, geometry, reconstruction, states  # noqa: E402

IMPORT_S = time.perf_counter() - T0

# (module, attribute, span name, annotate(result, args) -> dict)
TARGETS = [
    (formats, "parse_ohg", "formats.parse_ohg", None),
    (formats, "parse_vectors", "formats.parse_vectors", None),
    (formats, "write_ohg", "formats.write_ohg", None),
    (formats, "write_matrix", "formats.write_matrix", lambda r, a: {"bytes": len(r)}),
    (gadgets, "fixture", "gadgets.fixture", None),
    (gadgets, "layer", "gadgets.layer", None),
    (gadgets, "bind", "gadgets.bind", None),
    (gadgets, "predicted_bind_count", "gadgets.predicted_bind_count", None),
    (states, "count_states", "states.count_states", None),
    (states, "enumerate_states", "states.enumerate_states",
     lambda t, a: {"rows": t.n_rows, "cols": t.n_cols}),
    (states, "classify", "states.classify", None),
    (core, "shape", "core.shape", None),
    (core, "maximal_cliques", "core.maximal_cliques", None),
    (core, "is_isomorphic", "core.is_isomorphic", None),
    (reconstruction, "evaluate", "reconstruction.evaluate", None),
    (reconstruction, "reconstruct", "reconstruction.reconstruct", None),
    (reconstruction, "adjacency_from_states", "reconstruction.adjacency_from_states", None),
    (coloring, "algorithm1", "coloring.algorithm1", None),
    (coloring, "exact_chromatic", "coloring.exact_chromatic", None),
    (coloring, "exact_coloring", "coloring.exact_coloring", None),
    (coloring, "relaxed_coloring", "coloring.relaxed_coloring", None),
    (coloring, "partition_from_rows", "coloring.partition_from_rows", None),
    (coloring, "coloring_from_partition", "coloring.coloring_from_partition", None),
    (coloring, "brooks_bound", "coloring.brooks_bound", None),
    (geometry, "verify_for", "geometry.verify_for", None),
]


class BudgetExceeded(Exception):
    pass


class Tracer:
    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, fn, name, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self.stack[-1] if self.stack else None, "cmd": self.cmd_id}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if annotate:
                    span.update(annotate(result, args))
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
        return traced

    def install(self) -> None:
        """Replace each target wherever the package bound it by name."""
        modules = [m for n, m in sys.modules.items() if n == "ohg" or n.startswith("ohg.")]
        for mod, attr, name, annotate in TARGETS:
            original = getattr(mod, attr)
            traced = self.wrap(original, name, annotate)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
        post_init = gadgets.BindSpec.__post_init__
        gadgets.BindSpec.__post_init__ = self.wrap(post_init, "gadgets.bindspec")
        cooc = states.TravisMatrix.__dict__["cooc"]
        traced_cooc = functools.cached_property(self.wrap(
            cooc.func, "states.cooc", lambda c, a: {"rows": a[0].n_rows, "cols": a[0].n_cols}))
        traced_cooc.__set_name__(states.TravisMatrix, "cooc")
        states.TravisMatrix.cooc = traced_cooc


def _on_cpu_budget(signum, frame):
    raise BudgetExceeded("CPU budget exhausted")


def main() -> int:
    spans_path, cmd_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: replay.py SPANS_JSON CMD_ID -- OHG_ARGS...")
    tracer = Tracer(int(cmd_id))
    tracer.install()
    signal.signal(signal.SIGXCPU, _on_cpu_budget)
    code = 3
    try:
        code = ohg.cli.main(argv)
    except BudgetExceeded:
        print("error: CPU budget exhausted", file=sys.stderr)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as f:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
