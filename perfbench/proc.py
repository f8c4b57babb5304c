"""Child processes with per-child resource accounting and budgets.

Each command runs in its own session so that a timeout can kill it together
with any worker processes it forked. Peak RSS and CPU time come from
``os.wait4`` on that child alone; ``RUSAGE_CHILDREN`` would report the
running maximum over every child the benchmark ever had.
"""

from __future__ import annotations

import ctypes
import os
import resource
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned grandchildren (e.g. pool workers of a killed command)
    so that they can be reaped here. Linux only; harmless elsewhere."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


@dataclass
class Result:
    returncode: int  # negative: killed by that signal
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool
    stdout: Path
    stderr: Path

    def out(self) -> str:
        return self.stdout.read_text(errors="replace")

    def err(self) -> str:
        return self.stderr.read_text(errors="replace")

    def describe(self) -> str:
        if self.timed_out:
            return f"killed after the {self.wall_s:.1f} s wall budget"
        if self.returncode < 0:
            name = signal.Signals(-self.returncode).name
            return f"killed by {name}" + (" (CPU budget)" if name == "SIGXCPU" else "")
        tail = self.err().strip().splitlines()
        return f"exit {self.returncode}" + (f": {tail[-1][:160]}" if tail else "")


def _limits(mem_mb: int | None, cpu_s: int | None):
    def apply() -> None:
        if mem_mb:
            cap = mem_mb * 2 ** 20
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        if cpu_s:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 2))
    return apply


def _reap_group(pgid: int) -> None:
    """Kill what is left of the child's process group and reap adopted
    orphans until none remain."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def run(argv: list[str], *, cwd: Path, env: dict, out: Path, timeout_s: float,
        mem_mb: int | None = None, cpu_s: int | None = None) -> Result:
    """Run ``argv`` to completion or budget exhaustion; stdout and stderr go
    to ``out`` and ``out.err``."""
    err = out.with_name(out.name + ".err")
    killed = threading.Event()
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe, start_new_session=True,
                                preexec_fn=_limits(mem_mb, cpu_s))

        def kill() -> None:
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return Result(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                  ru.ru_maxrss / 1024, killed.is_set(), out, err)
