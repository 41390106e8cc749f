"""Run CLI invocations as fresh processes and measure each one.

Wall time is taken around the process's whole life, import included.  CPU
time and peak RSS come from ``os.wait4`` on the CLI process: on Linux the
usage it returns includes every child the process waited for, so the
``--jobs`` pool workers are counted too.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Invocation

# Longest any single invocation may run; a run must end within 180 s.
TIMEOUT_S = 150.0


@dataclass(frozen=True)
class ProcResult:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit: int | None  # None when the process was killed at the timeout
    stdout: bytes
    stderr: bytes


def child_env(root: Path, extra: tuple[tuple[str, str], ...] = ()) -> dict[str, str]:
    """Environment for a CLI process: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The Q/Z report prints non-ASCII text; pin the encoding so a stray
    # locale cannot turn it into a failure.
    env["PYTHONIOENCODING"] = "utf-8"
    env.update(extra)
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict[str, str], cwd: Path, scratch: Path,
          timeout: float = TIMEOUT_S) -> ProcResult:
    """Run one process to completion; kill it if it outlives ``timeout``."""
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=cwd)
        # os.kill rather than proc.kill: Popen's own kill polls, and could
        # reap the child before wait4 collects its usage.
        timer = threading.Timer(timeout, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ProcResult(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024,
            exit=None if wall >= timeout else proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
        )


def run_cli(inv: Invocation, root: Path, scratch: Path) -> ProcResult:
    """One invocation as ``python -m morphring ...``."""
    return spawn([sys.executable, "-m", "morphring", *inv.argv],
                 child_env(root, inv.env), root, scratch)


def setup_time(root: Path, scratch: Path) -> ProcResult:
    """A fresh interpreter that imports the CLI module and exits."""
    return spawn([sys.executable, "-c", "import morphring.cli"],
                 child_env(root), root, scratch)
