"""Children of the bench: spawned one at a time from a small launcher process.

Linux folds a process's high-water RSS into its child's ``ru_maxrss`` at
``exec``.  If the bench spawned ``gsets`` itself, every child would report
at least the bench's own peak, which is larger than a small ``gsets`` call.
So the bench starts this file as a launcher that never grows, sends it one
JSON request per child on stdin, and reads one JSON reply per child: exit
code, wall time from spawn until exit, the child's own ``ru_maxrss`` (from
``os.wait4``) and whether it timed out.  The child's stdout and stderr go to
files, so the launcher never holds output either.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CALL_TIMEOUT_S = 60.0
BASELINE_REPEATS = 7


def _run_child(argv: list[str], cwd: str, out: str, err: str, timeout: float) -> dict:
    """Spawn, wait, and reap one child; time it from spawn until it has exited."""
    with open(out, "wb") as out_f, open(err, "wb") as err_f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out_f, stderr=err_f)
    pidfd = os.pidfd_open(proc.pid)
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            proc.kill()
    finally:
        os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss, "timed_out": timed_out}


def _serve() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_run_child(**json.loads(line))) + "\n")
        sys.stdout.flush()


class Result:
    """What one child did; its output is read back from the files on demand."""

    def __init__(self, reply: dict, stdout_path: Path, stderr_path: Path):
        self.code: int = reply["code"]
        self.seconds: float = reply["seconds"]
        self.maxrss_kb: int = reply["maxrss_kb"]
        self.timed_out: bool = reply["timed_out"]
        self.stdout_path = stdout_path
        self.stderr_path = stderr_path

    def stdout(self) -> bytes:
        return self.stdout_path.read_bytes()

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace").strip()


def child_env() -> dict[str, str]:
    """The environment of every child: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The bench's handle on the launcher process; use it as a context manager."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], env=child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def python(self, args: list[str], cwd: Path, name: str = "last", timeout: float = CALL_TIMEOUT_S) -> Result:
        """Run ``python <args>`` in `cwd`, output to ``cwd/<name>.out`` and ``.err``."""
        out, err = cwd / f"{name}.out", cwd / f"{name}.err"
        request = {"argv": [sys.executable, *args], "cwd": str(cwd), "out": str(out), "err": str(err),
                   "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with code {self._proc.wait()}")
        return Result(json.loads(reply), out, err)

    def bare_ms(self, cwd: Path) -> float:
        """Median wall time of a bare ``python -c pass``: the floor under every call."""
        times = [self.python(["-c", "pass"], cwd, "bare").seconds for _ in range(BASELINE_REPEATS)]
        return sorted(times)[len(times) // 2] * 1e3

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve()
