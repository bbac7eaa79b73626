"""Process plumbing shared by the workload drivers."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]

#: Scratch space inside the checkout (caches, span dumps, child logs).
WORK = ROOT / ".perfbench"

#: Engine knobs a user who passes no flag never sets.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_JIT")


def _cpus() -> tuple[list[int], set[int]]:
    """``(one CPU per working process run side by side, CPUs for this process)``.

    Every working process is pinned to one CPU, so a server's threads
    share one core instead of trading the interpreter lock across two.
    Working processes that run at once get a CPU each (``LANES``): on a
    shared host the CPUs drift in speed partly apart (the same stream
    simulated on both CPUs of a 2-CPU machine at once ran at 650–1130
    and 740–1120 kernels/s in 5 s bins, correlated 0.29), so a run that
    pools one process per CPU averages out some of either CPU's drift.
    A working process that runs alone (a traced run, the server of the
    open loop) gets the last CPU, and the driver and load generator keep
    the rest: the client then never competes with the server it measures.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return allowed, set(allowed)
    return allowed, set(allowed[:-1])


LANES, DRIVER_CPUS = _cpus()


def pin_driver() -> None:
    os.sched_setaffinity(0, DRIVER_CPUS)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Outcome:
    """What a workload driver hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; record why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


class Child:
    """A child Python process whose peak RSS is read when it is reaped."""

    def __init__(
        self,
        args: list[str],
        log: Path,
        stdout: Any = subprocess.DEVNULL,
        lane: int = 0,
        stdin: Any = subprocess.DEVNULL,
    ) -> None:
        """``lane`` ``i`` pins the process to ``LANES[-1 - i]`` (lane 0 is
        the last CPU)."""
        self.log = log
        self._log_fh = open(log, "wb")
        self.spawned = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=ROOT,
                env=child_env(),
                stdin=stdin,
                stdout=stdout,
                stderr=self._log_fh,
            )
        except OSError:
            self._log_fh.close()
            raise
        os.sched_setaffinity(self.proc.pid, {LANES[-1 - lane % len(LANES)]})
        self.returncode: int | None = None
        self.peak_rss_mb = 0.0

    def wait(self, timeout: float) -> int:
        """Reap the child (killing it past ``timeout``); return its code."""
        deadline = time.monotonic() + timeout
        while self.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                self._reaped(status, usage)
                break
            time.sleep(0.005)
        return self.returncode  # type: ignore[return-value]

    def _reaped(self, status: int, usage: Any) -> None:
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.close_stdin()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log_fh.close()

    def close_stdin(self) -> None:
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass  # the child is gone: nothing left to read it

    def interrupt(self, timeout: float) -> int:
        """SIGINT (a clean shutdown for ``apt-sched serve``), then reap."""
        if self.returncode is None:
            self.proc.send_signal(signal.SIGINT)
        return self.wait(timeout)

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def run_workers(
    kind: str, jobs: list[tuple[dict[str, Any], str]], timeout: float
) -> list[tuple[dict[str, Any], Child]]:
    """Run ``perfbench.worker`` once per ``(config, name)`` job, all at once,
    job ``i`` in lane ``i``; return each JSON report with its child."""
    started: list[tuple[Child, Path, str]] = []
    try:
        for lane, (config, name) in enumerate(jobs):
            out = WORK / f"{name}.json"
            out.unlink(missing_ok=True)
            child = Child(
                ["-m", "perfbench.worker", kind, json.dumps(config), str(out)],
                log=WORK / f"{name}.log",
                lane=lane,
            )
            started.append((child, out, name))
        for child, _, _ in started:
            child.wait(timeout)
    finally:
        for child, _, _ in started:
            child.wait(0.0)  # kills any child still running after an error
    results = []
    for child, out, name in started:
        if child.returncode != 0 or not out.exists():
            raise RuntimeError(
                f"{kind} worker {name} exited with {child.returncode}:\n{child.log_tail()}"
            )
        report = json.loads(out.read_text(encoding="utf-8"))
        report["setup_s"] = report["ready"] - child.spawned
        results.append((report, child))
    return results


def run_worker(kind: str, config: dict[str, Any], name: str, timeout: float) -> tuple[dict[str, Any], Child]:
    """Run ``perfbench.worker`` once, alone on the last CPU."""
    return run_workers(kind, [(config, name)], timeout)[0]
