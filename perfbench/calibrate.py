"""How fast the host runs Python right now, to calibrate timings against.

On a shared host the CPUs change speed by tens of percent for seconds
to minutes at a time, with next to no steal time reported.  The
benchmark times a fixed reference loop, on the same CPU, right before
and after each timed unit of work, and reports a unit's seconds as
``seconds * NOMINAL_S / reference``: its time on a host whose reference
loop takes ``NOMINAL_S``.  The loop uses none of the program under
test, so a change to the program moves the calibrated time as much as
the wall time; only the host's speed is taken out
(``perfbench/METRICS.md`` has the measurements).

``python -m perfbench.calibrate`` serves samples to a parent process:
each line it reads makes it print one reference time.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time
from typing import Sequence

#: Reference time (s) on the host the benchmark was tuned on (a 2-CPU
#: 2.1 GHz Xeon VM) at its usual speed: calibrated times are seconds on
#: that host.
NOMINAL_S = 0.0245


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def score(self) -> int:
        return self.weight * 3 + self.key


def _loop() -> int:
    """Interpreter work of the kinds the simulator does: dict and list
    traffic, small objects, method calls, a heap and a sort."""
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(30_000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        item = _Item(key, i & 63)
        total += item.score() + len(str(key))
        heapq.heappush(heap, (item.score(), i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
    return total + sorted(table.values(), reverse=True)[0]


def reference() -> float:
    """One sample: seconds the reference loop takes on this CPU now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def calibrated(seconds: float, *refs: float) -> float:
    """``seconds`` of work bracketed by reference samples ``refs``, at
    nominal speed."""
    return seconds * NOMINAL_S * len(refs) / sum(refs)


def calibrated_units(seconds: Sequence[float], refs: Sequence[float]) -> list[float]:
    """Unit ``i`` of ``seconds`` ran between ``refs[i]`` and ``refs[i + 1]``."""
    if len(refs) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} units need {len(seconds) + 1} reference samples")
    return [calibrated(s, refs[i], refs[i + 1]) for i, s in enumerate(seconds)]


class Calibrator:
    """Reference samples on another process's CPU, taken by a process of
    its own (``python -m perfbench.calibrate``) pinned to that CPU, which
    sleeps on its input between samples.  Sample only while the process
    it stands for is idle."""

    def __init__(self, name: str, lane: int) -> None:
        from perfbench.common import WORK, Child

        self.child = Child(
            ["-m", "perfbench.calibrate"], WORK / f"{name}.log",
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, lane=lane,
        )

    def sample(self) -> float:
        proc = self.child.proc
        assert proc.stdin is not None and proc.stdout is not None
        proc.stdin.write(b"\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibrator exited:\n{self.child.log_tail()}")
        return float(line)

    def stop(self) -> None:
        self.child.close_stdin()
        self.child.wait(10.0)


def main() -> int:
    for _ in sys.stdin:
        print(repr(reference()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
