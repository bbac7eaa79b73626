"""Launch ``apt-sched serve`` for the ``service`` workload.

``python -m perfbench.serve [--trace-out PATH] -- <apt-sched serve args>``

With ``--trace-out`` the span wrappers are installed before the server
starts and the spans are written to ``PATH`` when it shuts down (on
SIGINT, the server's own clean exit); without it nothing is wrapped.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.cli import main as cli_main

    rec = None
    if trace_out is not None:
        from perfbench.layers import install
        from perfbench.recorder import Recorder

        rec = Recorder()
        install(rec)
    start = time.perf_counter()
    try:
        return cli_main(["serve", *argv])
    finally:
        if rec is not None:
            rec.dump(trace_out, start=start, end=time.perf_counter())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
