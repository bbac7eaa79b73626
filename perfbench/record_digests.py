"""Record the expected stream digests: ``python3 perfbench/record_digests.py``.

Runs each stream workload once per stream seed in this process,
through the function the working processes call, and writes
``perfbench/expected/stream_digests.json``.  Re-record only when a
change is meant to alter simulated results, and say so in its review:
the benchmark's stream check compares against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.streams import DIGESTS, RECORDED_SEEDS, STREAMS, _config  # noqa: E402
from perfbench.worker import _stream  # noqa: E402


def main() -> int:
    out: dict[str, dict[str, str]] = {}
    for workload in STREAMS:
        out[workload] = {}
        for seed in range(RECORDED_SEEDS):
            # the checked path: the working process's stream run, one call
            config = _config(
                workload, 0, 0, input_seeds=[seed], min_calls=1, max_calls=1, calibrate=False
            )
            out[workload][str(seed)] = _stream(config, 0.0)["calls"][0]["digest"]
            print(workload, seed, out[workload][str(seed)], flush=True)
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
