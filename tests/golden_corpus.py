"""Record the golden corpus: engine digests the reference cannot check.

:class:`~repro.core.reference.ReferenceSimulator` checks the engine only
on uncontended, dynamics-free runs.  The corpus covers the rest: every
shipped policy runs ``DRAWS`` times in every dynamics combo ×
topology cell that has a contended star or fault/preempt dynamics
(``Simulator.run``), and ``DRAWS`` times per dynamics combo through
``Simulator.run_stream``, whose admission and retirement layers the
reference does not have.  The other scenario parameters are drawn from
the engine fuzzer's domains (``tests/engine_scenarios.py``) with a fixed
seed and stored next to each digest, so a replay depends only on the
JSON file.

Record (writes ``tests/golden_corpus.json`` unless given another path)::

    PYTHONPATH=src python -m tests.golden_corpus [OUT.json]

``tests/test_golden_corpus.py`` replays every case and compares digests.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.simulator import Simulator

from tests.engine_scenarios import (
    DYNAMICS_COMBOS,
    DYNAMICS_SEED_RANGE,
    N_APPS_RANGE,
    N_RANGE,
    PROCS_RANGE,
    SEED_RANGE,
    SHAPES,
    STREAM_SHAPES,
    TOPOLOGIES,
    reference_applies,
    result_digest,
    run_scenario,
    run_stream_scenario,
    shipped_policies,
)

CORPUS_PATH = Path(__file__).with_name("golden_corpus.json")
CORPUS_SEED = 20170529
DRAWS = 3


def _int(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1], endpoint=True))


def _choice(rng: np.random.Generator, options) -> str:
    return options[int(rng.integers(len(options)))]


def build_cases() -> list[dict[str, object]]:
    """The corpus scenarios, in a fixed order, without digests."""
    rng = np.random.default_rng(CORPUS_SEED)
    cases: list[dict[str, object]] = []
    for policy in shipped_policies():
        cells = itertools.product(DYNAMICS_COMBOS, TOPOLOGIES, range(DRAWS))
        for combo, topology, draw in cells:
            if reference_applies(topology, combo):
                continue
            params = {
                "shape": _choice(rng, SHAPES),
                "n": _int(rng, N_RANGE),
                "graph_seed": _int(rng, SEED_RANGE),
                "n_cpu": _int(rng, PROCS_RANGE),
                "n_gpu": _int(rng, PROCS_RANGE),
                "n_fpga": _int(rng, PROCS_RANGE),
                "topology": topology,
                "policy_name": policy,
                "noise": bool(rng.integers(2)),
                "dynamics_combo": combo,
                "dynamics_seed": _int(rng, DYNAMICS_SEED_RANGE),
                "arrival_seed": _int(rng, SEED_RANGE),
                "staggered": bool(rng.integers(2)),
            }
            cases.append({"id": f"run/{policy}/{combo}/{topology}/{draw}",
                          "kind": "run", "params": params})
        for combo, draw in itertools.product(DYNAMICS_COMBOS, range(DRAWS)):
            params = {
                "n_apps": _int(rng, N_APPS_RANGE),
                "shapes": [_choice(rng, STREAM_SHAPES) for _ in range(5)],
                "graph_seed": _int(rng, SEED_RANGE),
                "arrival_seed": _int(rng, SEED_RANGE),
                "policy_name": policy,
                "dynamics_combo": combo,
            }
            cases.append({"id": f"stream/{policy}/{combo}/{draw}",
                          "kind": "stream", "params": params})
    return cases


def case_digest(case: dict[str, object]) -> str:
    params = dict(case["params"])  # type: ignore[call-overload]
    if case["kind"] == "stream":
        return result_digest(run_stream_scenario(**params))
    return result_digest(run_scenario(Simulator, **params))


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else CORPUS_PATH
    cases = build_cases()
    for case in cases:
        case["digest"] = case_digest(case)
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    out.write_text(
        f'{{"seed": {CORPUS_SEED}, "cases": [\n{lines}\n]}}\n', encoding="utf-8"
    )
    print(f"{len(cases)} cases -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
