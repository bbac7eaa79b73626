"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one paper table/figure group, times a
representative simulation with pytest-benchmark, asserts the published
*shape*, and writes the rendered artifact to ``results/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent.parent
_SRC = str(_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.sweep import SweepEngine  # noqa: E402


@pytest.fixture(scope="session")
def engine() -> SweepEngine:
    """One memoizing sweep engine for the whole benchmark session."""
    return SweepEngine()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Committed artifacts: deterministic model quantities only.

    Anything wall-clock-dependent (seconds, speedups) belongs in
    ``local_results_dir`` — committed files must not churn between
    machines or runs.
    """
    out = _ROOT / "results"
    out.mkdir(exist_ok=True)
    return out


@pytest.fixture(scope="session")
def local_results_dir() -> Path:
    """Untracked artifacts: machine-dependent timings (``results/local/``)."""
    out = _ROOT / "results" / "local"
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_artifact(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n", encoding="utf-8")
