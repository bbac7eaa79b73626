"""Non-AST gates folded into the checks reporting format.

Two pre-existing one-off CI scripts live on as gates here, so CI has a
single static-checks entry point with one output format:

* the **module-size gate** guards the engine decomposition — the
  ``simulator.py`` facade and ``engine.py`` core must not regrow into
  monoliths (budgets in :data:`SIZE_BUDGETS`);
* the **docs gate** smoke-executes every fenced ``python`` block in
  README.md / ``docs/*.md`` (shared namespace per file, throwaway cwd)
  plus the example scripts in :data:`EXAMPLE_SCRIPTS`, so documentation
  cannot rot silently.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

from repro.checks.framework import Finding

#: repo-relative path -> maximum line count.  The facade/core budgets
#: are the PR-5 decomposition contract.
SIZE_BUDGETS: dict[str, int] = {
    "src/repro/core/simulator.py": 700,
    "src/repro/core/engine.py": 800,
}

FENCE = re.compile(r"^```(?P<info>[^\n`]*)\n(?P<body>.*?)^```\s*$", re.M | re.S)

#: Example scripts covered by the docs gate (repo-relative).  Each must
#: honour REPRO_EXAMPLE_FAST=1 with a seconds-scale configuration.
EXAMPLE_SCRIPTS = [
    "examples/alpha_tuning_study.py",
    "examples/custom_hardware_calibration.py",
    "examples/edge_cluster_topology.py",
    "examples/medical_imaging_pipeline.py",
    "examples/open_system_saturation.py",
    "examples/quickstart.py",
    "examples/streaming_service.py",
]


def _first_traceback_line(exc_text: str) -> str:
    last = exc_text.strip().splitlines()[-1] if exc_text.strip() else "error"
    return last


# ----------------------------------------------------------------------
# module-size gate
# ----------------------------------------------------------------------
def check_module_sizes(
    repo_root: Path, budgets: dict[str, int] | None = None
) -> list[Finding]:
    """One ``module-size`` finding per over-budget (or missing) module."""
    findings: list[Finding] = []
    for relpath, budget in sorted((budgets or SIZE_BUDGETS).items()):
        path = repo_root / relpath
        if not path.exists():
            findings.append(
                Finding(
                    rule="module-size",
                    path=relpath,
                    line=1,
                    message=f"budgeted module is missing (budget {budget} lines)",
                )
            )
            continue
        lines = len(path.read_text(encoding="utf-8").splitlines())
        if lines > budget:
            findings.append(
                Finding(
                    rule="module-size",
                    path=relpath,
                    line=budget,
                    message=(
                        f"{lines} lines exceeds the {budget}-line budget — the "
                        f"engine decomposition must not regrow a monolith; "
                        f"split before raising the budget"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# docs gate
# ----------------------------------------------------------------------
def python_blocks(text: str) -> list[tuple[int, str]]:
    """(start line, source) of every block fenced exactly as ``python``."""
    blocks = []
    for match in FENCE.finditer(text):
        if match.group("info").strip() == "python":
            line = text[: match.start()].count("\n") + 2  # first code line
            blocks.append((line, match.group("body")))
    return blocks


def _run_doc_file(repo_root: Path, path: Path) -> list[Finding]:
    """Run the file's blocks in one shared namespace (stdout suppressed);
    return failures."""
    relpath = path.relative_to(repo_root).as_posix()
    findings: list[Finding] = []
    namespace: dict[str, object] = {"__name__": f"docs_{path.stem}"}
    for line, source in python_blocks(path.read_text(encoding="utf-8")):
        label = f"{relpath}:{line}"
        try:
            code = compile(source, label, "exec")
            with contextlib.redirect_stdout(io.StringIO()):
                exec(code, namespace)  # noqa: S102 - the point of the gate
        except Exception:
            findings.append(
                Finding(
                    rule="docs-example",
                    path=relpath,
                    line=line,
                    message=(
                        f"documented python block raised "
                        f"{_first_traceback_line(traceback.format_exc())}"
                    ),
                )
            )
    return findings


def _run_example_script(repo_root: Path, path: Path) -> list[Finding]:
    """Smoke-execute one example script (stdout suppressed)."""
    relpath = path.relative_to(repo_root).as_posix()
    os.environ["REPRO_EXAMPLE_FAST"] = "1"
    try:
        code = compile(path.read_text(encoding="utf-8"), relpath, "exec")
        with contextlib.redirect_stdout(io.StringIO()):
            exec(code, {"__name__": "__main__", "__file__": str(path)})  # noqa: S102
    except Exception:
        return [
            Finding(
                rule="docs-example",
                path=relpath,
                line=1,
                message=(
                    f"example script raised "
                    f"{_first_traceback_line(traceback.format_exc())}"
                ),
            )
        ]
    return []


def check_docs(
    repo_root: Path, files: list[Path] | None = None, verbose: bool = True
) -> list[Finding]:
    """Execute documentation blocks + example scripts; return failures.

    Runs with ``src/`` first on ``sys.path`` and a throwaway temp cwd so
    examples that write caches/results cannot dirty the checkout.  The
    path, the cwd and the environment are restored on return.
    """
    if files is None:
        files = [repo_root / "README.md", *sorted((repo_root / "docs").glob("*.md"))]
        examples = [repo_root / rel for rel in EXAMPLE_SCRIPTS]
    else:
        examples = []
    findings: list[Finding] = []
    saved_path, saved_environ = list(sys.path), dict(os.environ)
    sys.path.insert(0, str(repo_root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for path in files:
                failures = _run_doc_file(repo_root, path)
                findings += failures
                if verbose:
                    rel = path.relative_to(repo_root).as_posix()
                    print(f"  {'FAIL' if failures else 'ok  '} {rel}")
            for path in examples:
                failures = _run_example_script(repo_root, path)
                findings += failures
                if verbose:
                    rel = path.relative_to(repo_root).as_posix()
                    print(f"  {'FAIL' if failures else 'ok  '} {rel}")
        finally:
            os.chdir(cwd)
            sys.path[:] = saved_path
            os.environ.clear()
            os.environ.update(saved_environ)
    return findings
