"""The static-checks pass: rule catalog, suppressions, gates.

Each rule has a fixture mini-tree under ``tests/checks_fixtures/<rule>/``
with seeded violations; the tests assert the rule fires with the right
rule-id and line, that clean constructs stay clean, and that the
acceptance scenarios (deleted EventKind handler, misspelled hook) fail
on a scratch copy of the real tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checks.framework import Finding, load_project, run_rules
from repro.checks.gates import check_docs, check_module_sizes
from repro.checks.rules import ALL_RULES, get_rule, sweep_fingerprint, write_fingerprint
from repro.checks.runner import main as run_checks_main

FIXTURES = Path(__file__).parent / "checks_fixtures"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def run_rule(rule_id: str, root: Path):
    """All findings of one rule over a fixture tree."""
    project = load_project(root)
    assert not project.skipped, project.skipped
    report = run_rules(project, [get_rule(rule_id)])
    return report


def hits(report) -> list[tuple[int, str]]:
    return [(f.line, f.path) for f in report.new]


# ----------------------------------------------------------------------
# one fixture per rule
# ----------------------------------------------------------------------
def test_no_wallclock_fixture():
    report = run_rule("no-wallclock", FIXTURES / "no_wallclock")
    assert hits(report) == [
        (9, "core/clocky.py"),
        (13, "core/clocky.py"),
        (17, "core/clocky.py"),
    ]
    assert all(f.rule == "no-wallclock" for f in report.new)
    # benchmarks/ is out of scope, the ignored line is suppressed
    assert [f.line for f in report.suppressed] == [21]


def test_seeded_rng_fixture():
    report = run_rule("seeded-rng", FIXTURES / "seeded_rng")
    assert hits(report) == [
        (9, "core/rng_bad.py"),
        (13, "core/rng_bad.py"),
        (17, "core/rng_bad.py"),
    ]
    assert all(f.rule == "seeded-rng" for f in report.new)


def test_ordered_iteration_fixture():
    report = run_rule("ordered-iteration", FIXTURES / "ordered_iteration")
    assert hits(report) == [
        (10, "core/iter_bad.py"),
        (18, "core/iter_bad.py"),
        (26, "core/iter_bad.py"),
    ]
    assert all(f.rule == "ordered-iteration" for f in report.new)


def test_event_kind_exhaustive_fixture():
    report = run_rule("event-kind-exhaustive", FIXTURES / "event_kind_exhaustive")
    assert sorted(hits(report)) == [
        (9, "core/events.py"),  # ORPHANED: no handler anywhere
        (12, "core/dynamics.py"),  # EventKind.FALT: no such member
    ]
    messages = {f.line: f.message for f in report.new}
    assert "ORPHANED" in messages[9]
    assert "FALT" in messages[12]


def test_event_kind_pass_through_is_an_explicit_opt_out(tmp_path):
    src = FIXTURES / "event_kind_exhaustive"
    shutil.copytree(src, tmp_path / "tree")
    events = tmp_path / "tree" / "core" / "events.py"
    events.write_text(
        events.read_text(encoding="utf-8")
        + "\n\nEVENT_KIND_PASS_THROUGH = (EventKind.ORPHANED,)\n",
        encoding="utf-8",
    )
    report = run_rule("event-kind-exhaustive", tmp_path / "tree")
    assert [f.line for f in report.new] == [12]  # only the typo remains


def test_hook_conformance_fixture():
    report = run_rule("hook-conformance", FIXTURES / "hook_conformance")
    assert sorted(hits(report)) == [
        (9, "core/layer.py"),  # on_kernel_finsh
        (12, "core/layer.py"),  # on_custom_hook
        (23, "core/layer.py"),  # handle = () attribute typo
    ]
    messages = {f.line: f.message for f in report.new}
    assert "on_kernel_finish" in messages[9]  # suggests the fix
    assert "handles" in messages[23]


def test_cache_version_guard_missing_fingerprint():
    report = run_rule("cache-version-guard", FIXTURES / "cache_version_guard")
    assert hits(report) == [(3, "experiments/sweep.py")]
    assert "fingerprint" in report.new[0].message


def test_cache_version_guard_drift_and_bump(tmp_path):
    shutil.copytree(FIXTURES / "cache_version_guard", tmp_path / "tree")
    root = tmp_path / "tree"
    write_fingerprint(load_project(root))
    assert not run_rule("cache-version-guard", root).new  # fingerprint matches

    sweep = root / "experiments" / "sweep.py"
    text = sweep.read_text(encoding="utf-8")
    sweep.write_text(text.replace('"alpha": 4.0,', '"beta": 4.0,'), encoding="utf-8")
    drifted = run_rule("cache-version-guard", root).new
    assert len(drifted) == 1 and "SWEEP_FORMAT_VERSION" in drifted[0].message

    # a version bump converts the error into "regenerate the fingerprint"
    text = sweep.read_text(encoding="utf-8")
    sweep.write_text(
        text.replace("SWEEP_FORMAT_VERSION = 3", "SWEEP_FORMAT_VERSION = 4"),
        encoding="utf-8",
    )
    stale = run_rule("cache-version-guard", root).new
    assert len(stale) == 1 and "stale" in stale[0].message

    write_fingerprint(load_project(root))
    assert not run_rule("cache-version-guard", root).new


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_on_previous_comment_line(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "mod.py").write_text(
        "import time\n"
        "\n"
        "def f():\n"
        "    # checks: ignore[no-wallclock]\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    report = run_rule("no-wallclock", tmp_path)
    assert not report.new and len(report.suppressed) == 1


def test_file_wide_suppression(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "mod.py").write_text(
        "# checks: ignore-file[no-wallclock]\n"
        "import time\n"
        "\n"
        "def f():\n"
        "    return time.time()\n"
        "\n"
        "def g():\n"
        "    return time.monotonic()\n",
        encoding="utf-8",
    )
    report = run_rule("no-wallclock", tmp_path)
    assert not report.new and len(report.suppressed) == 2


def test_suppression_is_per_rule(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "mod.py").write_text(
        "import time\n"
        "\n"
        "def f():\n"
        "    return time.time()  # checks: ignore[seeded-rng]\n",
        encoding="utf-8",
    )
    report = run_rule("no-wallclock", tmp_path)
    assert len(report.new) == 1  # wrong rule id does not suppress


# ----------------------------------------------------------------------
# the real tree & the acceptance scenarios
# ----------------------------------------------------------------------
def test_real_tree_is_clean():
    project = load_project(SRC_REPRO)
    assert not project.skipped
    report = run_rules(project, list(ALL_RULES))
    assert report.ok, "\n".join(f.render() for f in report.new)


def _scratch_tree(tmp_path: Path) -> Path:
    scratch = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, scratch, ignore=shutil.ignore_patterns("__pycache__"))
    return scratch


def _failing_rules(root: Path) -> set[str]:
    report = run_rules(load_project(root), list(ALL_RULES))
    return {f.rule for f in report.new}


def test_scratch_copy_is_clean(tmp_path):
    assert _failing_rules(_scratch_tree(tmp_path)) == set()


def test_deleting_any_handles_entry_fails(tmp_path):
    """Removing any single EventKind from any `handles` breaks the check."""
    scratch = _scratch_tree(tmp_path)
    dynamics = scratch / "core" / "dynamics.py"
    original = dynamics.read_text(encoding="utf-8")
    removals = [
        ("handles = (EventKind.FAULT, EventKind.REPAIR)",
         "handles = (EventKind.REPAIR,)"),
        ("handles = (EventKind.FAULT, EventKind.REPAIR)",
         "handles = (EventKind.FAULT,)"),
        ("handles = (EventKind.PREEMPT,)", "handles = ()"),
    ]
    for old, new in removals:
        assert old in original, old
        dynamics.write_text(original.replace(old, new, 1), encoding="utf-8")
        assert "event-kind-exhaustive" in _failing_rules(scratch), (old, new)
    dynamics.write_text(original, encoding="utf-8")


def test_naming_a_kind_in_the_engine_does_not_handle_it(tmp_path):
    """Only `handles` tuples count: an `EventKind.FAULT` the engine core
    names for another purpose must not hide a layer that drops it, and
    the core's own `handles` is what covers KERNEL_COMPLETE."""
    scratch = _scratch_tree(tmp_path)
    engine = scratch / "core" / "engine.py"
    dynamics = scratch / "core" / "dynamics.py"
    engine_text = engine.read_text(encoding="utf-8")
    dynamics_text = dynamics.read_text(encoding="utf-8")
    engine.write_text(
        engine_text + "\n\n_PROBE = EventKind.FAULT\n", encoding="utf-8"
    )
    assert _failing_rules(scratch) == set()
    old = "handles = (EventKind.FAULT, EventKind.REPAIR)"
    assert old in dynamics_text
    dynamics.write_text(
        dynamics_text.replace(old, "handles = (EventKind.REPAIR,)", 1), encoding="utf-8"
    )
    assert "event-kind-exhaustive" in _failing_rules(scratch)

    dynamics.write_text(dynamics_text, encoding="utf-8")
    core = "    handles = (EventKind.KERNEL_COMPLETE,)\n"
    assert engine_text.count(core) == 1
    engine.write_text(engine_text.replace(core, ""), encoding="utf-8")
    assert "event-kind-exhaustive" in _failing_rules(scratch)


def test_misspelling_any_hook_fails(tmp_path):
    """Misspelling any RuntimeDynamics hook in any layer breaks the check."""
    scratch = _scratch_tree(tmp_path)
    dynamics = scratch / "core" / "dynamics.py"
    original = dynamics.read_text(encoding="utf-8")
    for hook in ("on_kernel_finish", "on_kernel_start", "on_admit", "observe"):
        needle = f"def {hook}("
        assert needle in original, hook
        typo = f"def {hook[:-1]}h(" if not hook.endswith("h") else f"def {hook[:-1]}("
        dynamics.write_text(original.replace(needle, typo, 1), encoding="utf-8")
        assert "hook-conformance" in _failing_rules(scratch), hook
    dynamics.write_text(original, encoding="utf-8")


def test_payload_drift_without_bump_fails(tmp_path):
    scratch = _scratch_tree(tmp_path)
    sweep = scratch / "experiments" / "sweep.py"
    text = sweep.read_text(encoding="utf-8")
    assert '"lookup_interpolate"' in text
    sweep.write_text(
        text.replace('"lookup_interpolate"', '"lookup_interp"', 1), encoding="utf-8"
    )
    assert "cache-version-guard" in _failing_rules(scratch)


# ----------------------------------------------------------------------
# gates & runner
# ----------------------------------------------------------------------
def test_module_size_gate(tmp_path):
    (tmp_path / "big.py").write_text("x = 1\n" * 50, encoding="utf-8")
    assert check_module_sizes(tmp_path, {"big.py": 100}) == []
    findings = check_module_sizes(tmp_path, {"big.py": 10, "missing.py": 5})
    assert {(f.rule, f.path) for f in findings} == {
        ("module-size", "big.py"),
        ("module-size", "missing.py"),
    }


def test_docs_gate_keeps_block_output_out_of_its_report(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Doc\n\n```python\nprint('block output')\n```\n", encoding="utf-8"
    )
    assert check_docs(tmp_path, [doc], verbose=False) == []
    assert capsys.readouterr().out == ""


def test_docs_gate_restores_the_path_and_environment(tmp_path, monkeypatch):
    from repro.checks import gates

    (tmp_path / "README.md").write_text(
        "```python\nimport os\nos.environ['DOC_BLOCK_RAN'] = '1'\n```\n",
        encoding="utf-8",
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "import os, sys\nassert os.environ['REPRO_EXAMPLE_FAST'] == '1'\n"
        "sys.path.append('added-by-example')\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(gates, "EXAMPLE_SCRIPTS", ["examples/demo.py"])
    monkeypatch.delenv("REPRO_EXAMPLE_FAST", raising=False)
    path, environ = list(sys.path), dict(os.environ)
    assert check_docs(tmp_path, verbose=False) == []
    assert sys.path == path
    assert dict(os.environ) == environ


def test_committed_size_budgets_hold():
    repo_root = SRC_REPRO.parent.parent
    assert check_module_sizes(repo_root) == []


def test_committed_fingerprint_matches_tree():
    current = sweep_fingerprint(load_project(SRC_REPRO))
    assert current is not None
    import json

    committed = json.loads(
        (SRC_REPRO / "checks" / "sweep_fingerprint.json").read_text(encoding="utf-8")
    )
    assert committed == current


def test_runner_main_clean_on_real_tree(capsys):
    assert run_checks_main(["--root", str(SRC_REPRO)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_runner_github_format(tmp_path, capsys):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "mod.py").write_text(
        "import time\nx = time.time()\n", encoding="utf-8"
    )
    code = run_checks_main(
        ["--root", str(tmp_path), "--format", "github", "--gates", "rules"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "::error file=core/mod.py,line=2,title=checks/no-wallclock::" in out


def test_runner_rejects_unknown_gate_and_rule(capsys):
    assert run_checks_main(["--gates", "nope"]) == 2
    assert run_checks_main(["--rules", "nope"]) == 2


def test_runner_reports_parse_errors(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
    assert run_checks_main(["--root", str(tmp_path), "--gates", "rules"]) == 1
    assert "parse-error" in capsys.readouterr().out


def test_tools_entry_point_exits_zero():
    repo_root = SRC_REPRO.parent.parent
    proc = subprocess.run(
        [sys.executable, str(repo_root / "tools" / "run_checks.py")],
        capture_output=True,
        text=True,
        cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_finding_render_shapes():
    f = Finding(rule="r", path="a/b.py", line=3, message="msg % here")
    assert f.render() == "a/b.py:3: r: msg % here"
    assert f.render_github() == "::error file=a/b.py,line=3,title=checks/r::msg %25 here"


def test_cli_check_verb():
    from repro.cli import main as cli_main

    assert cli_main(["check", "--list-rules"]) == 0


@pytest.mark.parametrize("rule_id", [r.id for r in ALL_RULES])
def test_every_rule_has_fixture_or_tmp_coverage(rule_id):
    """Every catalog rule has a fixture mini-tree (kept in lock-step)."""
    fixture = FIXTURES / rule_id.replace("-", "_")
    assert fixture.is_dir(), f"missing fixture tree for {rule_id}"
