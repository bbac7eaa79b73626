"""CLI entry point of the static-checks pass.

One runner behind two front doors — ``apt-sched check`` (CLI verb) and
``tools/run_checks.py`` (CI / pre-commit) — with one reporting format
for AST rules and non-AST gates alike::

    tools/run_checks.py                     # rules + size gate on src/repro
    tools/run_checks.py --gates rules,size,docs
    tools/run_checks.py --format github     # GitHub workflow annotations
    tools/run_checks.py --list-rules
    tools/run_checks.py --update-fingerprint   # after a deliberate
                                               # SWEEP_FORMAT_VERSION bump

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.checks.framework import Rule

#: gate names accepted by ``--gates``.
GATES = ("rules", "size", "docs")

_PKG_ROOT = Path(__file__).resolve().parents[1]  # src/repro
_REPO_ROOT = _PKG_ROOT.parents[1]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the checker's arguments (shared by both front doors)."""
    parser.add_argument(
        "files",
        nargs="*",
        help="specific files to check (default: every .py under --root)",
    )
    parser.add_argument(
        "--root",
        default=str(_PKG_ROOT),
        help="package root to scan (default: the installed src/repro)",
    )
    parser.add_argument(
        "--gates",
        default="rules,size",
        help=f"comma-separated gates to run, from {','.join(GATES)} "
        f"(default: rules,size — docs executes documentation blocks "
        f"and is its own CI job)",
    )
    parser.add_argument(
        "--rules",
        default="",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output format (github = workflow annotations)",
    )
    parser.add_argument(
        "--update-fingerprint",
        action="store_true",
        help="regenerate the committed sweep-payload fingerprint "
        "(after a deliberate SWEEP_FORMAT_VERSION bump), then re-check",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule catalog and exit",
    )


def _list_rules(catalog: "Sequence[Rule]") -> int:
    for rule in catalog:
        scope = ", ".join(rule.scope) if rule.scope else "whole tree"
        print(f"{rule.id:24s} {rule.title}  [{scope}]")
    print(f"{'module-size':24s} source modules stay within line budgets  [gate]")
    print(f"{'docs-example':24s} documented python blocks execute  [gate]")
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute the checks described by parsed ``args``."""
    # the rule machinery loads here: every CLI process imports this
    # module, only to register the arguments of `check`
    from repro.checks.framework import Finding, load_project, run_rules
    from repro.checks.gates import check_docs, check_module_sizes
    from repro.checks.rules import ALL_RULES, get_rule, write_fingerprint

    if args.list_rules:
        return _list_rules(ALL_RULES)

    gates = [g.strip() for g in args.gates.split(",") if g.strip()]
    unknown = sorted(set(gates) - set(GATES))
    if unknown:
        print(f"error: unknown gate(s) {unknown}; choose from {list(GATES)}",
              file=sys.stderr)
        return 2

    root = Path(args.root).resolve()
    if not root.exists():
        print(f"error: --root {root} does not exist", file=sys.stderr)
        return 2
    # repo root for the gates: the directory holding src/, else the root
    repo_root = root.parents[1] if root.name == "repro" and root.parent.name == "src" else root

    try:
        rules = (
            [get_rule(rid.strip()) for rid in args.rules.split(",") if rid.strip()]
            if args.rules
            else list(ALL_RULES)
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    failing: list[Finding] = []
    suppressed = 0

    if "rules" in gates:
        project = load_project(root, files=args.files or None)
        if args.update_fingerprint:
            written = write_fingerprint(project)
            if written is None:
                print("error: cannot fingerprint — no experiments/sweep.py "
                      "under --root", file=sys.stderr)
                return 2
            print(f"fingerprint written: {written}")
        for relpath, reason in sorted(project.skipped.items()):
            failing.append(
                Finding(rule="parse-error", path=relpath, line=1, message=reason)
            )
        report = run_rules(project, rules)
        failing += report.new
        suppressed = len(report.suppressed)
        print(f"rules: {len(project)} modules x {len(rules)} rules")

    if "size" in gates:
        size_findings = check_module_sizes(repo_root)
        failing += size_findings
        print(f"size gate: {'ok' if not size_findings else 'OVER BUDGET'}")

    if "docs" in gates:
        print("docs gate:")
        failing += check_docs(repo_root)

    prefix = None
    try:
        prefix = root.relative_to(repo_root)
    except ValueError:
        pass
    if prefix == Path("."):
        prefix = None

    for finding in failing:
        # gate findings carry repo-relative paths already
        use_prefix = prefix if finding.rule not in ("module-size", "docs-example") else None
        if args.format == "github":
            print(finding.render_github(use_prefix))
        else:
            print(finding.render(use_prefix))

    excused = f" ({suppressed} suppressed)" if suppressed else ""
    if failing:
        print(f"\n{len(failing)} finding(s){excused}")
        return 1
    print(f"clean{excused}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_checks",
        description="determinism & structural static checks "
        "(see docs/checks.md)",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
