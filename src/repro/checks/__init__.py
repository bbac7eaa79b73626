"""Project-specific static analysis: determinism & structural lints.

The reproduction's core guarantee — bit-for-bit reproducible schedules,
identical to ``ReferenceSimulator`` where it applies — rests on
conventions (seeded RNG plumbing, ordered iteration, exhaustive
``EventKind`` handling, the ``RuntimeDynamics`` hook protocol, the
``SWEEP_FORMAT_VERSION`` bump discipline) that ordinary linters cannot
see.  This package machine-checks them *at rest*, before any test runs:

* :mod:`repro.checks.framework` — the rule framework: :class:`Rule` /
  :class:`Finding` visitors over a parsed :class:`Project`, inline
  ``# checks: ignore[rule-id]`` suppressions and a committed baseline;
* :mod:`repro.checks.rules` — the project rule catalog (see
  ``docs/checks.md`` for the rationale per rule);
* :mod:`repro.checks.gates` — non-AST gates folded into the same
  reporting format (module size budgets, executable docs);
* :mod:`repro.checks.runner` — the CLI entry point behind
  ``apt-sched check`` and ``tools/run_checks.py``.
"""

from repro.checks.framework import (
    Baseline,
    Finding,
    Module,
    Project,
    Rule,
    load_project,
    run_rules,
)
from repro.checks.rules import ALL_RULES, get_rule

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "Module",
    "Project",
    "Rule",
    "get_rule",
    "load_project",
    "run_rules",
]
