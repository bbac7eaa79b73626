"""The rule framework of the project's static-analysis pass.

A :class:`Project` is a parsed snapshot of a python source tree (paths,
text, ASTs — nothing is imported, so the checker runs on scratch copies
and broken trees alike).  A :class:`Rule` inspects either one
:class:`Module` at a time (``check_module``) or the whole project at
once (``check_project`` — the cross-file invariants: hook conformance,
event-kind exhaustiveness, the cache-version fingerprint) and yields
:class:`Finding` records.

Suppression
-----------
* ``# checks: ignore[rule-a,rule-b]`` on the flagged line — or on a
  comment-only line directly above it — suppresses those rules there;
* ``# checks: ignore-file[rule-a]`` anywhere in a file suppresses the
  rule for the whole file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

#: ``# checks: ignore[a,b]`` / ``# checks: ignore-file[a,b]``
_IGNORE_RE = re.compile(r"#\s*checks:\s*ignore(?P<file>-file)?\[(?P<ids>[^\]]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``path`` is relative to the scanned root (posix form), so findings
    read the same across checkouts and scratch copies.
    """

    rule: str
    path: str
    line: int
    message: str

    def render(self, root: "Path | None" = None) -> str:
        prefix = f"{root.as_posix()}/" if root else ""
        return f"{prefix}{self.path}:{self.line}: {self.rule}: {self.message}"

    def render_github(self, root: "Path | None" = None) -> str:
        """GitHub workflow-annotation form (``::error ...``)."""
        prefix = f"{root.as_posix()}/" if root else ""
        message = self.message.replace("%", "%25").replace("\n", "%0A")
        return (
            f"::error file={prefix}{self.path},line={self.line},"
            f"title=checks/{self.rule}::{message}"
        )


class Module:
    """One parsed source file: path, text, AST and suppression tables."""

    def __init__(self, path: Path, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self.file_suppressions: set[str] = set()
        #: line number -> rule ids suppressed on that line
        self.line_suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _IGNORE_RE.search(line)
            if match is None:
                continue
            ids = {part.strip() for part in match.group("ids").split(",") if part.strip()}
            if match.group("file"):
                self.file_suppressions |= ids
            else:
                self.line_suppressions.setdefault(lineno, set()).update(ids)
                # a comment-only suppression line covers the next line
                if line.lstrip().startswith("#"):
                    self.line_suppressions.setdefault(lineno + 1, set()).update(ids)

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions:
            return True
        return rule in self.line_suppressions.get(line, ())

    def finding(self, rule: "Rule | str", node: "ast.AST | int", message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or a line number)."""
        rule_id = rule if isinstance(rule, str) else rule.id
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(rule=rule_id, path=self.relpath, line=line, message=message)


class Project:
    """A parsed source tree rooted at ``root``.

    ``skipped`` records files that failed to parse — reported as
    findings by the runner (a syntax error must not silently shrink
    the checked surface).
    """

    def __init__(self, root: Path, modules: Sequence[Module], skipped: Mapping[str, str]) -> None:
        self.root = root
        self.modules = list(modules)
        self.skipped = dict(skipped)
        self._by_relpath = {m.relpath: m for m in self.modules}

    def module(self, relpath: str) -> Module | None:
        return self._by_relpath.get(relpath)

    def find_module(self, suffix: str) -> Module | None:
        """The unique module whose relpath ends with ``suffix`` (or None)."""
        matches = [m for m in self.modules if m.relpath.endswith(suffix)]
        return matches[0] if len(matches) == 1 else None

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


def load_project(root: "Path | str", files: "Iterable[Path] | None" = None) -> Project:
    """Parse every ``.py`` file under ``root`` (or just ``files``)."""
    root = Path(root)
    if files is None:
        paths = sorted(
            p for p in root.rglob("*.py") if "__pycache__" not in p.parts
        )
    else:
        paths = [Path(f) if Path(f).is_absolute() else root / f for f in files]
    modules: list[Module] = []
    skipped: dict[str, str] = {}
    for path in paths:
        relpath = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        try:
            modules.append(Module(path, relpath, text))
        except SyntaxError as exc:
            skipped[relpath] = f"{type(exc).__name__}: {exc.msg} (line {exc.lineno})"
    return Project(root, modules, skipped)


class Rule:
    """Base class of one static-analysis rule.

    Subclasses set the identity fields and override :meth:`check_module`
    (per-file rules) or :meth:`check_project` (cross-file rules).  Rules
    must not import the code under inspection — AST only, so they work
    on scratch copies and intentionally-broken fixtures.
    """

    #: stable kebab-case identifier, used in reports and suppressions.
    id: str = "rule"
    #: one-line summary shown by ``--list-rules``.
    title: str = ""
    #: relpath prefixes the rule applies to; empty = whole tree.
    scope: tuple[str, ...] = ()

    def applies(self, module: Module) -> bool:
        return not self.scope or module.relpath.startswith(self.scope)

    def check_module(self, module: Module) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def run(self, project: Project) -> list[Finding]:
        findings = list(self.check_project(project))
        for module in project:
            if self.applies(module):
                findings.extend(self.check_module(module))
        return findings


@dataclass
class CheckReport:
    """Outcome of one rules run: what fails and what was suppressed."""

    new: list[Finding]
    suppressed: list[Finding]

    @property
    def ok(self) -> bool:
        return not self.new


def run_rules(project: Project, rules: Sequence[Rule]) -> CheckReport:
    """Run ``rules`` over ``project``, applying inline suppressions."""
    new: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in rules:
        for finding in rule.run(project):
            module = project.module(finding.path)
            if module is not None and module.suppressed(finding.rule, finding.line):
                suppressed.append(finding)
            else:
                new.append(finding)
    new.sort(key=lambda f: (f.path, f.line, f.rule))
    return CheckReport(new=new, suppressed=suppressed)


# ----------------------------------------------------------------------
# shared AST helpers used by the rule catalog
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Alias → canonical dotted name, from a module's import statements."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, name: str | None) -> str | None:
        """Canonical form of a dotted name, or ``None`` if its root was
        never imported (a local variable, parameter, ...)."""
        if name is None:
            return None
        root, _, rest = name.partition(".")
        canonical = self.aliases.get(root)
        if canonical is None:
            return None
        return f"{canonical}.{rest}" if rest else canonical


def edit_distance(a: str, b: str, limit: int = 3) -> int:
    """Levenshtein distance, short-circuited above ``limit``."""
    if abs(len(a) - len(b)) > limit:
        return limit + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        if min(cur) > limit:
            return limit + 1
        prev = cur
    return prev[-1]
