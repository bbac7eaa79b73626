"""The project rule catalog: determinism & structural invariants.

Each rule protects one engine seam the bit-for-bit guarantee rides on;
``docs/checks.md`` carries the full rationale per rule and
``docs/architecture.md`` maps each rule to its seam.  Rules are pure
AST inspectors — nothing under check is imported, so the catalog runs
identically on the live tree, on scratch copies and on the seeded
fixture violations under ``tests/checks_fixtures/``.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.checks.framework import (
    Finding,
    ImportMap,
    Module,
    Project,
    Rule,
    dotted_name,
    edit_distance,
)

#: the deterministic zone: modules on the simulation hot path, where a
#: wall clock or an unseeded RNG silently breaks reproducibility.  The
#: scenario service joined the zone in PR 8: its job records and
#: progress events must be byte-stable across runs (monotonic sequence
#: numbers, never timestamps) for the shared result store to dedup.
DETERMINISTIC_SCOPE = ("core/", "policies/", "graphs/", "service/")


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _class_methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        name = dotted_name(base)
        if name:
            names.append(name.rsplit(".", 1)[-1])
    return names


def _subclass_closure(project: Project, root_names: set[str]) -> dict[str, list[tuple[Module, ast.ClassDef]]]:
    """All classes transitively subclassing one of ``root_names`` (by
    simple name, across the whole scanned tree)."""
    classes: list[tuple[Module, ast.ClassDef]] = [
        (m, node)
        for m in project
        for node in ast.walk(m.tree)
        if isinstance(node, ast.ClassDef)
    ]
    known = set(root_names)
    out: dict[str, list[tuple[Module, ast.ClassDef]]] = {}
    changed = True
    while changed:
        changed = False
        for module, cls in classes:
            if cls.name in known:
                continue
            if any(base in known for base in _base_names(cls)):
                known.add(cls.name)
                out.setdefault(cls.name, []).append((module, cls))
                changed = True
    # the loop keys by class name; flatten duplicates defensively
    return out


# ----------------------------------------------------------------------
# 1. no-wallclock
# ----------------------------------------------------------------------
class NoWallclockRule(Rule):
    """Wall-clock reads are forbidden on the simulation hot path.

    Simulated time is the engine's ``now``; a real clock smuggled into
    ``core``/``policies``/``graphs``/``service`` makes schedules (and
    service job records) machine- and load-dependent.  Measurement code
    (``kernels/calibration``, benchmarks, tools) is out of scope by
    construction.
    """

    id = "no-wallclock"
    title = "no wall-clock reads in core/policies/graphs/service"
    scope = DETERMINISTIC_SCOPE

    FORBIDDEN = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.localtime",
            "time.gmtime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(dotted_name(node.func))
            if name in self.FORBIDDEN:
                yield module.finding(
                    self,
                    node,
                    f"wall-clock call {name}() in the deterministic zone — "
                    f"simulation code must use engine time, not real time",
                )


# ----------------------------------------------------------------------
# 2. seeded-rng
# ----------------------------------------------------------------------
class SeededRngRule(Rule):
    """Randomness must flow from an explicitly seeded generator.

    Module-level convenience RNGs (``random.random``, ``np.random.rand``,
    ``np.random.seed``) draw from hidden global state: results then
    depend on import order, test interleaving and process boundaries.
    Allowed constructions: ``np.random.default_rng(seed)``,
    ``np.random.Generator``/``SeedSequence`` and ``random.Random(seed)``
    — generators that are *passed in*, never conjured globally.
    """

    id = "seeded-rng"
    title = "no global-state RNG calls; seed and pass a Generator"

    ALLOWED_NUMPY = frozenset({"default_rng", "Generator", "SeedSequence"})

    def check_module(self, module: Module) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(dotted_name(node.func))
            if name is None:
                continue
            if name.startswith("numpy.random."):
                tail = name.rsplit(".", 1)[-1]
                if tail not in self.ALLOWED_NUMPY:
                    yield module.finding(
                        self,
                        node,
                        f"global-state RNG call {name}() — use a seeded "
                        f"np.random.default_rng(...) passed in as a parameter",
                    )
            elif name == "random" or name.startswith("random."):
                tail = name.rsplit(".", 1)[-1]
                if name != "random" and tail != "Random":
                    yield module.finding(
                        self,
                        node,
                        f"global-state RNG call {name}() — use a seeded "
                        f"random.Random(seed) (or np.random.default_rng) "
                        f"passed in as a parameter",
                    )


# ----------------------------------------------------------------------
# 3. ordered-iteration
# ----------------------------------------------------------------------
class _SetEnv:
    """What the rule knows to be a set: local names plus attribute names
    declared/assigned as sets anywhere in the scanned tree."""

    def __init__(self, local_sets: set[str], set_attrs: set[str]) -> None:
        self.local_sets = local_sets
        self.set_attrs = set_attrs


def _annotation_is_set(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node)
    return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")


class OrderedIterationRule(Rule):
    """Iterating a ``set`` on the scheduling path must go through
    ``sorted()`` (or another explicit ordering).

    String hashing is salted per process (PYTHONHASHSEED), so iteration
    order over a set of processor names differs *between processes* —
    the exact bug class the multiprocessing sweep executor and the
    cross-process determinism tests exist to catch.  Dicts are
    insertion-ordered in supported CPythons and are exempt; sets never
    are.  Scope: ``core``/``policies``/``graphs``/``service``
    (everything reachable from policy selection, event dispatch and the
    service's shared result store lives there).
    """

    id = "ordered-iteration"
    title = "no unordered set iteration on the scheduling path"
    scope = DETERMINISTIC_SCOPE

    #: wrappers that preserve (lack of) ordering of their first argument.
    TRANSPARENT = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})
    #: set methods returning an equally-unordered set.
    SET_METHODS = frozenset(
        {"union", "difference", "intersection", "symmetric_difference", "copy"}
    )

    def _collect_set_attrs(self, project: Project) -> set[str]:
        """Attribute names annotated or assigned as sets anywhere in scope."""
        attrs: set[str] = set()
        for module in project:
            if not self.applies(module):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    # class-body field annotations (dataclass style) name
                    # attributes; function-local annotations do not
                    for stmt in node.body:
                        if (
                            isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)
                            and _annotation_is_set(stmt.annotation)
                        ):
                            attrs.add(stmt.target.id)
                elif isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
                    if isinstance(node.target, ast.Attribute):
                        attrs.add(node.target.attr)
                elif isinstance(node, ast.Assign):
                    if self._is_set_literalish(node.value):
                        for target in node.targets:
                            if isinstance(target, ast.Attribute):
                                attrs.add(target.attr)
        return attrs

    @staticmethod
    def _is_set_literalish(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in ("set", "frozenset")
        return False

    def _is_set_expr(self, node: ast.expr, env: _SetEnv) -> bool:
        if self._is_set_literalish(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in env.local_sets
        if isinstance(node, ast.Attribute):
            return node.attr in env.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left, env) or self._is_set_expr(
                node.right, env
            )
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in self.TRANSPARENT and node.args:
                return self._is_set_expr(node.args[0], env)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.SET_METHODS
                and self._is_set_expr(node.func.value, env)
            ):
                return True
        return False

    def check_project(self, project: Project) -> Iterable[Finding]:
        set_attrs = self._collect_set_attrs(project)
        for module in project:
            if not self.applies(module):
                continue
            yield from self._check_module(module, set_attrs)

    def _check_module(self, module: Module, set_attrs: set[str]) -> Iterator[Finding]:
        for func in _functions(module.tree):
            local_sets: set[str] = set()
            for arg in [
                *func.args.posonlyargs,
                *func.args.args,
                *func.args.kwonlyargs,
            ]:
                if _annotation_is_set(arg.annotation):
                    local_sets.add(arg.arg)
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and self._is_set_literalish(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_sets.add(target.id)
                elif (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and _annotation_is_set(node.annotation)
                ):
                    local_sets.add(node.target.id)
            env = _SetEnv(local_sets, set_attrs)
            for node in ast.walk(func):
                iters: list[ast.expr] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if self._is_set_expr(it, env):
                        yield module.finding(
                            self,
                            it,
                            "iteration over a set — order varies across "
                            "processes (hash salting); wrap in sorted(...) or "
                            "use an insertion-ordered structure",
                        )


# ----------------------------------------------------------------------
# 4. event-kind-exhaustive
# ----------------------------------------------------------------------
class EventKindExhaustiveRule(Rule):
    """Every ``EventKind`` member must have exactly one handler.

    A member is *handled* when it appears in some dynamics layer's
    ``handles`` tuple, is referenced by an engine-core module (the
    ``KERNEL_COMPLETE`` hot path), or is named in a module-level
    ``EVENT_KIND_PASS_THROUGH`` tuple (the explicit opt-out).  An
    unhandled kind would sit in the queue forever — the engine would
    raise ``KeyError`` at dispatch, but only on the first workload that
    emits it.  The rule also rejects references to nonexistent members
    (``EventKind.KERNEL_FINSH``), which otherwise die equally late.
    """

    id = "event-kind-exhaustive"
    title = "every EventKind member handled (or declared pass-through)"

    def check_project(self, project: Project) -> Iterable[Finding]:
        enum_module: Module | None = None
        enum_cls: ast.ClassDef | None = None
        for module in project:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == "EventKind":
                    enum_module, enum_cls = module, node
                    break
        if enum_cls is None or enum_module is None:
            return
        members: dict[str, int] = {}
        for stmt in enum_cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        members[target.id] = stmt.lineno

        handled: set[str] = set()
        pass_through: set[str] = set()
        references: list[tuple[Module, ast.Attribute]] = []
        for module in project:
            is_engine_core = any(
                isinstance(node, ast.ClassDef)
                and (
                    node.name.endswith("EngineCore")
                    or any(b.endswith("EngineCore") for b in _base_names(node))
                )
                for node in ast.walk(module.tree)
            )
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "EventKind"
                    and node.attr.isupper()
                ):
                    references.append((module, node))
                    if is_engine_core:
                        handled.add(node.attr)
                if isinstance(node, ast.ClassDef):
                    for stmt in node.body:
                        if (
                            isinstance(stmt, ast.Assign)
                            and any(
                                isinstance(t, ast.Name) and t.id == "handles"
                                for t in stmt.targets
                            )
                            and isinstance(stmt.value, (ast.Tuple, ast.List))
                        ):
                            handled.update(self._kind_names(stmt.value))
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "EVENT_KIND_PASS_THROUGH"
                    for t in node.targets
                ):
                    if isinstance(node.value, (ast.Tuple, ast.List)):
                        pass_through.update(self._kind_names(node.value))

        for module, ref in references:
            if ref.attr not in members:
                yield module.finding(
                    self,
                    ref,
                    f"EventKind.{ref.attr} does not exist "
                    f"(members: {', '.join(sorted(members))})",
                )
        for name, lineno in sorted(members.items()):
            if name not in handled and name not in pass_through:
                yield enum_module.finding(
                    self,
                    lineno,
                    f"EventKind.{name} has no handler: not in any dynamics "
                    f"layer's `handles`, not referenced by an engine core, "
                    f"and not declared in EVENT_KIND_PASS_THROUGH",
                )

    @staticmethod
    def _kind_names(seq: ast.Tuple | ast.List) -> Iterator[str]:
        for elt in seq.elts:
            if (
                isinstance(elt, ast.Attribute)
                and isinstance(elt.value, ast.Name)
                and elt.value.id == "EventKind"
            ):
                yield elt.attr


# ----------------------------------------------------------------------
# 5. hook-conformance
# ----------------------------------------------------------------------
class HookConformanceRule(Rule):
    """``RuntimeDynamics`` subclasses may only define known hook names.

    The engine wires hooks by *name* (``add_layer`` collects overridden
    methods into dispatch lists), so a typo'd hook — ``on_kernel_finsh``
    — is a silent no-op: the layer simply never hears the event.  Any
    ``on_*`` method (or a near-miss of a known hook) that the base class
    does not define is flagged.  Private helpers (leading underscore)
    and genuinely new public API (``begin``, ``metrics``, ...) pass.
    """

    id = "hook-conformance"
    title = "RuntimeDynamics subclasses define only known hook names"

    CLASS_ATTRS = frozenset({"handles", "aborts", "name"})

    def check_project(self, project: Project) -> Iterable[Finding]:
        base_cls: ast.ClassDef | None = None
        for module in project:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == "RuntimeDynamics":
                    base_cls = node
                    break
        if base_cls is None:
            return
        known = {m.name for m in _class_methods(base_cls)}
        closure = _subclass_closure(project, {"RuntimeDynamics"})
        for _name, sites in sorted(closure.items()):
            for module, cls in sites:
                for method in _class_methods(cls):
                    if method.name in known or method.name.startswith("_"):
                        continue
                    near = self._nearest(method.name, known)
                    if method.name.startswith("on_"):
                        hint = f" (did you mean {near!r}?)" if near else ""
                        yield module.finding(
                            self,
                            method,
                            f"{cls.name}.{method.name} is not a RuntimeDynamics "
                            f"hook — the engine will never call it{hint}",
                        )
                    elif near is not None:
                        yield module.finding(
                            self,
                            method,
                            f"{cls.name}.{method.name} looks like a typo of the "
                            f"{near!r} hook — the engine wires hooks by exact name",
                        )
                for stmt in cls.body:
                    if not isinstance(stmt, ast.Assign):
                        continue
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id not in self.CLASS_ATTRS
                            and not target.id.startswith("_")
                            and self._nearest(target.id, self.CLASS_ATTRS) is not None
                        ):
                            yield module.finding(
                                self,
                                stmt,
                                f"{cls.name}.{target.id} looks like a typo of a "
                                f"RuntimeDynamics class attribute "
                                f"({', '.join(sorted(self.CLASS_ATTRS))})",
                            )

    @staticmethod
    def _nearest(name: str, known: Iterable[str]) -> str | None:
        for candidate in sorted(known):
            if name != candidate and edit_distance(name, candidate, limit=1) <= 1:
                return candidate
        return None


# ----------------------------------------------------------------------
# 6. cache-version-guard
# ----------------------------------------------------------------------
FINGERPRINT_RELPATH = Path("checks") / "sweep_fingerprint.json"


def _dict_keys(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """String keys of dict literals returned by ``fn`` (sorted, deduped)."""
    keys: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
    return sorted(keys)


def sweep_fingerprint(project: Project) -> dict[str, object] | None:
    """The sweep-payload field-set fingerprint, from the AST alone.

    Captures the cache-key surface: the payload/result/settings field
    names plus ``SWEEP_FORMAT_VERSION``.  ``None`` when the project has
    no sweep module (fixture trees).
    """
    module = project.find_module("experiments/sweep.py")
    if module is None:
        return None
    version: int | None = None
    fields: dict[str, list[str]] = {}
    wanted = {
        ("SweepJob", "payload"): "payload_fields",
        ("JobResult", "to_dict"): "result_fields",
        ("SimSettings", "cost_model_dict"): "cost_model_fields",
        ("SimSettings", "noise_dict"): "settings_fields",
    }
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "SWEEP_FORMAT_VERSION"
                    and isinstance(node.value, ast.Constant)
                ):
                    version = int(node.value.value)
        if isinstance(node, ast.ClassDef):
            for method in _class_methods(node):
                slot = wanted.get((node.name, method.name))
                if slot is not None:
                    fields[slot] = _dict_keys(method)
    if version is None or not fields:
        return None
    body = {"sweep_format_version": version, **{k: fields[k] for k in sorted(fields)}}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return {**body, "digest": digest}


def write_fingerprint(project: Project) -> Path | None:
    """(Re)write the committed fingerprint; returns its path."""
    current = sweep_fingerprint(project)
    if current is None:
        return None
    path = project.root / FINGERPRINT_RELPATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
    return path


class CacheVersionGuardRule(Rule):
    """Sweep-payload drift requires a ``SWEEP_FORMAT_VERSION`` bump.

    The sweep cache is keyed by a content hash over the job payload; a
    payload field added without a version bump makes old cache entries
    silently ambiguous (same key, different semantics).  The committed
    fingerprint (``src/repro/checks/sweep_fingerprint.json``) pins the
    payload/result field sets *and* the version; any drift forces both
    a bump and a deliberate fingerprint regeneration
    (``tools/run_checks.py --update-fingerprint``).
    """

    id = "cache-version-guard"
    title = "sweep payload drift requires a SWEEP_FORMAT_VERSION bump"

    def check_project(self, project: Project) -> Iterable[Finding]:
        current = sweep_fingerprint(project)
        if current is None:
            return
        module = project.find_module("experiments/sweep.py")
        assert module is not None  # sweep_fingerprint found it
        anchor = 1
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SWEEP_FORMAT_VERSION"
                for t in node.targets
            ):
                anchor = node.lineno
        path = project.root / FINGERPRINT_RELPATH
        if not path.exists():
            yield module.finding(
                self,
                anchor,
                f"no committed sweep fingerprint at {FINGERPRINT_RELPATH.as_posix()} "
                f"— run tools/run_checks.py --update-fingerprint and commit it",
            )
            return
        try:
            committed = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            yield module.finding(
                self, anchor, f"unreadable sweep fingerprint {path}: {exc}"
            )
            return
        cur_fields = {k: v for k, v in current.items() if k.endswith("_fields")}
        old_fields = {k: v for k, v in committed.items() if k.endswith("_fields")}
        cur_version = current["sweep_format_version"]
        old_version = committed.get("sweep_format_version")
        if cur_fields == old_fields and cur_version == old_version:
            return
        if cur_fields != old_fields and cur_version == old_version:
            drift = _describe_drift(old_fields, cur_fields)
            yield module.finding(
                self,
                anchor,
                f"sweep payload fields changed without a SWEEP_FORMAT_VERSION "
                f"bump ({drift}) — stale cache entries would be misread; bump "
                f"the version, then run tools/run_checks.py --update-fingerprint",
            )
        else:
            yield module.finding(
                self,
                anchor,
                f"committed sweep fingerprint is stale (fingerprints version "
                f"{old_version}, code is at {cur_version}) — run "
                f"tools/run_checks.py --update-fingerprint and commit the result",
            )


def _describe_drift(old: dict[str, object], new: dict[str, object]) -> str:
    parts: list[str] = []
    for section in sorted(set(old) | set(new)):
        before = set(old.get(section, ()) or ())  # type: ignore[arg-type]
        after = set(new.get(section, ()) or ())  # type: ignore[arg-type]
        added = sorted(after - before)
        removed = sorted(before - after)
        if added:
            parts.append(f"{section} += {added}")
        if removed:
            parts.append(f"{section} -= {removed}")
    return "; ".join(parts) or "field order/section change"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
ALL_RULES: tuple[Rule, ...] = (
    NoWallclockRule(),
    SeededRngRule(),
    OrderedIterationRule(),
    EventKindExhaustiveRule(),
    HookConformanceRule(),
    CacheVersionGuardRule(),
)


def get_rule(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(
        f"unknown rule {rule_id!r}; available: {[r.id for r in ALL_RULES]}"
    )
