"""The shared visitor/rule framework under every ``repro lint`` rule.

A rule (:class:`Rule`) is a named check over a parsed project
(:class:`Project`): it yields :class:`Finding` values anchored to a file
and line.  The framework owns everything the rules share —

* parsing every target file once into a :class:`SourceFile` (AST, source
  lines, dotted module name derived from the ``src/`` layout);
* a project-wide symbol index: every ``@dataclass`` definition, every
  module-level type alias (``WorkerOp = Union[...]``), every class and
  function, keyed by bare name (rules resolve cross-module references
  through it without importing anything);
* the protocol registry (:mod:`repro.runtime.protocol`) read once as
  literals, and the one union of its classification tables
  (:meth:`Project.registry_names`);
* the transitive subclass walk (:meth:`Project.subclasses`);
* per-line suppressions: a ``# repro-lint: disable=RL003`` (or
  ``disable=RL001,RL002``, or ``disable=all``) comment on the flagged
  line — or on the opening line of the statement it anchors to —
  silences the finding.

Rules never import the code they check: everything is AST, so the linter
runs on a broken tree, a fixture snippet or a bare checkout alike.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "WIRE_TABLES",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "decorator_name",
    "dotted_name",
    "iter_rule_suppressions",
    "suppressed_rules",
]

#: The registry tables whose entries name a dataclass crossing a process
#: boundary, and every classification table (the wire ones + internal).
WIRE_TABLES = ("MESSAGE_ROUTING", "REPLY_MESSAGES", "PAYLOAD_DATACLASSES", "FABRIC_MESSAGES")
CLASSIFIED_TABLES = WIRE_TABLES + ("INTERNAL_DATACLASSES",)

#: ``# repro-lint: disable=RL001,RL002`` (or ``disable=all``).
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file position."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def render(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.column, self.rule, self.message)


def iter_rule_suppressions(source_line: str) -> Optional[Set[str]]:
    """Rule ids disabled by a line's suppression comment, if any.

    Returns ``None`` when the line carries no suppression, the set of
    rule ids otherwise (``{"all"}`` disables every rule).
    """
    match = _SUPPRESS_RE.search(source_line)
    if match is None:
        return None
    return {token.strip().upper() for token in match.group(1).split(",") if token.strip()}


def suppressed_rules(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number -> rule ids suppressed on that line."""
    table: Dict[int, Set[str]] = {}
    for number, line in enumerate(lines, start=1):
        rules = iter_rule_suppressions(line)
        if rules is not None:
            table[number] = rules
    return table


class SourceFile:
    """One parsed target file: AST, source lines and derived metadata."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        #: Path as reported in findings (repo-relative when possible).
        self.display_path = display_path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=display_path)
        self.suppressions: Dict[int, Set[str]] = suppressed_rules(self.lines)
        self.module_name = self._module_name(path)

    @staticmethod
    def _module_name(path: Path) -> str:
        """Dotted module name from the ``src/`` (or package-dir) layout."""
        parts = list(path.with_suffix("").parts)
        for marker in ("src",):
            if marker in parts:
                parts = parts[parts.index(marker) + 1 :]
                break
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return "ALL" in rules or rule.upper() in rules


@dataclass
class _SymbolIndex:
    """Project-wide, name-keyed defs the rules resolve references through."""

    dataclasses: Dict[str, Tuple[SourceFile, ast.ClassDef]] = field(default_factory=dict)
    classes: Dict[str, Tuple[SourceFile, ast.ClassDef]] = field(default_factory=dict)
    #: Module-level ``Name = <type expression>`` aliases (e.g. Union lists).
    aliases: Dict[str, Tuple[SourceFile, ast.expr]] = field(default_factory=dict)


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def decorator_name(node: ast.expr) -> Optional[str]:
    """Trailing name of a decorator (``@mutates_routing``,
    ``@protocol.mutates_routing`` and ``@mutates_routing(...)`` alike)."""
    if isinstance(node, ast.Call):
        node = node.func
    name = dotted_name(node)
    if name is None:
        return None
    return name.rpartition(".")[2]


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    return any(decorator_name(decorator) == "dataclass" for decorator in node.decorator_list)


def _literal_tables(source: SourceFile) -> Dict[str, object]:
    """Top-level literal assignments of a module, by name."""
    tables: Dict[str, object] = {}
    for node in source.tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        try:
            literal = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                tables[target.id] = literal
    return tables


def _base_names(class_def: ast.ClassDef) -> Set[str]:
    """Trailing names of every base class expression."""
    names = (dotted_name(base) for base in class_def.bases)
    return {name.rpartition(".")[2] for name in names if name is not None}


class Project:
    """Every parsed target file plus the cross-file symbol index."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files: List[SourceFile] = list(files)
        self.symbols = _SymbolIndex()
        #: The registry module (the file defining ``MESSAGE_ROUTING``) and
        #: its literal tables, or ``None`` when no scanned file is one.
        self.registry: Optional[Tuple[SourceFile, Dict[str, object]]] = None
        for source in self.files:
            self._index(source)
            if self.registry is None:
                tables = _literal_tables(source)
                if "MESSAGE_ROUTING" in tables:
                    self.registry = (source, tables)

    def _index(self, source: SourceFile) -> None:
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef):
                self.symbols.classes.setdefault(node.name, (source, node))
                if _is_dataclass_def(node):
                    self.symbols.dataclasses.setdefault(node.name, (source, node))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.symbols.aliases.setdefault(target.id, (source, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self.symbols.aliases.setdefault(node.target.id, (source, node.value))

    # -- lookups ------------------------------------------------------
    def module(self, dotted: str) -> Optional[SourceFile]:
        for source in self.files:
            if source.module_name == dotted:
                return source
        return None

    def dataclass(self, name: str) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
        return self.symbols.dataclasses.get(name)

    def class_def(self, name: str) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
        return self.symbols.classes.get(name)

    def alias(self, name: str) -> Optional[Tuple[SourceFile, ast.expr]]:
        return self.symbols.aliases.get(name)

    def registry_names(self, tables: Sequence[str] = CLASSIFIED_TABLES) -> Set[str]:
        """Every class name the registry lists in ``tables``."""
        names: Set[str] = set()
        if self.registry is None:
            return names
        for table in tables:
            entries = self.registry[1].get(table, ())
            if isinstance(entries, dict):
                entries = [name for group in entries.values() for name in group]
            if isinstance(entries, (tuple, list)):
                names.update(str(entry) for entry in entries)
        return names

    def subclasses(self, *bases: str) -> List[Tuple[SourceFile, ast.ClassDef]]:
        """Every class deriving from a class named in ``bases``, directly or
        through any chain of scanned classes (matched by trailing name)."""
        pending = [
            (source, node)
            for source in self.files
            for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)
        ]
        names = set(bases)
        found: List[Tuple[SourceFile, ast.ClassDef]] = []
        while True:
            matched = [entry for entry in pending if _base_names(entry[1]) & names]
            if not matched:
                return found
            found.extend(matched)
            names.update(node.name for _, node in matched)
            pending = [entry for entry in pending if entry not in matched]


class Rule:
    """One named invariant check over a :class:`Project`.

    Subclasses set :attr:`rule_id` / :attr:`summary` and implement
    :meth:`check`.  Findings on suppressed lines are filtered by the
    runner; rules just report everything they see.
    """

    rule_id = "RL000"
    summary = "abstract rule"

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers shared by the concrete rules -------------------------
    def finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=source.display_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )
