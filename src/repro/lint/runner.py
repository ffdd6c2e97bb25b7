"""``repro lint`` — run the RL00x rule suite over a file tree.

Usage::

    repro lint                  # lint the default roots (src/repro, tools)
    repro lint src tools tests  # explicit roots (files or directories)
    repro lint --list-rules     # print the rule catalog

Exit codes are stable so CI and scripts can branch on them:

* ``0`` — clean (no findings);
* ``1`` — findings reported;
* ``2`` — usage or input error (unreadable path, syntax error in a
  target file).

Suppress a finding with a ``# repro-lint: disable=RL00x`` comment on the
flagged line (``disable=all`` silences every rule for that line); the
rule catalog with one worked example per rule lives in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, TextIO

from .framework import Finding, Project, Rule, SourceFile
from .rl001_protocol import ProtocolCompletenessRule
from .rl002_determinism import DeterminismRule
from .rl003_pickle import PickleSafetyRule
from .rl004_serve import ServeLoopDisciplineRule
from .rl005_fence import FenceDisciplineRule
from .rl008_callers import CallerRule

__all__ = ["ALL_RULES", "build_project", "collect_files", "main", "run_lint"]

#: The rule suite, in catalog order.
ALL_RULES: Sequence[Rule] = (
    ProtocolCompletenessRule(),
    DeterminismRule(),
    PickleSafetyRule(),
    ServeLoopDisciplineRule(),
    FenceDisciplineRule(),
    CallerRule(),
)

#: Roots linted when no path argument is given, relative to the repo
#: root (located by walking up from this file past ``src/``).
DEFAULT_ROOTS = ("src/repro", "tools")

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache", ".pytest_cache"}


def repo_root() -> Path:
    """The checkout root (the directory holding ``src/``)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "src").is_dir() and parent.name != "src":
            return parent
    return Path.cwd()


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    collected: List[Path] = []
    for path in paths:
        if path.is_file():
            collected.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    collected.append(candidate)
        else:
            raise FileNotFoundError(str(path))
    unique: List[Path] = []
    seen = set()
    for path in collected:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def build_project(files: Iterable[Path], root: Optional[Path] = None) -> Project:
    """Parse every target file into a :class:`Project`."""
    root = root if root is not None else repo_root()
    sources: List[SourceFile] = []
    for path in files:
        try:
            display = str(path.resolve().relative_to(root))
        except ValueError:
            display = str(path)
        sources.append(SourceFile(path, display, path.read_text(encoding="utf-8")))
    return Project(sources)


def run_lint(
    project: Project, rules: Sequence[Rule] = ALL_RULES
) -> List[Finding]:
    """Run ``rules`` over ``project``; suppressed findings are dropped."""
    by_path = {source.display_path: source for source in project.files}
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(project):
            source = by_path.get(finding.path)
            if source is not None and source.is_suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def _print_human(findings: Sequence[Finding], checked: int, out: TextIO) -> None:
    for finding in findings:
        out.write(finding.render() + "\n")
    if findings:
        out.write(
            "repro lint: %d finding(s) in %d file(s)\n" % (len(findings), checked)
        )
    else:
        out.write("repro lint: %d file(s) clean\n" % checked)


def _list_rules(out: TextIO) -> None:
    for rule in ALL_RULES:
        out.write("%s  %s\n" % (rule.rule_id, rule.summary))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Protocol-invariant static analysis for the distributed "
        "runtime (rule catalog: docs/STATIC_ANALYSIS.md).",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: %s, resolved from the "
        "repo root)" % ", ".join(DEFAULT_ROOTS),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _list_rules(out)
        return 0
    root = repo_root()
    if args.paths:
        paths = [Path(path) for path in args.paths]
    else:
        paths = [root / rel for rel in DEFAULT_ROOTS]
    try:
        files = collect_files(paths)
    except FileNotFoundError as exc:
        out.write("repro lint: no such path: %s\n" % exc)
        return 2
    try:
        project = build_project(files, root)
    except SyntaxError as exc:
        out.write("repro lint: cannot parse %s: %s\n" % (exc.filename, exc.msg))
        return 2
    findings = run_lint(project)
    _print_human(findings, len(files), out)
    return 1 if findings else 0
