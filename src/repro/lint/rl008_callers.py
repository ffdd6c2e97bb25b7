"""RL008 — every definition in ``src/repro`` has a caller.

Invariant: a function, method or class defined under ``src/repro`` is
used somewhere else under ``src/repro``, or is on :data:`ALLOWED` with a
one-line reason.  A helper that only its own unit test calls is code the
system never runs; it is deleted, not kept "just in case".

A *use* is a ``Name`` or ``Attribute`` node with the definition's name,
or the name as a word inside a string constant — so control operations
reached reflectively by name (``WorkerNode.CONTROL_SURFACE``) and host
classes named in the protocol registry count.  Entries of ``__all__``
and of :data:`ALLOWED`, and import statements, do not: exporting a
function is not calling it.  Dunders are exempt (the interpreter calls
them).  The check is by bare name, so one use of ``check`` covers every
``check`` method; it is a floor, not a call graph.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set, Tuple, Union

from .framework import Finding, Project, Rule, SourceFile

__all__ = ["ALLOWED", "CallerRule"]

#: Definitions kept without a caller in ``src/repro``, each with its reason.
ALLOWED: Dict[str, str] = {
    # Pinned by benchmarks/e2e/tracer.py (TARGETS) until ROADMAP 1(b)
    # retires the per-tuple entry points it wraps.
    "handle_object": "e2e tracer target: the per-tuple worker match op",
    "insertion_assignments": "e2e tracer target: one-line delegation to posting_assignments",
    "route_deletion": "e2e tracer target: one-line delegation to deletion_plan_apply",
    "apply_deletion_pairs": "e2e tracer target: one-line delegation to apply_plan",
    "route_object": "single-object routing: the tests' oracle of route_cell, an e2e tracer target",
    # Called from benchmarks/.
    "route_object_batch": "bench.py's isolated re-route of the body (gridt.route_probe_s)",
    "report_at": "fig08 reads each experiment's report at a common input rate",
    "RQIndex": "the worker-index ablation's alternative to GI2",
    "to_kdt_tree": "the routing ablation builds the kdt-tree from a plan",
    # Called by the standard library.
    "do_GET": "http.server callback of the telemetry endpoint",
    "log_message": "http.server callback, overridden to silence stderr",
    # Test oracles and observables.
    "route_query": "plan / kdt-tree query routing, the oracle of GridT routing",
    "range_search": "kd-tree range query, the oracle of its leaf regions",
    "replication_factor": "query replication of a plan (partitioner tests)",
    "contains_rect": "rectangle containment (geometry and R-tree tests)",
    "cells_of_query": "GI2 cells a query is posted in (migration parity tests)",
    "pending_deletion_count": "GI2 lazy-deletion backlog (compaction tests)",
    "queries_in_cell": "GI2 cell contents (index tests)",
    "total_terms": "term statistics total (text tests)",
    "document_count": "term statistics document count (text tests)",
    "live_queries": "the stream's resident queries (adjustment and parity tests)",
    "live_query_count": "the stream's resident query count (stream tests)",
    "telemetry_events": "the telemetry ring as seen by a cluster (telemetry tests)",
}

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


def _in_scope(source: SourceFile) -> bool:
    """Only modules of the ``repro`` package (``src/repro/...``) count."""
    return source.module_name.split(".")[0] == "repro"


#: Module-level tables whose string entries name a def without using it.
_EXPORT_TABLES = ("__all__", "ALLOWED")


def _skipped_strings(tree: ast.Module) -> Set[int]:
    """``id()`` of the string constants inside the export tables."""
    skipped: Set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets: List[ast.expr] = (
                list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            )
            names = {target.id for target in targets if isinstance(target, ast.Name)}
            if names & set(_EXPORT_TABLES):
                skipped.update(id(child) for child in ast.walk(node.value))
    return skipped


def _uses(tree: ast.Module) -> Set[str]:
    skipped = _skipped_strings(tree)
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skipped:
                used.update(_WORD_RE.findall(node.value))
    return used


class CallerRule(Rule):
    rule_id = "RL008"
    summary = "every def in src/repro has a caller in src/repro (or is on ALLOWED)"

    def check(self, project: Project) -> Iterator[Finding]:
        sources = [source for source in project.files if _in_scope(source)]
        used: Set[str] = set()
        definitions: List[Tuple[SourceFile, _Def]] = []
        for source in sources:
            used |= _uses(source.tree)
            for node in ast.walk(source.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    definitions.append((source, node))
        for source, node in definitions:
            name = node.name
            if name in used or name in ALLOWED or (name.startswith("__") and name.endswith("__")):
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "def"
            yield self.finding(
                source, node,
                "%s %s has no caller in src/repro — delete it, or add it to "
                "rl008_callers.ALLOWED with the reason it stays" % (kind, name),
            )
