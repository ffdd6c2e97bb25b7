"""RL005 — fence discipline for routing-state mutations.

Invariant: a function that mutates dispatcher routing state — declared
by decorating it with :func:`repro.runtime.protocol.mutates_routing` —
must leave the dispatch-shard replicas re-syncable: either it bumps the
routing version itself (``invalidate_routing_caches``, directly or by
calling another decorated mutator that does), or every one of its call
sites sits inside a function that is itself a declared mutator or is
marked :func:`~repro.runtime.protocol.barrier_context` (an ``AdjustBarrier``
quiescent point, where the adjustment round's single re-sync covers the
mutation).  A mutation that escapes both is the worst failure mode this
runtime has: replicas keep routing on pre-mutation state and the
delivered reports silently diverge from the reference backend.

The call-graph walk is conservative and name-based: a call site is any
``Call`` whose target's trailing name matches the mutator's name, found
anywhere in the scanned tree.  False positives from unrelated same-name
functions are possible and are the acceptable price — suppress with
``# repro-lint: disable=RL005`` at the call site if one appears.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from .framework import Finding, Project, Rule, SourceFile, decorator_name, dotted_name

__all__ = ["FenceDisciplineRule"]

#: Calls that bump the routing version (re-sync the shard replicas).
_BUMP_CALLS = frozenset({"invalidate_routing_caches"})
_MUTATOR_DECORATOR = "mutates_routing"
_BARRIER_DECORATOR = "barrier_context"


def _functions_with_stack(
    source: SourceFile,
) -> Iterator[Tuple[ast.FunctionDef, List[ast.AST]]]:
    """Every function def with its enclosing class/function stack."""

    def visit(node: ast.AST, stack: List[ast.AST]) -> Iterator[Tuple[ast.FunctionDef, List[ast.AST]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(child, ast.FunctionDef):
                    yield child, list(stack)
                yield from visit(child, stack + [child])
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, stack + [child])
            else:
                yield from visit(child, stack)

    yield from visit(source.tree, [])


def _has_decorator(node: ast.FunctionDef, name: str) -> bool:
    return any(decorator_name(decorator) == name for decorator in node.decorator_list)


def _called_names(node: ast.AST) -> Set[str]:
    """Trailing names of every call target inside ``node``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = dotted_name(child.func)
            if name is not None:
                names.add(name.rpartition(".")[2])
    return names


class FenceDisciplineRule(Rule):
    rule_id = "RL005"
    summary = "declared routing mutators bump the version or stay in barrier context"

    def check(self, project: Project) -> Iterator[Finding]:
        mutators: Dict[str, Tuple[SourceFile, ast.FunctionDef]] = {}
        barrier_functions: Set[str] = set()
        all_functions: List[Tuple[SourceFile, ast.FunctionDef, List[ast.AST]]] = []
        for source in project.files:
            for function, stack in _functions_with_stack(source):
                all_functions.append((source, function, stack))
                if _has_decorator(function, _MUTATOR_DECORATOR):
                    mutators[function.name] = (source, function)
                if _has_decorator(function, _BARRIER_DECORATOR):
                    barrier_functions.add(function.name)
        if not mutators:
            return

        # Pass 1: mutators that bump the version themselves (directly or
        # via another declared mutator that does).
        bumps: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, (_, function) in mutators.items():
                if name in bumps:
                    continue
                called = _called_names(function)
                if called & _BUMP_CALLS or called & bumps:
                    bumps.add(name)
                    changed = True

        unbumped = {name for name in mutators if name not in bumps}
        if not unbumped:
            return

        # Pass 2: every call site of an unbumped mutator must be inside a
        # declared mutator or a barrier-context function.
        for source, function, stack in all_functions:
            covered = (
                function.name in mutators
                or function.name in barrier_functions
                or any(
                    isinstance(frame, ast.FunctionDef)
                    and (
                        _has_decorator(frame, _MUTATOR_DECORATOR)
                        or _has_decorator(frame, _BARRIER_DECORATOR)
                    )
                    for frame in stack
                )
            )
            if covered:
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                trailing = name.rpartition(".")[2]
                if trailing in unbumped:
                    yield self.finding(
                        source,
                        node,
                        "call to routing mutator %s() from %s(), which is "
                        "neither a declared mutator nor barrier_context, and "
                        "%s never bumps the routing version — stale dispatch "
                        "replicas would route on pre-mutation state"
                        % (trailing, function.name, trailing),
                    )

        # A mutator with no bump and no call sites at all: flag the def,
        # so dead-but-dangerous code cannot linger unnoticed.
        called_anywhere: Set[str] = set()
        for source, function, _ in all_functions:
            if function.name not in mutators:
                called_anywhere.update(_called_names(function) & unbumped)
        for name in sorted(unbumped - called_anywhere):
            mutator_source, mutator_def = mutators[name]
            yield self.finding(
                mutator_source,
                mutator_def,
                "routing mutator %s() neither bumps the routing version nor "
                "has any barrier-context caller; add invalidate_routing_caches() "
                "or call it from an AdjustBarrier context" % name,
            )
