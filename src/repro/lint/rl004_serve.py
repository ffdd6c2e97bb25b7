"""RL004 — serve-loop discipline inside role hosts.

Invariant: the code a role host runs per message must neither block nor
swallow errors.  Every endpoint is a single-threaded serve loop
(:func:`repro.runtime.fabric.serve_loop`): one handler sleeping on I/O
stalls its whole tier — a worker that blocks holds up the coordinator's
submit-all-then-collect exchange, a merger that blocks backs up every
producer's inbox — and a handler that catches-and-drops an exception
converts a failure the fabric would have reported (as a
:class:`~repro.runtime.fabric.RemoteError` reply, or parked error for
fire-and-forget messages) into a silently wrong report.

Flagged, inside any class deriving from ``RoleHost``, directly or through
another host class (and inside its whole method surface, since
``handle`` fans out to helpers on the same class):

* calls on the blocking deny list — ``time.sleep``, ``input``,
  ``select.select``, ``socket.create_connection``, ``os.system``, any
  ``subprocess.*`` — the serve loop's only legitimate wait is the
  channel ``recv`` the fabric itself performs;
* an ``except``-and-drop — a handler whose except body is only ``pass``
  / ``continue`` / ``...`` — which must instead let the exception
  propagate so the serve loop reports it (fire-and-forget failures are
  parked and answer the next control request; that *is* the fabric's
  error-parking path, and dropping the exception bypasses it).

A bare ``except:`` is ruff's E722, enforced repo-wide.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from .framework import Finding, Project, Rule, SourceFile, dotted_name

__all__ = ["ServeLoopDisciplineRule"]

#: Dotted call targets that block the single-threaded serve loop.
_BLOCKING_CALLS = {
    "time.sleep": "sleeping stalls every message behind this one",
    "select.select": "the fabric's channel recv is the only sanctioned wait",
    "socket.create_connection": "dialling out blocks on network timeouts",
    "os.system": "shelling out blocks for the child's lifetime",
    "input": "endpoints have no interactive stdin",
}

_BLOCKING_MODULES = {"subprocess": "spawning processes blocks for the child's lifetime"}


def _is_drop_only(body: List[ast.stmt]) -> bool:
    """Whether an except body only drops the error (pass/continue/...)."""
    for statement in body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue  # a docstring or bare ``...``
        return False
    return True


class ServeLoopDisciplineRule(Rule):
    rule_id = "RL004"
    summary = "role-host handlers never block or swallow errors"

    def check(self, project: Project) -> Iterator[Finding]:
        for source, class_def in project.subclasses("RoleHost"):
            yield from self._check_host(source, class_def)

    def _check_host(self, source: SourceFile, class_def: ast.ClassDef) -> Iterator[Finding]:
        for node in ast.walk(class_def):
            if isinstance(node, ast.Call):
                yield from self._check_call(source, class_def, node)
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(source, class_def, node)

    def _check_call(
        self, source: SourceFile, class_def: ast.ClassDef, node: ast.Call
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        reason = _BLOCKING_CALLS.get(name)
        if reason is None:
            module = name.partition(".")[0]
            module_reason = _BLOCKING_MODULES.get(module)
            if module_reason is None or "." not in name:
                return
            reason = module_reason
        yield self.finding(
            source,
            node,
            "blocking call %s() inside role host %s: %s (the serve loop is "
            "single-threaded; every message behind this one waits)"
            % (name, class_def.name, reason),
        )

    def _check_handler(
        self, source: SourceFile, class_def: ast.ClassDef, node: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if _is_drop_only(node.body):
            yield self.finding(
                source,
                node,
                "except-and-drop inside role host %s swallows the failure the "
                "fabric would report (RemoteError reply / parked error for "
                "fire-and-forget); let it propagate to the serve loop"
                % class_def.name,
            )
