"""RL001 — protocol completeness.

Invariant: every request message in the fabric's declarative routing
table (``MESSAGE_ROUTING`` in :mod:`repro.runtime.protocol`) is
dispatched by the role host that serves it, and every message dataclass
defined in the protocol modules is classified in the registry.  A new
typed message that ships without a handler does not fail loudly — the
serve loop raises ``TransportError`` *in the endpoint process* and the
coordinator's next reply read desynchronises or hangs — so the check
belongs in lint, not in an integration test's timeout.

Mechanics: the rule locates the registry module (any scanned file that
defines ``MESSAGE_ROUTING`` at top level), reads its literal tables, and

1. resolves each role's host class (``ROLE_HOSTS``) and walks its
   ``handle`` method for type-dispatch tests — ``kind is Message``,
   ``isinstance(message, Message)`` or ``type(message) is Message`` —
   reporting every registered message the dispatch chain never names;
2. reports registry entries that do not resolve to a dataclass in the
   scanned tree (a typo in the table is as silent as a missing handler);
3. reports every dataclass defined in a ``PROTOCOL_MODULES`` module that
   appears in none of the registry's categories, so a brand-new message
   cannot be introduced without declaring who handles it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from .framework import Finding, Project, Rule, dotted_name

__all__ = ["ProtocolCompletenessRule"]


def _dispatched_names(handle: ast.AST) -> Set[str]:
    """Message class names the dispatch chain of ``handle`` tests for."""
    names: Set[str] = set()
    for node in ast.walk(handle):
        if isinstance(node, ast.Compare):
            # ``kind is Message`` / ``type(message) is Message`` / ``==``.
            for comparator in node.comparators:
                name = dotted_name(comparator)
                if name is not None:
                    names.add(name.rpartition(".")[2])
            name = dotted_name(node.left)
            if name is not None:
                names.add(name.rpartition(".")[2])
        elif isinstance(node, ast.Call):
            func = dotted_name(node.func)
            if func is not None and func.rpartition(".")[2] == "isinstance" and len(node.args) == 2:
                second = node.args[1]
                elements = second.elts if isinstance(second, ast.Tuple) else [second]
                for element in elements:
                    name = dotted_name(element)
                    if name is not None:
                        names.add(name.rpartition(".")[2])
    return names


def _find_method(class_def: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in class_def.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


class ProtocolCompletenessRule(Rule):
    rule_id = "RL001"
    summary = "every registered message is dispatched by its role host"

    def check(self, project: Project) -> Iterator[Finding]:
        if project.registry is None:
            return
        source, tables = project.registry
        routing = tables["MESSAGE_ROUTING"]
        if not isinstance(routing, dict):
            yield self.finding(source, source.tree, "MESSAGE_ROUTING is not a literal mapping")
            return
        role_hosts = tables.get("ROLE_HOSTS")
        role_hosts = role_hosts if isinstance(role_hosts, dict) else {}
        classified = project.registry_names()

        # 1. every registry entry resolves to a dataclass in the tree.
        for message in sorted(classified):
            if project.dataclass(message) is None:
                yield self.finding(
                    source,
                    source.tree,
                    "registry names %r but no dataclass of that name exists "
                    "in the scanned tree" % message,
                )

        # 2. each role host dispatches every message routed to it.
        for role, messages in routing.items():
            host_name = role_hosts.get(role)
            if host_name is None:
                yield self.finding(
                    source, source.tree,
                    "role %r has routed messages but no ROLE_HOSTS entry" % role,
                )
                continue
            resolved = project.class_def(str(host_name))
            if resolved is None:
                yield self.finding(
                    source, source.tree,
                    "role host %r (role %r) not found in the scanned tree"
                    % (host_name, role),
                )
                continue
            host_source, host_def = resolved
            handle = _find_method(host_def, "handle")
            if handle is None:
                yield self.finding(
                    host_source, host_def,
                    "role host %s has no handle() method" % host_def.name,
                )
                continue
            dispatched = _dispatched_names(handle)
            for message in messages:
                if message not in dispatched:
                    yield self.finding(
                        host_source,
                        handle,
                        "%s.handle does not dispatch %s (routed to role %r "
                        "in MESSAGE_ROUTING)" % (host_def.name, message, role),
                    )

        # 3. every protocol-module dataclass is classified somewhere.
        modules = tables.get("PROTOCOL_MODULES")
        if isinstance(modules, (tuple, list)):
            for module_name in modules:
                module = project.module(str(module_name))
                if module is None:
                    continue
                for node in module.tree.body:
                    if not isinstance(node, ast.ClassDef):
                        continue
                    if project.dataclass(node.name) is None:
                        continue
                    if node.name not in classified:
                        yield self.finding(
                            module,
                            node,
                            "message dataclass %s is not classified in the "
                            "protocol registry (add it to MESSAGE_ROUTING, "
                            "REPLY_MESSAGES, PAYLOAD_DATACLASSES, FABRIC_MESSAGES "
                            "or INTERNAL_DATACLASSES)" % node.name,
                        )
