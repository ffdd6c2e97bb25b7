"""RL006 — observability events are protocol-registered and pickle-safe.

Invariant: every subclass of ``TelemetryEvent`` (the typed event
vocabulary of :mod:`repro.runtime.telemetry`) and of ``ProfileEvent``
(the hot-loop counter vocabulary of :mod:`repro.core.counters`) is
classified in the protocol registry of :mod:`repro.runtime.protocol`
*and* satisfies the RL003 pickle-safety traversal.  These events cross
two boundaries the other rules do not fully cover: profile snapshots
ride ``Observation`` replies over the fabric (so they must pickle), and
every telemetry event — spans and lifecycle marks included — is
serialised into the telemetry JSONL sink and rebuilt by ``repro
report``.  An unregistered event type would let the vocabulary drift
away from the registry RL001 audits; an unpicklable field would fail
deep inside ``pickle.dumps`` in whichever endpoint first answers an
``Observe``.

Mechanics: for each vocabulary the rule locates the module that defines
its base class, computes the transitive subclass set by
base-name closure within that module, then (1) reports every event class
missing from the union of the registry's categories (``MESSAGE_ROUTING``,
``FABRIC_MESSAGES``, ``REPLY_MESSAGES``, ``PAYLOAD_DATACLASSES``,
``INTERNAL_DATACLASSES``) and (2) re-runs RL003's transitive field walk
over each event dataclass, re-labelling any finding as RL006 — this
matters for events the wire tables do not name (spans and lifecycle
marks are ``INTERNAL_DATACLASSES``, outside RL003's scope, yet still
serialised into the JSONL sink).
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Iterator, List, Optional, Set, Tuple

from .framework import Finding, Project, Rule, SourceFile
from .rl001_protocol import _registry_tables
from .rl003_pickle import PickleSafetyRule

__all__ = ["TelemetryProtocolRule"]

#: Base class anchoring each event vocabulary -> its label in findings.
_BASE_CLASSES = {"TelemetryEvent": "telemetry", "ProfileEvent": "profiling"}


def _base_names(class_def: ast.ClassDef) -> Set[str]:
    """Trailing names of every base class expression."""
    names: Set[str] = set()
    for base in class_def.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


class TelemetryProtocolRule(Rule):
    rule_id = "RL006"
    summary = "telemetry and profile events are registry-classified and pickle-safe"

    def check(self, project: Project) -> Iterator[Finding]:
        for base, label in _BASE_CLASSES.items():
            yield from self._check_vocabulary(project, base, label)

    def _check_vocabulary(
        self, project: Project, base: str, label: str
    ) -> Iterator[Finding]:
        events = list(self._event_classes(project, base))
        if not events:
            return
        classified = self._classified_names(project)
        pickle_rule = PickleSafetyRule()
        visited: Set[str] = set()
        for source, class_def in events:
            if classified is not None and class_def.name not in classified:
                yield Finding(
                    rule=self.rule_id,
                    path=source.display_path,
                    line=class_def.lineno,
                    column=class_def.col_offset + 1,
                    message="%s event %s is not classified in the "
                    "protocol registry (add it to REPLY_MESSAGES, "
                    "PAYLOAD_DATACLASSES or INTERNAL_DATACLASSES in "
                    "repro.runtime.protocol)" % (label, class_def.name),
                )
            for finding in pickle_rule._check_dataclass(
                project, class_def.name, class_def.name, visited
            ):
                yield replace(
                    finding,
                    rule=self.rule_id,
                    message="%s event is not pickle/JSONL-safe: %s"
                    % (label, finding.message),
                )

    @staticmethod
    def _event_classes(
        project: Project, base: str
    ) -> Iterator[Tuple[SourceFile, ast.ClassDef]]:
        """Subclasses of ``base`` in the module defining it."""
        for source in project.files:
            class_defs: List[ast.ClassDef] = [
                node for node in source.tree.body if isinstance(node, ast.ClassDef)
            ]
            if not any(node.name == base for node in class_defs):
                continue
            event_names = {base}
            changed = True
            while changed:
                changed = False
                for class_def in class_defs:
                    if class_def.name in event_names:
                        continue
                    if _base_names(class_def) & event_names:
                        event_names.add(class_def.name)
                        changed = True
            for class_def in class_defs:
                if class_def.name != base and class_def.name in event_names:
                    yield source, class_def

    @staticmethod
    def _classified_names(project: Project) -> Optional[Set[str]]:
        """Union of every registry category, or None without a registry."""
        for source in project.files:
            tables = _registry_tables(source)
            if "MESSAGE_ROUTING" not in tables:
                continue
            classified: Set[str] = set()
            routing = tables.get("MESSAGE_ROUTING")
            if isinstance(routing, dict):
                for messages in routing.values():
                    if isinstance(messages, (tuple, list)):
                        classified.update(str(message) for message in messages)
            for table_name in (
                "FABRIC_MESSAGES",
                "REPLY_MESSAGES",
                "PAYLOAD_DATACLASSES",
                "INTERNAL_DATACLASSES",
            ):
                extra = tables.get(table_name)
                if isinstance(extra, (tuple, list)):
                    classified.update(str(entry) for entry in extra)
            return classified
        return None
