"""RL003 — pickle/frame safety of the wire vocabulary.

Invariant: every dataclass that crosses a process boundary — the request
messages of ``MESSAGE_ROUTING``, the ``REPLY_MESSAGES``, the
``PAYLOAD_DATACLASSES`` that ride inside them and the
``FABRIC_MESSAGES`` — must be *transitively* picklable.  The fabric
frames every message with pickle protocol 5
(:func:`repro.runtime.fabric.dump_message`); a field holding a lambda, a
lock, a live socket, an open file or a generator does not fail at the
definition site but deep inside ``pickle.dumps`` in whichever process
first ships the message, with a traceback that names none of this.

So must every transitive subclass of ``TelemetryEvent`` and
``ProfileEvent``: profile snapshots ride ``Observation`` replies, and
every telemetry event (spans and lifecycle marks included, though the
registry lists them as internal) is serialised into the telemetry JSONL
sink.  That they are classified in the registry at all is RL001's part 3
(their modules are ``PROTOCOL_MODULES``).

Mechanics: the rule resolves each wire dataclass from the registry,
walks its field annotations, and follows every referenced name it can
resolve statically — other dataclasses in the scanned tree (recursing
into *their* fields) and module-level type aliases such as
``WorkerOp = Union[...]``.  An annotation atom on the deny list is an
error; unknown names are assumed picklable (conservative — the rule
proves the failures it can see, it does not guess).  Field *defaults*
are also checked: a lambda default is unpicklable regardless of the
annotation.

Off-field memos: the default pickle of a dataclass ships ``__dict__``,
not its fields.  A wire-reachable dataclass that stashes a memo with
``object.__setattr__(self, "_cache", ...)`` under a name that is not one
of its annotated fields therefore ships the memo — and whatever it
references — behind every message that carries an instance.  Such a
class must define ``__getstate__`` (or ``__reduce__`` /
``__reduce_ex__``) so it pickles its declared state only.

Large-buffer note (docs/STATIC_ANALYSIS.md): fields typed ``bytes`` /
``bytearray`` / ``memoryview`` are fine — protocol 5 ships them
out-of-band (:func:`repro.runtime.fabric.pack_frame`), which is the
sanctioned path for bulk payloads like index snapshots.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .framework import WIRE_TABLES, Finding, Project, Rule, SourceFile, dotted_name

__all__ = ["PickleSafetyRule"]

#: Annotation atoms that cannot cross a pickled frame.
_UNPICKLABLE = {
    "Callable": "callables (lambdas, bound methods, closures) do not pickle; "
    "ship a module-level function or a picklable spec instead",
    "lambda": "lambdas do not pickle",
    "Lock": "locks are process-local kernel state",
    "RLock": "locks are process-local kernel state",
    "Condition": "condition variables are process-local kernel state",
    "Semaphore": "semaphores are process-local kernel state",
    "Event": "events are process-local kernel state",
    "socket": "sockets are process-local file descriptors",
    "Socket": "sockets are process-local file descriptors",
    "IO": "open file handles are process-local file descriptors",
    "TextIO": "open file handles are process-local file descriptors",
    "BinaryIO": "open file handles are process-local file descriptors",
    "TextIOWrapper": "open file handles are process-local file descriptors",
    "Generator": "generators carry a live frame and do not pickle",
    "Iterator": "iterators are exhausted-by-read and usually do not pickle; "
    "materialise into a tuple before shipping",
    "Queue": "multiprocessing queues do not survive re-pickling across "
    "unrelated processes",
    "SimpleQueue": "multiprocessing queues do not survive re-pickling across "
    "unrelated processes",
    "Thread": "threads are process-local",
    "Process": "process handles are process-local",
}

#: Event vocabularies: every subclass is serialised (over the fabric in an
#: ``Observation`` reply, or into the telemetry JSONL sink) like a message.
_EVENT_BASES = ("TelemetryEvent", "ProfileEvent")

#: Methods that take over what a class pickles.
_STATE_HOOKS = ("__getstate__", "__reduce__", "__reduce_ex__")


def _atom_names(node: ast.expr) -> Set[str]:
    """Trailing names of every dotted atom in an annotation expression."""
    names: Set[str] = set()
    stack: List[ast.expr] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Attribute):
            name = dotted_name(current)
            if name is not None:
                names.add(name.rpartition(".")[2])
                continue
        if isinstance(current, ast.Name):
            names.add(current.id)
            continue
        if isinstance(current, ast.Constant) and isinstance(current.value, str):
            # A string annotation: parse and recurse.
            try:
                parsed = ast.parse(current.value, mode="eval").body
            except SyntaxError:
                continue
            stack.append(parsed)
            continue
        stack.extend(ast.iter_child_nodes(current))  # type: ignore[arg-type]
    return names


class PickleSafetyRule(Rule):
    rule_id = "RL003"
    summary = "wire-crossing dataclasses and events pickle transitively and ship declared fields only"

    def check(self, project: Project) -> Iterator[Finding]:
        events = {node.name for _, node in project.subclasses(*_EVENT_BASES)}
        visited: Set[str] = set()
        for name in sorted(project.registry_names(WIRE_TABLES) | events):
            yield from self._check_dataclass(project, name, name, visited)

    def _check_dataclass(
        self, project: Project, name: str, root: str, visited: Set[str]
    ) -> Iterator[Finding]:
        if name in visited:
            return
        visited.add(name)
        resolved = project.dataclass(name)
        if resolved is None:
            return
        source, class_def = resolved
        yield from self._check_memos(source, class_def, root)
        for node in class_def.body:
            if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
                continue
            field_name = node.target.id
            if node.value is not None:
                yield from self._check_default(
                    source, node.value, name, field_name
                )
            yield from self._check_annotation(
                project, source, node, name, field_name, root, visited
            )

    def _check_annotation(
        self,
        project: Project,
        source: SourceFile,
        node: ast.AnnAssign,
        class_name: str,
        field_name: str,
        root: str,
        visited: Set[str],
    ) -> Iterator[Finding]:
        atoms = _atom_names(node.annotation)
        via = "" if class_name == root else " (reached from wire message %s)" % root
        for atom in sorted(atoms):
            reason = _UNPICKLABLE.get(atom)
            if reason is not None:
                yield self.finding(
                    source,
                    node,
                    "field %s.%s is annotated with %s, which cannot cross a "
                    "pickled frame%s: %s" % (class_name, field_name, atom, via, reason),
                )
        # Recurse into referenced dataclasses and module-level aliases.
        for atom in sorted(atoms):
            if project.dataclass(atom) is not None and atom != class_name:
                yield from self._check_dataclass(project, atom, root, visited)
            else:
                alias = project.alias(atom)
                if alias is not None and atom not in visited:
                    visited.add(atom)
                    alias_source, alias_expr = alias
                    for alias_atom in sorted(_atom_names(alias_expr)):
                        if project.dataclass(alias_atom) is not None:
                            yield from self._check_dataclass(
                                project, alias_atom, root, visited
                            )

    def _check_memos(
        self, source: SourceFile, class_def: ast.ClassDef, root: str
    ) -> Iterator[Finding]:
        """Off-field ``object.__setattr__`` memos need a state hook."""
        if any(
            isinstance(node, ast.FunctionDef) and node.name in _STATE_HOOKS
            for node in class_def.body
        ):
            return
        declared = {
            node.target.id
            for node in class_def.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        }
        via = "" if class_def.name == root else " (reached from wire message %s)" % root
        for call in ast.walk(class_def):
            if not isinstance(call, ast.Call) or dotted_name(call.func) != "object.__setattr__":
                continue
            if len(call.args) < 2 or not isinstance(call.args[1], ast.Constant):
                continue
            attribute = call.args[1].value
            if isinstance(attribute, str) and attribute not in declared:
                yield self.finding(
                    source,
                    call,
                    "%s stores the off-field memo %r on a wire-crossing "
                    "dataclass%s: the default pickle ships __dict__, so the "
                    "memo and everything it references ride behind every "
                    "message; define __reduce__ (or __getstate__) shipping "
                    "the declared fields only" % (class_def.name, attribute, via),
                )

    def _check_default(
        self, source: SourceFile, default: ast.expr, class_name: str, field_name: str
    ) -> Iterator[Finding]:
        for child in ast.walk(default):
            if isinstance(child, ast.Lambda):
                yield self.finding(
                    source,
                    child,
                    "field %s.%s has a lambda default; lambdas do not pickle "
                    "and poison every message carrying the default"
                    % (class_name, field_name),
                )
