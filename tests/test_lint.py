"""Tests for the ``repro lint`` static-analysis suite.

Each RL00x rule is proven twice — it *flags* a known-bad fixture and it
*passes* the fixture's known-good twin — plus suppression handling, the
CLI surface (exit codes, ``--list-rules``) and two meta-checks that keep the
suite honest: the linter must be clean on this repository, and the
declarative registry in :mod:`repro.runtime.protocol` (which the linter
reads as literals) must match the real runtime modules (which this test
imports for real), so the two views cannot drift apart silently.
"""

import dataclasses
import importlib
import io
import re
import shutil
import subprocess
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import build_project, collect_files, run_lint
from repro.lint.rl001_protocol import ProtocolCompletenessRule
from repro.lint.rl002_determinism import DeterminismRule
from repro.lint.rl003_pickle import PickleSafetyRule
from repro.lint.rl004_serve import ServeLoopDisciplineRule
from repro.lint.rl005_fence import FenceDisciplineRule
from repro.lint import rl008_callers
from repro.lint.runner import main as lint_main, repo_root
from repro.runtime import WorkerNode, protocol


def lint_source(tmp_path, source, rules, name="fixture.py"):
    """Write ``source`` to ``tmp_path / name`` and run ``rules`` over it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    project = build_project([path], root=tmp_path)
    return run_lint(project, rules)


def run_lint_cli(argv):
    buffer = io.StringIO()
    code = lint_main(argv, out=buffer)
    return code, buffer.getvalue()


# ----------------------------------------------------------------------
# RL001 — protocol completeness
# ----------------------------------------------------------------------
_RL001_BAD = """
    from dataclasses import dataclass

    MESSAGE_ROUTING = {"worker": ("Ping", "Pong")}
    ROLE_HOSTS = {"worker": "MiniHost"}

    @dataclass(frozen=True)
    class Ping:
        term: str

    @dataclass(frozen=True)
    class Pong:
        term: str

    class MiniHost:
        def handle(self, message):
            kind = type(message)
            if kind is Ping:
                return message.term
            raise TypeError(kind)
"""

_RL001_GOOD = """
    from dataclasses import dataclass

    MESSAGE_ROUTING = {"worker": ("Ping", "Pong")}
    ROLE_HOSTS = {"worker": "MiniHost"}

    @dataclass(frozen=True)
    class Ping:
        term: str

    @dataclass(frozen=True)
    class Pong:
        term: str

    class MiniHost:
        def handle(self, message):
            kind = type(message)
            if kind is Ping:
                return message.term
            if kind is Pong:
                return message.term
            raise TypeError(kind)
"""


class TestRL001:
    RULES = (ProtocolCompletenessRule(),)

    def test_flags_undispatched_message(self, tmp_path):
        findings = lint_source(tmp_path, _RL001_BAD, self.RULES)
        assert len(findings) == 1
        assert findings[0].rule == "RL001"
        assert "Pong" in findings[0].message

    def test_passes_complete_dispatch(self, tmp_path):
        assert lint_source(tmp_path, _RL001_GOOD, self.RULES) == []

    def test_flags_unregistered_message_name(self, tmp_path):
        source = """
            MESSAGE_ROUTING = {"worker": ("Ghost",)}
            ROLE_HOSTS = {}
        """
        findings = lint_source(tmp_path, source, self.RULES)
        assert any("Ghost" in finding.message for finding in findings)


# The checkpoint/recovery protocol (PR 8) rides the same registry: a
# recovery-shaped message dataclass living in a PROTOCOL_MODULES module
# but absent from every classification table must fail RL001.
_RECOVERY_REGISTRY = """
    MESSAGE_ROUTING = {"worker": ("SnapshotAssignments",)}
    ROLE_HOSTS = {"worker": "MiniWorkerHost"}
    REPLY_MESSAGES = ("WorkerSnapshot",)
    PROTOCOL_MODULES = ("recovery_fixture",)

    class MiniWorkerHost:
        def handle(self, message):
            kind = type(message)
            if kind is SnapshotAssignments:
                return WorkerSnapshot(0, ())
            raise TypeError(kind)
"""

_RECOVERY_MODULE = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class SnapshotAssignments:
        pass

    @dataclass(frozen=True)
    class WorkerSnapshot:
        worker_id: int
        assignments: tuple

    @dataclass(frozen=True)
    class RequestRecovery:
        worker_id: int
        epoch: int
"""


class TestRL001RecoveryProtocol:
    RULES = (ProtocolCompletenessRule(),)

    def lint_fixture(self, tmp_path, registry_source, module_source):
        registry = tmp_path / "registry.py"
        registry.write_text(textwrap.dedent(registry_source))
        src = tmp_path / "src"
        src.mkdir()
        module = src / "recovery_fixture.py"
        module.write_text(textwrap.dedent(module_source))
        project = build_project([registry, module], root=tmp_path)
        return run_lint(project, self.RULES)

    def test_unregistered_recovery_message_fails(self, tmp_path):
        findings = self.lint_fixture(tmp_path, _RECOVERY_REGISTRY, _RECOVERY_MODULE)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "RL001"
        assert "RequestRecovery" in finding.message
        assert "not classified" in finding.message
        assert finding.path.endswith("recovery_fixture.py")

    def test_registered_recovery_protocol_passes(self, tmp_path):
        registry = _RECOVERY_REGISTRY.replace(
            'REPLY_MESSAGES = ("WorkerSnapshot",)',
            'REPLY_MESSAGES = ("WorkerSnapshot",)\n'
            '    INTERNAL_DATACLASSES = ("RequestRecovery",)',
        )
        assert self.lint_fixture(tmp_path, registry, _RECOVERY_MODULE) == []

    def test_real_recovery_messages_are_registered(self):
        """Drift guard: the real snapshot protocol is classified today —
        a ``snapshot_assignments`` control operation inside a ``WorkerCall``."""
        assert "WorkerCall" in protocol.MESSAGE_ROUTING["worker"]
        assert "snapshot_assignments" in WorkerNode.CONTROL_SURFACE
        assert "repro.runtime.checkpoint" in protocol.PROTOCOL_MODULES
        for name in ("Checkpoint", "RecoveryEvent", "RecoveryReport"):
            assert name in protocol.INTERNAL_DATACLASSES


# ----------------------------------------------------------------------
# RL002 — cross-process determinism
# ----------------------------------------------------------------------
_RL002_BAD = """
    def shard_of(term, mod):
        return hash(term) % mod

    def scan(cells):
        for cell in set(cells):
            yield cell

    def order(cells):
        return list({cell for cell in cells})
"""

_RL002_GOOD = """
    import zlib

    def shard_of(term, mod):
        return zlib.crc32(term.encode("utf-8")) % mod

    def scan(cells):
        for cell in sorted(set(cells)):
            yield cell

    def order(cells):
        return sorted({cell for cell in cells})
"""


class TestRL002:
    RULES = (DeterminismRule(),)

    def test_flags_all_three_shapes(self, tmp_path):
        findings = lint_source(tmp_path, _RL002_BAD, self.RULES)
        messages = [finding.message for finding in findings]
        assert len(findings) == 3
        assert any("hash()" in message for message in messages)
        assert any("iteration over a set" in message for message in messages)
        assert any("list(set)" in message for message in messages)

    def test_passes_sorted_and_crc32(self, tmp_path):
        assert lint_source(tmp_path, _RL002_GOOD, self.RULES) == []

    def test_flags_comprehension_over_set(self, tmp_path):
        source = """
            def fanout(workers):
                return [w for w in {workers}]
        """
        findings = lint_source(tmp_path, source, self.RULES)
        assert len(findings) == 1
        assert "comprehension over a set" in findings[0].message


# ----------------------------------------------------------------------
# RL003 — pickle/frame safety
# ----------------------------------------------------------------------
_RL003_BAD = """
    from dataclasses import dataclass, field
    from threading import Lock
    from typing import Callable, Optional, Union

    MESSAGE_ROUTING = {"worker": ("Envelope",)}
    ROLE_HOSTS = {}

    Payload = Union["Inner", int]

    @dataclass(frozen=True)
    class Inner:
        guard: Lock

    @dataclass(frozen=True)
    class Envelope:
        payload: Payload
        hook: Optional[Callable[[int], int]] = None
"""

_RL003_GOOD = """
    from dataclasses import dataclass
    from typing import Optional, Tuple, Union

    MESSAGE_ROUTING = {"worker": ("Envelope",)}
    ROLE_HOSTS = {}

    Payload = Union["Inner", int]

    @dataclass(frozen=True)
    class Inner:
        blob: bytes

    @dataclass(frozen=True)
    class Envelope:
        payload: Payload
        tags: Tuple[str, ...] = ()
        note: Optional[str] = None
"""


class TestRL003:
    RULES = (PickleSafetyRule(),)

    def test_flags_direct_and_transitive_fields(self, tmp_path):
        findings = lint_source(tmp_path, _RL003_BAD, self.RULES)
        messages = [finding.message for finding in findings]
        # Callable on the wire message itself, Lock reached through the
        # Payload alias into the nested dataclass.
        assert any("Envelope.hook" in message and "Callable" in message for message in messages)
        assert any("Inner.guard" in message and "Lock" in message for message in messages)

    def test_passes_picklable_fields(self, tmp_path):
        assert lint_source(tmp_path, _RL003_GOOD, self.RULES) == []

    def test_flags_lambda_default(self, tmp_path):
        source = """
            from dataclasses import dataclass

            MESSAGE_ROUTING = {"worker": ("Job",)}
            ROLE_HOSTS = {}

            @dataclass
            class Job:
                key = lambda self: 0
                cost: object = lambda: 1
        """
        findings = lint_source(tmp_path, source, self.RULES)
        assert any("lambda default" in finding.message for finding in findings)

    # One template, five variants: the memo site is the same, what differs
    # is whether the class is on the wire, declares the attribute, or
    # takes over its own pickling.
    _MEMO = """
        from dataclasses import dataclass

        MESSAGE_ROUTING = {"worker": (%(message)r,)}
        ROLE_HOSTS = {}

        @dataclass(frozen=True)
        class Expr:
            clauses: tuple
            %(declared)s

            def __post_init__(self):
                object.__setattr__(self, "width", len(self.clauses))

            def keys(self, statistics):
                object.__setattr__(self, "_keys", (statistics, 1))
                return 1
            %(hook)s

        @dataclass
        class Insert:
            expression: Expr

        @dataclass
        class Ping:
            epoch: int
    """
    _GETSTATE = "def __getstate__(self): return {'clauses': self.clauses}"

    def _lint_memo(self, tmp_path, message="Insert", declared="width: int = 0", hook=""):
        source = self._MEMO % {"message": message, "declared": declared, "hook": hook}
        return lint_source(tmp_path, source, self.RULES)

    def test_flags_off_field_memo_without_getstate(self, tmp_path):
        findings = self._lint_memo(tmp_path)
        assert len(findings) == 1
        message = findings[0].message
        assert "Expr" in message and "'_keys'" in message
        assert "reached from wire message Insert" in message

    def test_passes_off_field_memo_with_getstate(self, tmp_path):
        assert self._lint_memo(tmp_path, hook=self._GETSTATE) == []

    def test_passes_off_field_memo_with_positional_reduce(self, tmp_path):
        hook = "def __reduce__(self): return (type(self), (self.clauses,))"
        assert self._lint_memo(tmp_path, hook=hook) == []

    def test_passes_off_field_memo_off_the_wire(self, tmp_path):
        assert self._lint_memo(tmp_path, message="Ping") == []

    def test_passes_setattr_of_declared_field(self, tmp_path):
        # ``width`` is set through object.__setattr__ in __post_init__ in
        # every variant and never flagged; declaring ``_keys`` clears the
        # memo site too.
        assert self._lint_memo(tmp_path, declared="width: int = 0; _keys: object = None") == []


# Telemetry and profile events: RL001 part 3 holds every event class in a
# PROTOCOL_MODULES module to the registry, and RL003 walks every transitive
# subclass of the two event bases, wire tables or not (spans are internal,
# yet serialised into the telemetry JSONL sink).
_EVENTS = """
    from dataclasses import dataclass
    from typing import Callable, Tuple

    MESSAGE_ROUTING = {}
    PROTOCOL_MODULES = ("events",)
    INTERNAL_DATACLASSES = ("Good", %(nested)r%(registered)s)

    class %(base)s:
        __slots__ = ()

    @dataclass(frozen=True)
    class Good(%(base)s):
        stage: str

    @dataclass(frozen=True)
    class %(nested)s(Good):
        hops: %(hops)s = ()

    @dataclass(frozen=True)
    class %(rogue)s(%(base)s):
        seq: int
"""


@pytest.mark.parametrize("base, nested, rogue", [
    ("TelemetryEvent", "NestedSpan", "RogueEvent"),
    ("ProfileEvent", "NestedProfile", "RogueProfile"),
])
class TestEvents:
    RULES = (ProtocolCompletenessRule(), PickleSafetyRule())

    def lint_events(self, tmp_path, registered, hops, **names):
        source = _EVENTS % dict(names, registered=registered, hops=hops)
        return lint_source(tmp_path, source, self.RULES, name="src/events.py")

    def test_flags_unregistered_and_unpicklable_events(self, tmp_path, base, nested, rogue):
        findings = self.lint_events(
            tmp_path, "", "Callable[[], None]", base=base, nested=nested, rogue=rogue
        )
        assert [(finding.rule, finding.message.split(" is ")[0]) for finding in findings] == [
            ("RL003", "field %s.hops" % nested),
            ("RL001", "message dataclass %s" % rogue),
        ]

    def test_passes_registered_picklable_events(self, tmp_path, base, nested, rogue):
        findings = self.lint_events(
            tmp_path, ", %r" % rogue, "Tuple[int, ...]", base=base, nested=nested, rogue=rogue
        )
        assert findings == []


# ----------------------------------------------------------------------
# RL004 — serve-loop discipline
# ----------------------------------------------------------------------
_RL004_BAD = """
    import time

    class RoleHost:
        pass

    class BadHost(RoleHost):
        def handle(self, message):
            time.sleep(0.01)
            try:
                return self._apply(message)
            except ValueError:
                pass
"""

_RL004_GOOD = """
    class RoleHost:
        pass

    class GoodHost(RoleHost):
        def handle(self, message):
            try:
                return self._apply(message)
            except KeyError as exc:
                raise TypeError("unroutable message") from exc
"""


class TestRL004:
    RULES = (ServeLoopDisciplineRule(),)

    def test_flags_blocking_and_swallowing(self, tmp_path):
        findings = lint_source(tmp_path, _RL004_BAD, self.RULES)
        messages = [finding.message for finding in findings]
        assert len(findings) == 2
        assert any("time.sleep" in message for message in messages)
        assert any("except-and-drop" in message for message in messages)

    def test_flags_indirect_role_host(self, tmp_path):
        source = """
            import time

            class RoleHost:
                pass

            class BaseHost(RoleHost):
                pass

            class SleepyHost(BaseHost):
                def handle(self, message):
                    time.sleep(1)
                    try:
                        return message.apply()
                    except ValueError:
                        pass
        """
        findings = lint_source(tmp_path, source, self.RULES)
        assert len(findings) == 2
        assert all("role host SleepyHost" in finding.message for finding in findings)

    def test_passes_propagating_handler(self, tmp_path):
        assert lint_source(tmp_path, _RL004_GOOD, self.RULES) == []

    def test_ignores_classes_outside_role_hosts(self, tmp_path):
        source = """
            import time

            class NotAHost:
                def poll(self):
                    time.sleep(0.5)
                    try:
                        self.tick()
                    except Exception:
                        pass
        """
        assert lint_source(tmp_path, source, self.RULES) == []


# ----------------------------------------------------------------------
# RL005 — fence discipline
# ----------------------------------------------------------------------
_RL005_BAD = """
    from repro.runtime.protocol import mutates_routing

    @mutates_routing
    def rewire(index):
        index.cells.clear()

    def window_hot_path(index):
        rewire(index)
"""

_RL005_GOOD_BUMPS = """
    from repro.runtime.protocol import mutates_routing

    @mutates_routing
    def rewire(cluster):
        cluster.routing_index.clear()
        cluster.invalidate_routing_caches()

    def window_hot_path(cluster):
        rewire(cluster)
"""

_RL005_GOOD_BARRIER = """
    from repro.runtime.protocol import barrier_context, mutates_routing

    @mutates_routing
    def rewire(index):
        index.cells.clear()

    @barrier_context
    def adjustment_round(index):
        rewire(index)
"""


class TestRL005:
    RULES = (FenceDisciplineRule(),)

    def test_flags_unfenced_mutator_call(self, tmp_path):
        findings = lint_source(tmp_path, _RL005_BAD, self.RULES)
        assert len(findings) == 1
        assert "rewire" in findings[0].message
        assert "window_hot_path" in findings[0].message

    def test_passes_mutator_that_bumps(self, tmp_path):
        assert lint_source(tmp_path, _RL005_GOOD_BUMPS, self.RULES) == []

    def test_passes_barrier_context_caller(self, tmp_path):
        assert lint_source(tmp_path, _RL005_GOOD_BARRIER, self.RULES) == []

    def test_flags_mutator_with_no_callers_and_no_bump(self, tmp_path):
        source = """
            from repro.runtime.protocol import mutates_routing

            @mutates_routing
            def orphan_rewire(index):
                index.cells.clear()
        """
        findings = lint_source(tmp_path, source, self.RULES)
        assert len(findings) == 1
        assert "orphan_rewire" in findings[0].message


# ----------------------------------------------------------------------
# Timer-free index hot loops: a grep step of the CI lint job
# ----------------------------------------------------------------------
_HOT_LOOP_FILES = ("src/repro/indexes/gi2.py", "src/repro/indexes/gridt.py")


def _ci_step_script(step_name):
    """The ``run: |`` block of the lint-job step whose name starts with
    ``step_name``, read from the CI workflow as text."""
    lines = (repo_root() / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith("- name: " + step_name))
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    script = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        script.append(line.strip())
    return "\n".join(script)


def _run_ci_step(script, root):
    """Exit code of a step script run in ``root`` as GitHub's ``shell:
    bash`` runs it (``bash -eo pipefail``)."""
    command = ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script]
    return subprocess.run(command, cwd=root, capture_output=True, text=True).returncode


class TestTimerFreeHotLoops:
    """The step fails on a clock read in gi2.py or gridt.py, in the
    attribute and the from-import form, and when either file moves."""

    SCRIPT = _ci_step_script("index hot loops are timer-free")

    def run_step(self, root):
        return _run_ci_step(self.SCRIPT, root)

    def copy_tree(self, tmp_path, seeds=None):
        for relative in _HOT_LOOP_FILES:
            target = tmp_path / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            text = (repo_root() / relative).read_text()
            target.write_text(text + (seeds or {}).get(relative, ""))
        return tmp_path

    def test_passes_on_the_tree(self):
        assert self.run_step(repo_root()) == 0

    def test_flags_attribute_timer_in_gi2(self, tmp_path):
        seeded = {_HOT_LOOP_FILES[0]: "\nimport time\n_T0 = time.perf_counter()\n"}
        assert self.run_step(self.copy_tree(tmp_path)) == 0
        assert self.run_step(self.copy_tree(tmp_path, seeded)) != 0

    def test_flags_from_imported_timer_in_gridt(self, tmp_path):
        seeded = {_HOT_LOOP_FILES[1]: "\nfrom time import monotonic\n_T0 = monotonic()\n"}
        assert self.run_step(self.copy_tree(tmp_path, seeded)) != 0

    def test_timers_allowed_outside_hot_loop_files(self, tmp_path):
        self.copy_tree(tmp_path)
        (tmp_path / "src/repro/indexes/harness.py").write_text(
            "import time\n\ndef stamp():\n    return time.perf_counter()\n"
        )
        assert self.run_step(tmp_path) == 0

    def test_fails_when_a_hot_loop_file_moves(self, tmp_path):
        self.copy_tree(tmp_path)
        (tmp_path / _HOT_LOOP_FILES[0]).unlink()
        assert self.run_step(tmp_path) != 0


#: Lint-job steps whose negated greps name files by path, with those
#: paths (a glob stands for every file it matches).  ``! grep`` on a
#: missing file exits 0, so each step lists its files first.
_STEP_FILES = {
    "deployment said once": (
        "src/repro/runtime/transport.py",
        "src/repro/runtime/dispatch.py",
        "src/repro/runtime/merge.py",
    ),
    "where an endpoint lives is decided once": (
        "src/repro/runtime/transport.py",
        "src/repro/runtime/dispatch.py",
        "src/repro/runtime/merge.py",
        "src/repro/runtime/cluster.py",
    ),
    "one worker control plane": ("src/repro/adjustment/*.py", "src/repro/runtime/migration.py"),
    "counters are state": ("src/repro/runtime/merger.py",),
    "the latency trace is priced per signature": ("src/repro/runtime/metrics.py",),
    "derived state is kept where it pays": (
        "src/repro/indexes/gi2.py",
        "src/repro/indexes/gridt.py",
    ),
}


class TestGrepStepsNeedTheirFiles:
    """Each step passes on the tree and fails on a copy of it missing any
    one of the files its negated grep names."""

    @pytest.mark.parametrize("step", sorted(_STEP_FILES))
    def test_passes_on_the_tree(self, step):
        assert _run_ci_step(_ci_step_script(step), repo_root()) == 0

    @pytest.mark.parametrize(
        "step, pattern",
        [(step, pattern) for step in sorted(_STEP_FILES) for pattern in _STEP_FILES[step]],
    )
    def test_fails_when_a_named_file_is_gone(self, tmp_path, step, pattern):
        ignore = shutil.ignore_patterns("__pycache__")
        for top in ("src", "tests", "tools"):
            shutil.copytree(repo_root() / top, tmp_path / top, ignore=ignore)
        assert _run_ci_step(_ci_step_script(step), tmp_path) == 0
        removed = list(tmp_path.glob(pattern))
        assert removed
        for path in removed:
            path.unlink()
        assert _run_ci_step(_ci_step_script(step), tmp_path) != 0


def test_ruff_enforces_bare_except():
    """RL004 leaves bare ``except:`` to ruff's E722: the ruff config must
    keep selecting it (through ``E7``) and must not ignore it."""
    text = (repo_root() / "pyproject.toml").read_text()
    section = text.split("[tool.ruff.lint]", 1)[1].split("\n[", 1)[0]
    select = re.search(r"select\s*=\s*\[(.*?)\]", section, re.S).group(1)
    ignore = re.search(r"ignore\s*=\s*\[(.*?)\]", section, re.S)
    selected = set(re.findall(r'"([A-Z]+[0-9]*)"', select))
    ignored = set(re.findall(r'"([A-Z]+[0-9]*)"', ignore.group(1) if ignore else ""))
    assert selected & {"E", "E7", "E72", "E722"}
    assert not ignored & {"E", "E7", "E72", "E722"}


# ----------------------------------------------------------------------
# Framework helpers shared by the rules
# ----------------------------------------------------------------------
_HIERARCHY = """
    MESSAGE_ROUTING = {"worker": ("Ping",), "merger": ("Merge", "Ping")}
    REPLY_MESSAGES = ("Pong",)
    INTERNAL_DATACLASSES = ("Span",)

    class RoleHost:
        pass

    class BaseHost(RoleHost):
        pass

    class LeafHost(BaseHost):
        pass

    class OtherHost(module.RoleHost):
        pass

    class Unrelated:
        pass
"""


class TestFramework:
    def project(self, tmp_path, source):
        path = tmp_path / "fixture.py"
        path.write_text(textwrap.dedent(source))
        return build_project([path], root=tmp_path)

    def test_subclasses_follow_every_chain(self, tmp_path):
        found = self.project(tmp_path, _HIERARCHY).subclasses("RoleHost")
        assert sorted(node.name for _, node in found) == ["BaseHost", "LeafHost", "OtherHost"]

    def test_registry_names_union_the_tables(self, tmp_path):
        project = self.project(tmp_path, _HIERARCHY)
        assert project.registry_names() == {"Ping", "Merge", "Pong", "Span"}
        assert project.registry_names(("REPLY_MESSAGES",)) == {"Pong"}

    def test_registry_names_without_a_registry(self, tmp_path):
        assert self.project(tmp_path, "X = 1\n").registry_names() == set()


# ----------------------------------------------------------------------
# RL008 — every def has a caller
# ----------------------------------------------------------------------
def lint_package(tmp_path, source, rules):
    """Lint ``source`` as a module of the ``repro`` package (RL008's scope)."""
    return lint_source(tmp_path, source, rules, name="src/repro/module.py")


class TestRL008:
    RULES = (rl008_callers.CallerRule(),)

    def test_flags_uncalled_def(self, tmp_path):
        source = """
            def used():
                return 1

            def unused():
                return used()
        """
        findings = lint_package(tmp_path, source, self.RULES)
        assert [finding.message.split()[:2] for finding in findings] == [["def", "unused"]]
        assert findings[0].line == 5

    def test_flags_def_named_only_in_all(self, tmp_path):
        source = """
            __all__ = ["exported"]

            def exported():
                return 1
        """
        findings = lint_package(tmp_path, source, self.RULES)
        assert len(findings) == 1
        assert "exported" in findings[0].message

    def test_passes_def_reached_through_a_string(self, tmp_path):
        source = """
            class Node:
                SURFACE = ("extract_cells",)

                def extract_cells(self):
                    return []

                def call(self, name):
                    return getattr(self, name)()

            def serve(node):
                return node.call(Node.SURFACE[0])
        """
        findings = lint_package(tmp_path, source, self.RULES)
        assert [finding.message.split()[1] for finding in findings] == ["serve"]

    def test_passes_allowlisted_def(self, tmp_path):
        source = """
            def route_query(query):
                return {0}
        """
        assert "route_query" in rl008_callers.ALLOWED
        assert lint_package(tmp_path, source, self.RULES) == []

    def test_ignores_files_outside_the_package(self, tmp_path):
        assert lint_source(tmp_path, "def unused():\n    pass\n", self.RULES) == []

    def test_passes_method_called_through_an_attribute(self, tmp_path):
        source = """
            class Index:
                def probe(self):
                    return 0

            INDEX = Index()
            VALUE = INDEX.probe()
        """
        assert lint_package(tmp_path, source, self.RULES) == []

    def test_flags_uncalled_class(self, tmp_path):
        source = """
            class Orphan:
                pass
        """
        findings = lint_package(tmp_path, source, self.RULES)
        assert [finding.message.split()[:2] for finding in findings] == [["class", "Orphan"]]

    def test_dunders_are_exempt(self, tmp_path):
        source = """
            class Box:
                def __init__(self):
                    self.items = []

                def __len__(self):
                    return len(self.items)

            BOX = Box()
        """
        assert lint_package(tmp_path, source, self.RULES) == []

    def test_import_alone_is_not_a_use(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "helpers.py").write_text("def helper():\n    return 1\n")
        (package / "user.py").write_text("from .helpers import helper\n")
        project = build_project(
            [package / "helpers.py", package / "user.py"], root=package
        )
        findings = run_lint(project, self.RULES)
        assert [finding.message.split()[:2] for finding in findings] == [["def", "helper"]]

    def test_allowlist_is_exactly_what_the_rule_would_flag(self, monkeypatch):
        """Every entry still needs its exemption, and each says why."""
        allowed = dict(rl008_callers.ALLOWED)
        assert len(allowed) <= 25
        assert all(reason.strip() for reason in allowed.values())
        monkeypatch.setattr(rl008_callers, "ALLOWED", {})
        root = repo_root()
        project = build_project(collect_files([root / "src" / "repro"]), root)
        flagged = {finding.message.split()[1] for finding in run_lint(project, self.RULES)}
        assert flagged == set(allowed)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_disable_silences_named_rule(self, tmp_path):
        source = """
            def shard_of(term, mod):
                return hash(term) % mod  # repro-lint: disable=RL002
        """
        assert lint_source(tmp_path, source, (DeterminismRule(),)) == []

    def test_disable_all_silences_every_rule(self, tmp_path):
        source = """
            def shard_of(term, mod):
                return hash(term) % mod  # repro-lint: disable=all
        """
        assert lint_source(tmp_path, source, (DeterminismRule(),)) == []

    def test_disable_of_other_rule_does_not_silence(self, tmp_path):
        source = """
            def shard_of(term, mod):
                return hash(term) % mod  # repro-lint: disable=RL004
        """
        findings = lint_source(tmp_path, source, (DeterminismRule(),))
        assert len(findings) == 1


# ----------------------------------------------------------------------
# Runner and CLI surface
# ----------------------------------------------------------------------
class TestRunner:
    def test_clean_file_exits_zero(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("X = 1\n")
        code, output = run_lint_cli([str(path)])
        assert code == 0
        assert "clean" in output

    def test_findings_exit_one(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("SHARD = hash('a')\n")
        code, output = run_lint_cli([str(path)])
        assert code == 1
        assert "RL002" in output

    def test_missing_path_exits_two(self, tmp_path):
        code, output = run_lint_cli([str(tmp_path / "absent.py")])
        assert code == 2

    def test_syntax_error_exits_two(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        code, output = run_lint_cli([str(path)])
        assert code == 2
        assert "cannot parse" in output

    def test_list_rules_through_repro_cli(self):
        buffer = io.StringIO()
        assert cli_main(["lint", "--list-rules"], out=buffer) == 0
        listed = [line.split()[0] for line in buffer.getvalue().splitlines()]
        assert listed == ["RL001", "RL002", "RL003", "RL004", "RL005", "RL008"]

    def test_repro_cli_lint_subcommand(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("SHARD = hash('a')\n")
        buffer = io.StringIO()
        assert cli_main(["lint", str(path)], out=buffer) == 1
        assert "RL002" in buffer.getvalue()


# ----------------------------------------------------------------------
# Meta-checks: the repo itself, and registry/runtime agreement
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_default_roots_are_clean(self):
        code, output = run_lint_cli([])
        assert code == 0, "repro lint found violations in the repo:\n" + output


class TestRegistryMatchesRuntime:
    """Import the runtime for real and hold it against the registry the
    linter reads statically — the drift guard for RL001/RL003."""

    def _resolve(self, name):
        for module_name in protocol.PROTOCOL_MODULES:
            module = importlib.import_module(module_name)
            resolved = getattr(module, name, None)
            if resolved is not None:
                return resolved
        raise AssertionError("registry name %r not found in PROTOCOL_MODULES" % name)

    def test_registered_messages_are_dataclasses(self):
        names = [
            name
            for messages in protocol.MESSAGE_ROUTING.values()
            for name in messages
        ]
        names += list(protocol.REPLY_MESSAGES)
        names += list(protocol.FABRIC_MESSAGES)
        names += list(protocol.PAYLOAD_DATACLASSES)
        for name in names:
            assert dataclasses.is_dataclass(self._resolve(name)), name

    @pytest.mark.parametrize("module_name, base_name, expected", [
        ("repro.runtime.telemetry", "TelemetryEvent",
         {"SpanHop", "WindowSpan", "GaugeSample", "LifecycleEvent"}),
        ("repro.runtime.profiling", "ProfileEvent",
         {"MatchProfile", "RouteProfile", "DedupProfile"}),
    ])
    def test_real_events_are_classified(self, module_name, base_name, expected):
        """RL001 part 3 sees the event classes only because their modules
        are PROTOCOL_MODULES; hold the live subclasses to the registry."""
        classified = (
            set(protocol.REPLY_MESSAGES)
            | set(protocol.PAYLOAD_DATACLASSES)
            | set(protocol.INTERNAL_DATACLASSES)
        )
        module = importlib.import_module(module_name)
        base = getattr(module, base_name)
        assert base.__module__ in protocol.PROTOCOL_MODULES
        names = {
            name
            for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, base) and value is not base
        }
        assert names == expected
        assert names <= classified

    def test_role_hosts_exist_and_are_role_hosts(self):
        from repro.runtime.fabric import RoleHost

        for role, class_name in protocol.ROLE_HOSTS.items():
            host = self._resolve(class_name)
            assert issubclass(host, RoleHost), (role, class_name)

    def test_decorators_mark_and_preserve(self):
        @protocol.mutates_routing
        def mutator():
            return 7

        @protocol.barrier_context
        def fence():
            return 9

        assert mutator.__mutates_routing__ is True
        assert fence.__barrier_context__ is True
        assert mutator() == 7 and fence() == 9

    def test_real_mutators_are_declared(self):
        from repro.runtime.cluster import Cluster

        for name in ("migrate_cells", "migrate_keywords", "replace_routing_index"):
            assert getattr(getattr(Cluster, name), "__mutates_routing__", False), name
        assert getattr(Cluster.run_adjustment, "__barrier_context__", False)
