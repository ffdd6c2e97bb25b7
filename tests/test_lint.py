"""Tests for the ``repro lint`` static-analysis suite.

Each RL00x rule is proven twice — it *flags* a known-bad fixture and it
*passes* the fixture's known-good twin — plus suppression handling, the
CLI surface (exit codes, ``--json``) and two meta-checks that keep the
suite honest: the linter must be clean on this repository, and the
declarative registry in :mod:`repro.runtime.protocol` (which the linter
reads as literals) must match the real runtime modules (which this test
imports for real), so the two views cannot drift apart silently.
"""

import dataclasses
import importlib
import io
import json
import textwrap


from repro.cli import main as cli_main
from repro.lint import build_project, collect_files, run_lint
from repro.lint.rl001_protocol import ProtocolCompletenessRule
from repro.lint.rl002_determinism import DeterminismRule
from repro.lint.rl003_pickle import PickleSafetyRule
from repro.lint.rl004_serve import ServeLoopDisciplineRule
from repro.lint.rl005_fence import FenceDisciplineRule
from repro.lint.rl006_telemetry import TelemetryProtocolRule
from repro.lint.rl007_profiling import ProfilingDisciplineRule
from repro.lint import rl008_callers
from repro.lint.runner import main as lint_main, repo_root
from repro.runtime import WorkerNode, protocol


def lint_source(tmp_path, source, rules, name="fixture.py"):
    """Write ``source`` to a file and run ``rules`` over it."""
    path = tmp_path / name
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
            try:
                return self._apply(message)
            except:
                return None
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
        assert len(findings) == 3
        assert any("time.sleep" in message for message in messages)
        assert any("except-and-drop" in message for message in messages)
        assert any("bare except" in message for message in messages)

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
# RL006 — telemetry and profile events registered and pickle-safe
# ----------------------------------------------------------------------
_RL006_BAD = """
    from dataclasses import dataclass
    from typing import Callable

    MESSAGE_ROUTING = {"worker": ()}
    INTERNAL_DATACLASSES = ("GoodSpan",)

    class TelemetryEvent:
        __slots__ = ()

    @dataclass(frozen=True)
    class GoodSpan(TelemetryEvent):
        stage: str
        callback: Callable[[], None]

    @dataclass(frozen=True)
    class RogueEvent(TelemetryEvent):
        seq: int
"""

_RL006_GOOD = """
    from dataclasses import dataclass
    from typing import Tuple

    MESSAGE_ROUTING = {"worker": ()}
    INTERNAL_DATACLASSES = ("GoodSpan", "NestedSpan")

    class TelemetryEvent:
        __slots__ = ()

    @dataclass(frozen=True)
    class GoodSpan(TelemetryEvent):
        stage: str
        elapsed_ms: float

    @dataclass(frozen=True)
    class NestedSpan(GoodSpan):
        hops: Tuple[int, ...] = ()
"""


_RL006_PROFILE_BAD = """
    from dataclasses import dataclass
    from typing import Callable

    MESSAGE_ROUTING = {"worker": ()}
    PAYLOAD_DATACLASSES = ("GoodProfile",)

    class ProfileEvent:
        __slots__ = ()

    @dataclass(frozen=True)
    class GoodProfile(ProfileEvent):
        endpoint_id: int
        on_flush: Callable[[], None]

    @dataclass(frozen=True)
    class RogueProfile(ProfileEvent):
        endpoint_id: int
"""

_RL006_PROFILE_GOOD = """
    from dataclasses import dataclass

    MESSAGE_ROUTING = {"worker": ()}
    PAYLOAD_DATACLASSES = ("GoodProfile", "NestedProfile")

    class ProfileEvent:
        __slots__ = ()

    @dataclass(frozen=True)
    class GoodProfile(ProfileEvent):
        endpoint_id: int
        matches: int

    @dataclass(frozen=True)
    class NestedProfile(GoodProfile):
        candidates: int = 0
"""


class TestRL006:
    RULES = (TelemetryProtocolRule(),)

    def test_flags_unregistered_and_unpicklable_events(self, tmp_path):
        findings = lint_source(tmp_path, _RL006_BAD, self.RULES)
        assert len(findings) == 2
        messages = " ".join(finding.message for finding in findings)
        assert "RogueEvent is not classified" in messages
        assert "GoodSpan.callback" in messages
        assert all(finding.rule == "RL006" for finding in findings)

    def test_passes_registered_picklable_events(self, tmp_path):
        # Also proves transitive subclasses (NestedSpan via GoodSpan)
        # are discovered by the base-name closure.
        assert lint_source(tmp_path, _RL006_GOOD, self.RULES) == []

    def test_flags_unregistered_and_unpicklable_profile_events(self, tmp_path):
        findings = lint_source(tmp_path, _RL006_PROFILE_BAD, self.RULES)
        assert len(findings) == 2
        messages = " ".join(finding.message for finding in findings)
        assert "RogueProfile is not classified" in messages
        assert "GoodProfile.on_flush" in messages
        assert all(finding.rule == "RL006" for finding in findings)

    def test_passes_registered_picklable_profile_events(self, tmp_path):
        # Also proves transitive subclasses (NestedProfile via
        # GoodProfile) are discovered by the base-name closure.
        assert lint_source(tmp_path, _RL006_PROFILE_GOOD, self.RULES) == []

    def test_ignores_projects_without_telemetry(self, tmp_path):
        assert lint_source(tmp_path, "X = 1\n", self.RULES) == []

    def test_real_telemetry_events_are_registered(self):
        # Drift guard against the real tree: every TelemetryEvent
        # subclass the runtime defines must be classified and clean.
        import repro.runtime.telemetry as telemetry_module

        names = {
            name
            for name, value in vars(telemetry_module).items()
            if isinstance(value, type)
            and issubclass(value, telemetry_module.TelemetryEvent)
            and value is not telemetry_module.TelemetryEvent
        }
        assert names == {"SpanHop", "WindowSpan", "GaugeSample", "LifecycleEvent"}
        registered = (
            set(protocol.REPLY_MESSAGES)
            | set(protocol.PAYLOAD_DATACLASSES)
            | set(protocol.INTERNAL_DATACLASSES)
        )
        assert names <= registered

    def test_real_profiling_events_are_registered(self):
        # Drift guard against the real tree: every ProfileEvent subclass
        # the runtime defines must be classified in the registry.
        import repro.runtime.profiling as profiling_module

        names = {
            name
            for name, value in vars(profiling_module).items()
            if isinstance(value, type)
            and issubclass(value, profiling_module.ProfileEvent)
            and value is not profiling_module.ProfileEvent
        }
        assert names == {"MatchProfile", "RouteProfile", "DedupProfile"}
        registered = (
            set(protocol.REPLY_MESSAGES)
            | set(protocol.PAYLOAD_DATACLASSES)
            | set(protocol.INTERNAL_DATACLASSES)
        )
        assert names <= registered


# ----------------------------------------------------------------------
# RL007 — index hot loops timer-free
# ----------------------------------------------------------------------
class TestRL007:
    RULES = (ProfilingDisciplineRule(),)

    def test_flags_timer_in_hot_loop_file(self, tmp_path):
        source = """
            import time

            def match_batch(objects):
                started = time.perf_counter()
                return time.perf_counter() - started
        """
        findings = lint_source(tmp_path, source, self.RULES, name="gi2.py")
        assert len(findings) == 2
        assert all(finding.rule == "RL007" for finding in findings)
        assert "time.perf_counter" in findings[0].message

    def test_flags_from_imported_timer_in_gridt(self, tmp_path):
        source = """
            from time import monotonic

            def route_object_batch(objects):
                return monotonic()
        """
        findings = lint_source(tmp_path, source, self.RULES, name="gridt.py")
        assert len(findings) == 1
        assert "monotonic" in findings[0].message

    def test_timers_allowed_outside_hot_loop_files(self, tmp_path):
        source = """
            import time

            def stamp():
                return time.perf_counter()
        """
        assert lint_source(tmp_path, source, self.RULES, name="harness.py") == []

    def test_ignores_projects_without_profiling(self, tmp_path):
        assert lint_source(tmp_path, "X = 1\n", self.RULES) == []


# ----------------------------------------------------------------------
# RL008 — every def has a caller
# ----------------------------------------------------------------------
def lint_package(tmp_path, source, rules):
    """Lint ``source`` as a module of the ``repro`` package (RL008's scope)."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    return lint_source(package, source, rules, name="module.py")


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

    def test_json_output_is_machine_readable(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("SHARD = hash('a')\n")
        code, output = run_lint_cli(["--json", str(path)])
        assert code == 1
        payload = json.loads(output)
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "RL002"
        assert payload["findings"][0]["line"] == 1

    def test_rules_subset_and_unknown_rule(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("SHARD = hash('a')\n")
        code, _ = run_lint_cli(["--rules", "RL004", str(path)])
        assert code == 0  # RL002 finding filtered out by the subset
        code, output = run_lint_cli(["--rules", "RL999", str(path)])
        assert code == 2
        assert "unknown rule" in output

    def test_list_rules(self):
        code, output = run_lint_cli(["--list-rules"])
        assert code == 0
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008"):
            assert rule_id in output

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

    def test_tests_directory_parses_and_lints(self):
        # The test tree is not part of the default roots (fixtures in
        # docstrings would trip the rules), but it must at least parse.
        tests_dir = repo_root() / "tests"
        assert tests_dir.is_dir()


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
