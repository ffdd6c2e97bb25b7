"""RL007 — the index hot loops stay timer-free.

Invariant (docs/PROFILING.md): the index hot loops never call wall-clock
timers.  Profiling of ``indexes/gi2.py`` and ``indexes/gridt.py`` is
counter-based by design: plain integer accumulation in the loop, one
flush per batch, always on.  A ``time.perf_counter()`` in those files
would put a syscall on the per-object path of every run, so any timer
call there is flagged — wall-clock attribution belongs to the sampling
profiler in :mod:`repro.runtime.profiling`, which runs on its own thread.  (The
``ProfileEvent`` vocabulary itself is audited by RL006, beside the
telemetry events.)

Mechanics: the rule scans every file whose basename is ``gi2.py`` or
``gridt.py`` for calls to ``time.perf_counter`` / ``time.monotonic`` /
``time.process_time`` / ``time.time`` (attribute or from-imported form).
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator, Optional

from .framework import Finding, Project, Rule

__all__ = ["ProfilingDisciplineRule"]

#: Files whose hot loops must stay timer-free.
_HOT_LOOP_FILES = ("gi2.py", "gridt.py")

#: ``time`` module attributes that read a clock.
_TIMER_ATTRS = ("perf_counter", "monotonic", "process_time", "time")

#: From-imported names that read a clock (a bare ``time()`` call is too
#: ambiguous to flag; the attribute form covers ``time.time()``).
_TIMER_NAMES = ("perf_counter", "monotonic", "process_time")


def _timer_call_name(node: ast.Call) -> Optional[str]:
    """The dotted name of a clock-reading call, or None."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _TIMER_ATTRS
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return "time.%s" % func.attr
    if isinstance(func, ast.Name) and func.id in _TIMER_NAMES:
        return func.id
    return None


class ProfilingDisciplineRule(Rule):
    rule_id = "RL007"
    summary = "index hot loops (gi2.py, gridt.py) are timer-free"

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.files:
            if PurePath(source.display_path).name not in _HOT_LOOP_FILES:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _timer_call_name(node)
                if name is None:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    path=source.display_path,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    message="%s() in an index hot-loop file — profiling "
                    "here is counter-based (accumulate plain ints in the "
                    "loop, flush once per batch); "
                    "wall-clock attribution belongs to the sampling "
                    "profiler in repro.runtime.profiling" % name,
                )
