"""Static analysis for the distributed runtime (``repro lint``).

The suite enforces the protocol invariants that unit tests cannot see
locally — routing completeness, cross-process determinism, pickle/frame
safety, serve-loop discipline, routing-fence discipline, telemetry
event hygiene, profiling discipline and "every def has a caller" — by
reading the code as an AST and the declarative registry in
:mod:`repro.runtime.protocol` as literals.  It never imports the code it
checks.  Rule catalog: ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from .framework import Finding, Project, Rule, SourceFile
from .rl001_protocol import ProtocolCompletenessRule
from .rl002_determinism import DeterminismRule
from .rl003_pickle import PickleSafetyRule
from .rl004_serve import ServeLoopDisciplineRule
from .rl005_fence import FenceDisciplineRule
from .rl006_telemetry import TelemetryProtocolRule
from .rl007_profiling import ProfilingDisciplineRule
from .rl008_callers import CallerRule
from .runner import ALL_RULES, build_project, collect_files, main, run_lint

__all__ = [
    "ALL_RULES",
    "CallerRule",
    "DeterminismRule",
    "FenceDisciplineRule",
    "Finding",
    "PickleSafetyRule",
    "ProfilingDisciplineRule",
    "Project",
    "ProtocolCompletenessRule",
    "Rule",
    "ServeLoopDisciplineRule",
    "SourceFile",
    "TelemetryProtocolRule",
    "build_project",
    "collect_files",
    "main",
    "run_lint",
]
