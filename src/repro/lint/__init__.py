"""Static analysis for the distributed runtime (``repro lint``).

The suite enforces the protocol invariants that unit tests cannot see
locally — routing completeness, cross-process determinism, pickle/frame
safety of messages and events, serve-loop discipline, routing-fence
discipline and "every def has a caller" — by reading the code as an AST
and the declarative registry in :mod:`repro.runtime.protocol` as
literals.  It never imports the code it checks.  Rule catalog:
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from .runner import build_project, collect_files, run_lint

__all__ = ["build_project", "collect_files", "run_lint"]
