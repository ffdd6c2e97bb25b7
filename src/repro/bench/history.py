"""Provenance stamps for benchmark results.

The wall-clock benchmark (``benchmarks/e2e/run.py``) imports
``machine_fingerprint`` and ``current_git_sha`` from here to stamp every
result file with the host it ran on and the commit it measured, so two
runs from different machines or checkouts are never mistaken for a pair.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict, Optional

__all__ = ["current_git_sha", "machine_fingerprint"]


def machine_fingerprint() -> Dict[str, Any]:
    """The host attributes that make perf numbers comparable."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def current_git_sha(root: Optional[str] = None) -> str:
    """The repo's HEAD commit, or ``"unknown"`` outside a usable checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"
