"""Whole-process peak RSS of one ``python -m qnetlab.cli`` command.

A child's ``ru_maxrss`` starts at its parent's RSS, because fork copies the
parent's mappings, and pytest may have grown large.  So a small launcher
process starts the command and reports the figure through ``os.wait4``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnetlab

LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

needs_wait4 = pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for ru_maxrss")


def peak_rss_mb(*cli_args: str) -> float:
    """Peak RSS in MiB of one CLI command, which must exit 0."""
    src = str(Path(qnetlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "qnetlab.cli", *cli_args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    code, max_rss = map(int, run.stdout.split())
    assert code == 0, run.stderr
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return max_rss * scale / 2**20
