"""Run a snippet in a fresh `python -O` interpreter, where asserts are
stripped, to show that a check is an explicit raise and not an assert."""

import subprocess
import sys
from pathlib import Path

import traceforms

SRC = str(Path(traceforms.__file__).resolve().parents[1])
# exit code 3: the interpreter kept asserts, so the run shows nothing
PRELUDE = "if __debug__:\n    raise SystemExit(3)\n"


def run_optimized(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-O", "-c", PRELUDE + code],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
