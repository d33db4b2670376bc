"""Run a snippet in a fresh `python -O` interpreter, where asserts are
stripped, to show that a check is an explicit raise and not an assert.
Child interpreters write no bytecode, so a test run leaves no stale
`__pycache__` under `src` for a later run of the same checkout to read."""

import subprocess
import sys
from pathlib import Path

import traceforms

SRC = str(Path(traceforms.__file__).resolve().parents[1])
# exit code 3: the interpreter kept asserts, so the run shows nothing
PRELUDE = "if __debug__:\n    raise SystemExit(3)\n"
CHILD_ENV = {"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}


def run_optimized(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-O", "-c", PRELUDE + code],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
