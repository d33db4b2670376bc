"""The child interpreters that tests start write no bytecode."""

from pathlib import Path

from _optimized import SRC, run_optimized


def pycache_listing(directory):
    cache = Path(directory) / "__pycache__"
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else None


def test_run_optimized_writes_no_bytecode(tmp_path):
    # a module the parent never imported: a child that writes bytecode
    # would leave tmp_path/__pycache__ behind
    (tmp_path / "fresh_module.py").write_text("VALUE = 7\n")
    package = Path(SRC) / "traceforms"
    before = pycache_listing(package)
    proc = run_optimized(f"""
import sys
sys.path.insert(0, {str(tmp_path)!r})
import fresh_module
import traceforms.cli
raise SystemExit(0 if fresh_module.VALUE == 7 and sys.dont_write_bytecode else 1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert pycache_listing(tmp_path) is None
    assert pycache_listing(package) == before
