"""Import smoke test: every script loads against the current package API."""
import pathlib
import runpy
import subprocess
import sys

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])


@pytest.mark.parametrize("value", ["1", "7", "-3"])
def test_bound_checks_reject_max_total_out_of_range(value):
    script = next(p for p in SCRIPTS if p.name == "run_bound_checks.py")
    proc = subprocess.run([sys.executable, str(script), "--max-total", value],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""  # rejected before the first check prints
    assert "invalid choice" in proc.stderr
