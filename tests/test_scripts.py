"""Import smoke test: every script loads against the current package API."""
import pathlib
import runpy

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])
