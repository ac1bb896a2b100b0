"""Script tests: every script loads against the current package API, and the
bound-check script runs end to end."""
import pathlib
import re
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


def test_bound_checks_report_end_to_end():
    script = next(p for p in SCRIPTS if p.name == "run_bound_checks.py")
    proc = subprocess.run([sys.executable, str(script), "--max-total", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    dominance = [ln for ln in lines if ln.startswith("dominance: ")]
    assert len(dominance) == 1
    slack = re.search(r"min\(game - dp\) = (\S+) ", dominance[0])
    assert float(slack.group(1)) >= -1e-9
    entries = [ln for ln in lines if ln.startswith("level entry (")]
    assert len(entries) == 3 and all(ln.endswith("-> ok") for ln in entries)
    sweeps = [ln for ln in lines if ln.startswith("induction sweep eps=")]
    assert len(sweeps) == 2
    assert sweeps[0].startswith("induction sweep eps=0.000488281:")
    assert sweeps[0].endswith("-> pass")
    assert sweeps[1].startswith("induction sweep eps=1:")
    assert sweeps[1].endswith("-> fail")


def test_bound_checks_exit_1_on_violated_check(monkeypatch, capsys):
    import elitist_lo_lab.bounds as bounds

    monkeypatch.setattr(bounds, "level_entry_information_check",
                        lambda n, k, entry_map: (1.0, False))
    script = next(p for p in SCRIPTS if p.name == "run_bound_checks.py")
    namespace = runpy.run_path(str(script), run_name="check")
    monkeypatch.setattr(sys, "argv", [script.name, "--max-total", "2"])
    assert namespace["main"]() == 1
    assert "-> VIOLATED" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["3", "49", "0", "-1"])
def test_scaling_experiments_reject_too_few_reps(tmp_path, value):
    script = next(p for p in SCRIPTS if p.name == "run_scaling_experiments.py")
    outdir = tmp_path / "results"
    proc = subprocess.run([sys.executable, str(script), "--reps", value,
                           "--outdir", str(outdir)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "scaling needs reps >= 50" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not outdir.exists()  # rejected before the output directory is made
