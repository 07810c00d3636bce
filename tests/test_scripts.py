"""Smoke runs of the scripts in scripts/, each in its own interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_run_suites_writes_reports(tmp_path):
    res = run_script("run_suites.py", "--suite", "cofactor", "--suite", "lmatrix",
                     "--json-dir", str(tmp_path))
    assert res.returncode == 0, res.stdout + res.stderr
    reports = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in reports] == ["cofactor.json", "lmatrix.json"]
    assert all(json.loads(p.read_text())["pass"] for p in reports)


def test_hilbert_report_matches_series():
    res = run_script("hilbert_report.py", "--max", "2")
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("all entries match the series") == 4
    assert "mismatches" not in res.stdout
