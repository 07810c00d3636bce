"""Smoke runs of the scripts in scripts/ and of the perfbench tracer, each in
its own interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(path, *args):
    # -B and PYTHONDONTWRITEBYTECODE leave no __pycache__ in the checkout; a
    # cached perfbench/tracer.pyc moves the benchmark's peak_rss_mb
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-B", str(ROOT / path), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_run_suites_writes_reports(tmp_path):
    res = run_script("scripts/run_suites.py", "--suite", "cofactor", "--suite", "lmatrix",
                     "--json-dir", str(tmp_path))
    assert res.returncode == 0, res.stdout + res.stderr
    reports = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in reports] == ["cofactor.json", "lmatrix.json"]
    assert all(json.loads(p.read_text())["pass"] for p in reports)
    # the last line is the process's own peak resident set size in MB
    name, value = res.stdout.splitlines()[-1].split()
    assert name == "peak_rss_mb"
    assert 1 < float(value) < 1000


def test_hilbert_report_matches_series():
    res = run_script("scripts/hilbert_report.py", "--max", "2")
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("all entries match the series") == 4
    assert "mismatches" not in res.stdout


def test_scale_report_matches_series():
    res = run_script("scripts/scale_report.py", "--max", "2")
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert [line.split()[0] for line in lines[:4]] == [
        "spherical_dimensions", "phi_ranks", "psibar_ranks", "invariant_dimension"]
    # one line per bidegree to (2, 2); at (2, 2) the series are 5 and 6
    rows = [line for line in lines if line.startswith("(")][1:]
    assert len(rows) == 9 and "MISMATCH" not in res.stdout
    assert rows[-1].split() == ["(2,", "2)", "5:", "5", "5", "6:", "6", "6"]
    assert lines[-2] == "all 9 bidegrees match the series"
    name, value = lines[-1].split()
    assert name == "peak_rss_mb" and 1 < float(value) < 1000


def test_code_lines_rows_sum_to_the_total():
    res = run_script("scripts/code_lines.py")
    assert res.returncode == 0, res.stderr
    header, *rows, total = [line.split() for line in res.stdout.splitlines()]
    assert header == ["module", "lines", "code"] and total[0] == "total"
    assert {row[0] for row in rows} == {p.name for p in (ROOT / "src" / "qhc").glob("*.py")}
    counts = [(int(lines), int(code)) for _, lines, code in rows]
    assert [sum(col) for col in zip(*counts)] == [int(total[1]), int(total[2])]
    assert all(0 < code < lines for lines, code in counts)


def test_perfbench_tracer_installs():
    # Tracer.install raises on any public name it wraps that has gone
    res = run_script("perfbench/child.py", "suites", "cofactor", "--trace")
    assert res.returncode == 0, res.stdout + res.stderr
    raw = json.loads(res.stdout.splitlines()[-1])["raw"]
    assert raw["absent_spans"] == []
    assert None not in raw.values()
