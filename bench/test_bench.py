"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_analytic_acceptance_counts_rectangular_shapes():
    # prod_{i<k} (1 - q^(i-K)): a 2x1 or 1x2 matrix over GF(2) is full rank
    # unless it is zero, so 3 of 4 candidates are accepted.
    assert tracing.analytic_acceptance(2, 2, 1) == 0.75
    assert tracing.analytic_acceptance(2, 1, 2) == 0.75
    assert tracing.analytic_acceptance(2, 2, 2) == 0.375
    assert tracing.analytic_acceptance(4, 3, 1) == 1 - 4.0**-3


def test_smoke_emits_every_metric_and_repeats_counts():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_gf2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_verify_output_matches_its_schema():
    # Fails while `subchan capacity --verify --format json` can report a
    # negative verification.ba_gap_bound (Blahut-Arimoto rounding), which
    # schemas/capacity_report.schema.json forbids; seed 1 shows it.
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli_verify_gf2", "--seed", "1",
         "--seconds", "0", "--size", "smoke", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"], detail["failures"][:3]
