"""Tests of the benchmark itself: its output checks and its smoke mode.

Run from the repository root with `python -m pytest perfbench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
EXPECTED = BENCH_DIR / "expected"
T1_THREADS = {"primary": 2, "harm.offchip": 15}


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True,
                          text=True, timeout=300, cwd=cwd)


def test_masked_sum_matches_loop():
    for count in (0, 1, 5, 1023, 1024, 1025, 5000):
        for period in (1, 7, 1024):
            assert checks.masked_sum(count, period) == sum(k % period for k in range(count))


@pytest.mark.parametrize("n", [1, 1000, 4096, 70001])
def test_triad_checksum_matches_kernel(n):
    idx = np.arange(n, dtype=np.int64) & 0x3FF
    assert checks.triad_checksum(n) == int(((idx + 1) + 3 * (idx + 2)).sum())


@pytest.mark.parametrize("arena,stride", [(1 << 20, 64), (3 << 20, 64), (1 << 16, 512)])
def test_strided_read_checksum_matches_kernel(arena, stride):
    arr = np.arange(arena // 8, dtype=np.int64) & 0xFFFF
    assert checks.strided_read_checksum(arena, stride) == int(arr[:: stride // 8].sum())


def test_stored_csv_passes_and_a_changed_digit_fails():
    text = (EXPECTED / "smoke_t1_offchip.csv").read_text()
    assert checks.sim_errors(text, T1_THREADS, 2000, expected=text) == []
    tampered = text.replace("3730", "3731")
    assert tampered != text
    errors = checks.sim_errors(tampered, T1_THREADS, 2000, expected=text)
    assert any("differs" in e for e in errors)
    assert any("hits" in e for e in errors)


def test_invariants_catch_wrong_budget_and_shares():
    text = (EXPECTED / "smoke_t1_offchip.csv").read_text()
    assert any("accesses" in e for e in checks.sim_errors(text, T1_THREADS, 1999))
    shifted = text.replace("0.990867", "0.890867")
    assert any("shares" in e for e in checks.sim_errors(shifted, T1_THREADS, 2000))


def test_extract_csv_stops_at_summary():
    text = (EXPECTED / "smoke_t1_onchip.csv").read_text()
    stdout = "wrote nothing\n" + text + "experiment x: geometry toy\nsecondary  v\n"
    assert checks.extract_csv(stdout) == text


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(trace):
    proc = _run("--workload", "all", "--smoke", "--seconds", "1", "--trace", trace,
                cwd=BENCH_DIR.parent)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 and "unavailable" in proc.stderr:
        pytest.skip(f"native workload unavailable here: {proc.stderr.strip()}")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    for w in bench["workloads"]:
        for m in wanted:
            got = result["metrics"][f"{w['name']}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "t1_offchip",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
