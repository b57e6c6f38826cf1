"""Tests of the benchmark's output checks: clean outputs pass, corrupted ones fail.

    python3 -m pytest perfbench/test_checks.py -q

Each test runs a small real command through `run.run_op`, then corrupts one
thing in what it wrote and expects `run.check_op` to report it.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import run
import workloads
from hostclock import HostClock

CLI = run.import_cli()
CLOCK = HostClock()


def _run_and_check(op):
    rc, _, _, stdout, stderr = run.run_op(CLI, op, CLOCK)
    assert rc == op.expect_rc, stderr
    return lambda: run.check_op(op, rc, stdout, stderr, np.random.default_rng(0))


def _op(tmp_path, monkeypatch, workload, label_prefix):
    monkeypatch.setattr(workloads, "GD_TRIALS", 3)
    monkeypatch.setattr(workloads, "QNG_TRIALS", 3)
    monkeypatch.setattr(workloads, "GRID", 41)
    return next(op for op in workloads.build(workload, 5, tmp_path)
                if op.label.startswith(label_prefix))


def _rewrite_csv_cell(path, row: int, column: str, change):
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def gd_run(tmp_path, monkeypatch):
    op = _op(tmp_path, monkeypatch, "vqe-gd", "gd-ldca-entangled")
    return op, _run_and_check(op)


def test_clean_vqe_outputs_pass(gd_run):
    _, check = gd_run
    why, problems, steps = check()
    assert why is None and problems == [] and steps > 3


def test_clean_qng_outputs_pass(tmp_path, monkeypatch):
    check = _run_and_check(_op(tmp_path, monkeypatch, "vqe-qng", "qng-ldca-product"))
    assert check()[:2] == (None, [])


@pytest.mark.parametrize("column,change,expect", [
    ("energy", lambda v: v + 1e-6, "energy"),
    ("ricci", lambda v: v * (1 + 1e-6), "ricci"),
    ("concurrence", lambda v: v + 1e-6, "concurrence"),
    ("theta_3", lambda v: v + 1e-6, ""),
])
def test_perturbed_trace_value_fails(gd_run, column, change, expect):
    op, check = gd_run
    trace = op.out / "trial_000.csv"
    # row 0 is always rebuilt from theta, and every row is checked against E0 and R(C)
    _rewrite_csv_cell(trace, 0, column, change)
    _, problems, _ = check()
    assert any(expect in p for p in problems), problems


def test_wrong_ground_energy_fails(gd_run):
    op, check = gd_run
    path = op.out / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["hamiltonian"]["ground_energy"] += 1e-6
    path.write_text(json.dumps(summary), encoding="utf-8")
    _, problems, _ = check()
    assert any("ground energy" in p for p in problems), problems


def test_wrong_summary_statistic_fails(gd_run):
    op, check = gd_run
    path = op.out / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["energy_error_mean"][1] += 1e-6
    path.write_text(json.dumps(summary), encoding="utf-8")
    _, problems, _ = check()
    assert any("energy_error_mean" in p for p in problems), problems


def test_missing_trial_file_fails(gd_run):
    op, check = gd_run
    (op.out / "trial_001.csv").unlink()
    _, problems, _ = check()
    assert any("trial files" in p for p in problems), problems


def test_truncated_trace_breaks_stop_rule(gd_run):
    op, check = gd_run
    path = op.out / "trial_002.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    _, problems, _ = check()
    assert any("stopped before" in p for p in problems), problems


@pytest.fixture
def scan_run(tmp_path, monkeypatch):
    op = _op(tmp_path, monkeypatch, "landscape", "scan-qgan-")
    return op, _run_and_check(op)


def test_clean_scan_outputs_pass(scan_run):
    _, check = scan_run
    assert check() == (None, [], 41 * 41)


@pytest.mark.parametrize("cell", [(0, 0), (20, 7), (40, 40)])
def test_flipped_mask_cell_fails(scan_run, cell):
    op, check = scan_run
    path = op.out / "grid_mask.csv"
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    i, j = cell
    rows[i][j] = "0" if rows[i][j] == "1" else "1"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    _, problems, _ = check()
    assert problems, "a flipped mask cell went unnoticed"


def test_wrong_landscape_value_fails(scan_run):
    op, check = scan_run
    path = op.out / "grid.csv"
    pole_row = int(round(op.spec["pole"][0] / (2 * np.pi / 40)))
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    lo, hi = op.spec["clip"]
    rows[pole_row] = [repr((lo + hi) / 2)] * 41   # unclipped values across the pole row
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    _, problems, _ = check()
    assert any("value" in p for p in problems), problems


def test_upper_clip_on_the_shea_pole_curve_fails(tmp_path, monkeypatch):
    op = _op(tmp_path, monkeypatch, "landscape", "scan-shea-pole")
    check = _run_and_check(op)
    values_path, mask_path = op.out / "grid.csv", op.out / "grid_mask.csv"
    values = [line.split(",") for line in values_path.read_text(encoding="utf-8").splitlines()]
    mask = [line.split(",") for line in mask_path.read_text(encoding="utf-8").splitlines()]
    lo, hi = op.spec["clip"]

    def write():
        values_path.write_text("\n".join(",".join(r) for r in values) + "\n", encoding="utf-8")
        mask_path.write_text("\n".join(",".join(r) for r in mask) + "\n", encoding="utf-8")

    # the whole curve at the lower clip is right; one cell at the upper clip is not
    for i, j in op.spec["pole_curve"]:
        values[i][j], mask[i][j] = repr(lo), "1"
    write()
    assert check() == (None, [], 41 * 41)
    i, j = op.spec["pole_curve"][3]
    values[i][j] = repr(hi)
    write()
    why, problems, _ = check()
    assert why is not None and "1 of 11 cells on the C = 1 curve" in why, why


def test_validate_table_with_a_failed_suite_fails():
    table = "\n".join(f"{name}  PASS  ok" for name in checks.VALIDATE_SUITES)
    assert checks.check_validate(table + "\nall suites passed") == ([], 6)
    broken = table.replace("gradient-check  PASS", "gradient-check  FAIL")
    problems, passed = checks.check_validate(broken + "\nVALIDATION FAILED")
    assert passed == 5 and len(problems) == 2


def test_refused_operation_must_exit_2_with_one_line():
    op = workloads.Op("refuse", [], "refused", expect_rc=2)
    assert run.check_op(op, 2, "", "error: bad input\n", None)[0] is None
    assert run.check_op(op, 0, "", "", None)[0] is not None
    assert run.check_op(op, "TypeError: x", "", "Traceback\n...\n", None)[0] is not None
