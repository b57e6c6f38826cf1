import json

import numpy as np
import pytest

from pqcgeo import ansatz, harness, optimize, vqe
from pqcgeo.cli import main

ENTANGLED = str(vqe.bundled_path("entangled"))


def _experiment(tmp_path, **kw):
    defaults = dict(optimizer="qng", metric_mode="block", max_steps=25, seed=9)
    defaults.update(kw.pop("opt", {}))
    return harness.ExperimentConfig(
        kind=kw.pop("kind", "ldca"),
        opt=optimize.OptConfig(**defaults),
        hamiltonian_path=ENTANGLED,
        trials=kw.pop("trials", 2),
        out_dir=tmp_path,
        **kw,
    )


def test_single_trial_single_step_csv_shape(tmp_path):
    config = _experiment(tmp_path, trials=1, opt=dict(max_steps=1, tol=np.inf))
    harness.run_vqe_experiment(config)
    lines = (tmp_path / "trial_000.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + initial point + one step
    header = lines[0].split(",")
    assert header == ["step", "energy", "energy_error", "concurrence",
                      "ricci", "grad_norm", "theta_1", "theta_2", "theta_3", "theta_4",
                      "theta_5"]


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        harness.run_vqe_experiment(_experiment(out, trials=3))
    for name in ("trial_000.csv", "trial_001.csv", "trial_002.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_summary_schema_and_padding(tmp_path):
    config = _experiment(tmp_path, trials=3, opt=dict(max_steps=30, tol=1e-4))
    summary = harness.run_vqe_experiment(config)
    data = json.loads((tmp_path / "summary.json").read_text())
    for key in ("ansatz", "optimizer", "metric_mode", "steps", "energy_error_mean",
                "energy_error_std", "concurrence_mean", "concurrence_std",
                "ricci_mean", "ricci_std", "steps_to_threshold",
                "median_steps_to_threshold", "reached_fraction", "hamiltonian"):
        assert key in data
    assert len(data["steps"]) == 31
    assert all(len(data[k]) == 31 for k in ("energy_error_mean", "ricci_std"))
    assert data["hamiltonian"]["ground_energy"] == pytest.approx(summary["hamiltonian"]["ground_energy"])


def test_summary_mean_energy_error_ldca_qng_full_protocol():
    # 50-trial natural-gradient run: padded mean energy error at step 200
    # sits below chemical accuracy
    cfg = optimize.OptConfig(optimizer="qng", metric_mode="block", seed=20260808)
    traces = optimize.run_trials("ldca", vqe.load_bundled("entangled"), cfg, 50)
    summary = harness.summarize(traces, cfg)
    assert summary["energy_error_mean"][-1] <= 1e-3
    assert summary["reached_fraction"] >= 0.9


def test_partial_trial_failure_aborts(tmp_path, monkeypatch):
    original = optimize.energy

    def one_row_non_finite(hamiltonian, psi):
        e = original(hamiltonian, psi)
        e[1] = np.nan
        return e

    monkeypatch.setattr(optimize, "energy", one_row_non_finite)
    with pytest.raises(RuntimeError, match="non-finite energy"):
        harness.run_vqe_experiment(_experiment(tmp_path, trials=3))
    assert not (tmp_path / "summary.json").exists()


# --- landscape scans ---

def test_hea_landscape_zero_row_is_flat_ten(tmp_path):
    values, mask, meta = harness.scan_landscape("hea", (0, 1), resolution=41)
    assert np.abs(values[0] - 10.0).max() < 1e-12  # theta_1 = 0 row
    assert not mask[0].any()
    assert values.min() >= -5.0 and values.max() <= 10.0
    assert meta["clip"] == [-5.0, 10.0]


def test_landscape_clip_mask_exact(tmp_path):
    values, mask, _ = harness.scan_landscape("hea", (0, 1), resolution=101)
    raw = ansatz.ricci_circuit_grid("hea", _grid_thetas("hea", (0, 1), 101))
    outside = (raw < -5.0) | (raw > 10.0)
    assert np.array_equal(mask, outside)
    assert mask.any()  # the C -> 1 pole region must be clipped
    assert np.all(values[mask] == -5.0)


def _grid_thetas(kind, scan, n):
    m = ansatz.param_count(kind)
    axis = np.linspace(0, 2 * np.pi, n)
    grid = np.zeros((n, n, m))
    grid[:, :, scan[0]] = axis[:, None]
    grid[:, :, scan[1]] = axis[None, :]
    return grid


def test_qgan_landscape_constant_without_entangler():
    values, mask, _ = harness.scan_landscape("qgan", (0, 1), resolution=21)
    assert np.abs(values - 10.0).max() < 1e-12  # theta_5 = 0 means C = 0 everywhere
    assert not mask.any()


def test_landscape_files_written(tmp_path):
    prefix = tmp_path / "scan" / "hea12"
    values, mask, meta = harness.scan_landscape("hea", (0, 1), resolution=11,
                                                out_prefix=prefix)
    grid = np.loadtxt(prefix.with_suffix(".csv"), delimiter=",")
    assert np.array_equal(grid, values)
    loaded_mask = np.loadtxt(tmp_path / "scan" / "hea12_mask.csv", delimiter=",")
    assert np.array_equal(loaded_mask.astype(bool), mask)
    saved_meta = json.loads((tmp_path / "scan" / "hea12_meta.json").read_text())
    assert saved_meta["resolution"] == 11


def test_landscape_validation():
    with pytest.raises(ValueError):
        harness.scan_landscape("hea", (0, 0))
    with pytest.raises(ValueError):
        harness.scan_landscape("hea", (0, 7))
    with pytest.raises(ValueError):
        harness.scan_landscape("hea", (0, 1), resolution=1)
    with pytest.raises(ValueError):
        harness.scan_landscape("hea", (0, 1), clip=(4.0, 4.0))


# --- hopf report ---

def test_hopf_report_fields_and_invariant():
    report = harness.hopf_report("hea", [0.0, 0.0, 0.0, 0.0])
    assert report["x"] == [1.0, 0.0, -0.0, 0.0, 0.0] or report["x"][0] == 1.0
    assert report["sum_x_sq"] == pytest.approx(1.0, abs=1e-9)
    assert set(report["singular"]) == {"phi_a", "chi", "xi"}
    assert report["phi_a"] is None
    assert report["fiber_norm_sum"] == pytest.approx(1.0, abs=1e-9)


def test_hopf_report_ldca_coordinate_zeros():
    rng = np.random.default_rng(4)
    for _ in range(20):
        report = harness.hopf_report("ldca", rng.uniform(0, 2 * np.pi, 5))
        assert abs(report["x"][1]) < 1e-9 and abs(report["x"][4]) < 1e-9
        assert report["sum_x_sq"] == pytest.approx(1.0, abs=1e-9)


# --- validation suites and CLI ---

def test_validation_passes_on_fresh_build():
    ok, rows = harness.run_validation()
    assert ok, rows
    names = [name for name, _, _ in rows]
    assert names == ["concurrence-equivalence", "hopf-invariants", "curvature-consistency",
                     "qgt-structure", "gradient-check", "chart-convention"]
    chart_row = rows[-1]
    assert "sin_on_dtheta" in chart_row[2]


def test_validation_mutation_negative_control(monkeypatch):
    # corrupting the closed-form concurrence must trip the equivalence suite
    original = ansatz.concurrence_closed

    def corrupted(kind, theta):
        return 0.97 * np.asarray(original(kind, theta))

    monkeypatch.setattr(ansatz, "concurrence_closed", corrupted)
    suite = dict(harness.VALIDATION_SUITES)["concurrence-equivalence"]
    ok, detail = suite(np.random.default_rng(0))
    assert not ok


def test_cli_hopf_and_exit_codes(tmp_path, capsys):
    assert main(["hopf", "--ansatz", "hea", "--theta", "0,0,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sum_x_sq"] == pytest.approx(1.0)

    # configuration errors exit 2
    assert main(["hopf", "--ansatz", "hea", "--theta", "0,0"]) == 2
    assert main(["hopf", "--ansatz", "qgan", "--theta", "1,2,3,4,nan"]) == 2
    assert main(["run-vqe", "--ansatz", "hea", "--hamiltonian", str(tmp_path / "missing.json"),
                 "--trials", "1", "--steps", "1"]) == 2
    bad = tmp_path / "bad.json"
    for text in ('{"nu": [1, 2, 3]}', '{"nu": [null, 0, 0, 0, 0, 0]}',
                 '{"nu": ["1", 0, 0, 0, 0, 0]}', '{"nu": [true, 0, 0, 0, 0, 0]}',
                 '[1, 0, 0, 0, 0, 0]'):
        bad.write_text(text)
        assert main(["run-vqe", "--ansatz", "hea", "--hamiltonian", str(bad),
                     "--trials", "1", "--steps", "1"]) == 2
    # --fix must name an unscanned index in 1..m and a finite value
    for fix in ("0=1.5", "7=1.5", "2=1.5", "5=nan", "5=inf"):
        assert main(["scan-landscape", "--ansatz", "shea", "--scan", "1", "2", "--fix", fix,
                     "--grid", "3", "--out", str(tmp_path / "fix")]) == 2
    assert not (tmp_path / "fix.csv").exists()


def test_cli_run_vqe_and_scan(tmp_path, capsys):
    rc = main(["run-vqe", "--ansatz", "ldca", "--hamiltonian", "entangled",
               "--optimizer", "qng", "--metric", "diag", "--trials", "2",
               "--steps", "10", "--seed", "1", "--out", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "summary.json").exists()
    rc = main(["scan-landscape", "--ansatz", "qgan", "--scan", "1", "2",
               "--fix", "5=1.5707963267948966", "--grid", "9",
               "--out", str(tmp_path / "scape")])
    assert rc == 0
    assert (tmp_path / "scape.csv").exists()
    rc = main(["scan-landscape", "--ansatz", "hea", "--scan", "1", "2",
               "--fix", "oops", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_rerun_with_fewer_trials_removes_stale_trial_files(tmp_path):
    harness.run_vqe_experiment(_experiment(tmp_path, trials=3))
    harness.run_vqe_experiment(_experiment(tmp_path, trials=1))
    assert sorted(p.name for p in tmp_path.glob("trial_*.csv")) == ["trial_000.csv"]


def _run_vqe_summary(tmp_path, *extra):
    out = tmp_path / "_".join(extra or ("default",))
    assert main(["run-vqe", "--ansatz", "ldca", "--hamiltonian", "entangled",
                 "--optimizer", "qng", "--trials", "2", "--steps", "6", "--seed", "3",
                 "--out", str(out), *extra]) == 0
    steps = [len((out / f"trial_{k:03d}.csv").read_text().splitlines()) - 2 for k in range(2)]
    return json.loads((out / "summary.json").read_text()), steps


def test_summary_records_inversion_and_qng_fallback_steps(tmp_path):
    # rcond 2 keeps no eigenvalue, so every update of a "qng" run is a plain GD step
    summary, steps = _run_vqe_summary(tmp_path, "--rcond", "2")
    assert summary["inversion"] == {"policy": "pinv", "rcond": 2.0}
    assert summary["qng_fallback_steps"] == steps and min(steps) > 0
    summary, _ = _run_vqe_summary(tmp_path)
    assert summary["inversion"] == {"policy": "pinv", "rcond": 1e-8}
    assert summary["qng_fallback_steps"] == [0, 0]
    summary, _ = _run_vqe_summary(tmp_path, "--inversion", "tikhonov", "--epsilon", "0.01")
    assert summary["inversion"] == {"policy": "tikhonov", "epsilon": 0.01}
    assert summary["qng_fallback_steps"] == [0, 0]


def _assert_outputs_finite(out):
    for csv in out.glob("trial_*.csv"):
        assert np.all(np.isfinite(np.loadtxt(csv, delimiter=",", skiprows=1))), csv
    # json writes a non-finite float as NaN, Infinity or -Infinity
    json.loads((out / "summary.json").read_text(),
               parse_constant=lambda name: pytest.fail(f"summary.json holds {name}"))


@pytest.mark.parametrize("scale", [1e5, 1e8])
def test_large_valid_hamiltonian_runs(tmp_path, scale):
    # the imaginary residue of <psi|H|psi> grows with H; at 1e5 times the bundled
    # coefficients it passed 1e-12 and qgan, shea and ldca exited 2
    ham = vqe.load_bundled("entangled")
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"nu": [scale * v for v in ham.nu], "label": "scaled"}))
    for kind in ("qgan", "shea", "ldca"):
        out = tmp_path / kind
        assert main(["run-vqe", "--ansatz", kind, "--hamiltonian", str(path), "--trials", "2",
                     "--steps", "5", "--optimizer", "qng", "--out", str(out)]) == 0
        _assert_outputs_finite(out)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors, e.g. "--clip -inf 1"
        return exc.code


def test_cli_boundary_property_scan_and_hamiltonian_json(tmp_path):
    # seeded random --scan/--fix combinations and mutated Hamiltonian JSON documents:
    # every one exits 0 or 2 through cli.main, none raises
    rng = np.random.default_rng(20260808)
    values = ["1.5", "-2", "0", "nan", "inf", "-inf", "1e400", "abc", "", "1=2"]
    for _ in range(200):
        kind = ansatz.ANSATZE[rng.integers(5)]
        m = ansatz.param_count(kind)
        argv = ["scan-landscape", "--ansatz", kind, "--scan",
                *(str(i) for i in rng.integers(-1, m + 2, size=2)),
                "--grid", str(rng.integers(-1, 4)), "--out", str(tmp_path / "scan")]
        for _ in range(rng.integers(4)):
            fix = f"{rng.integers(-1, m + 2)}={values[rng.integers(len(values))]}"
            argv += ["--fix", fix if rng.random() < 0.9 else fix.split("=")[0]]
        if rng.random() < 0.2:
            argv += ["--clip", *(values[rng.integers(6)] for _ in range(2))]
        assert _exit_code(argv) in (0, 2), argv

    bad_values = [None, "1", True, [], {}, [1.0], float("nan"), float("inf"), -float("inf"),
                  1e308, -1e308]
    nu = [-0.71, 0.018, -0.018, 0.01, 0.3, 0.3]
    path = tmp_path / "ham.json"
    for _ in range(200):
        doc = {"nu": list(nu), "label": "mutated"}
        for _ in range(rng.integers(1, 4)):
            op = rng.integers(6)
            target = doc.get("nu") if isinstance(doc, dict) else None
            if op == 0 and isinstance(target, list) and target:
                target[rng.integers(len(target))] = bad_values[rng.integers(len(bad_values))]
            elif op == 1 and isinstance(target, list):
                doc["nu"] = target[:rng.integers(len(target) + 1)] + [0.1] * rng.integers(3)
            elif op == 2:
                doc = [doc] if rng.random() < 0.5 else {"hamiltonian": doc}
            elif op == 3 and isinstance(doc, dict):
                doc["nu"] = bad_values[rng.integers(len(bad_values))]
            elif op == 4 and isinstance(doc, dict):
                doc["label"] = bad_values[rng.integers(len(bad_values))]
            elif op == 5:
                doc = bad_values[rng.integers(len(bad_values))]
        text = json.dumps(doc)
        path.write_text(text[:rng.integers(len(text) + 1)] if rng.random() < 0.1 else text)
        argv = ["run-vqe", "--ansatz", "hea", "--hamiltonian", str(path), "--trials", "1",
                "--steps", "2", "--out", str(tmp_path / "vqe")]
        code = _exit_code(argv)
        assert code in (0, 2), text
        if code == 0:
            _assert_outputs_finite(tmp_path / "vqe")
