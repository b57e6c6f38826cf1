"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Run:  pytest tests/test_acceptance.py -s
"""
import json
import math
import time

import numpy as np
import pytest

from pqcgeo import ansatz, geometry, harness, optimize, qgt, vqe
from pqcgeo.ansatz import ANSATZE, HEA, LDCA, QGAN, QGAN_AUG, SHEA

SEED = 20260808
THRESHOLD = 1e-3  # chemical accuracy, Hartree


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    return line


def test_criterion_1_concurrence_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for kind in ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, size=(10_000, ansatz.param_count(kind)))
        closed = np.asarray(ansatz.concurrence_closed(kind, thetas))
        brute = geometry.concurrence(np.array([ansatz.prepare_state(kind, t) for t in thetas]))
        worst = max(worst, float(np.abs(closed - brute).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    line = _report(1, "concurrence equivalence", ok,
                   f"max |closed - brute| = {worst:.2e} (tol 1e-9), runtime {elapsed:.1f}s (< 10s)")
    assert ok, line


def test_criterion_2_ricci_universality():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for kind in ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, size=(10_000, ansatz.param_count(kind)))
        # C of the prepared states, independent of the closed form inside the curvature
        c = np.concatenate([geometry.concurrence(ansatz.prepare_state(kind, part))
                            for part in np.split(thetas, 10)])
        keep = c <= 0.99
        circuit = np.asarray(ansatz.ricci_circuit_grid(kind, thetas))[keep]
        universal = geometry.ricci_closed(c[keep])
        worst = max(worst, float((np.abs(circuit - universal) / (1 + np.abs(universal))).max()))
    spot0 = abs(geometry.ricci_closed(0.0) - 10.0)
    spot_half = abs(geometry.ricci_closed(1 / np.sqrt(2)) - 8.0)
    ok = worst <= 1e-8 and spot0 <= 1e-12 and spot_half <= 1e-12
    line = _report(2, "ricci universality", ok,
                   f"max rel dev {worst:.2e} (tol 1e-8); R(0) dev {spot0:.1e}, "
                   f"R(1/sqrt2) dev {spot_half:.1e} (tol 1e-12)")
    assert ok, line


def test_criterion_3_hopf_geometry():
    rng = np.random.default_rng(SEED + 2)
    dev_embed = dev_conc = dev_fiber = 0.0
    for _ in range(10_000):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        x = geometry.base_coordinates(v)
        dev_embed = max(dev_embed, abs(float(x @ x) - 1.0))
        dev_conc = max(dev_conc, abs(np.hypot(x[2], x[3]) - geometry.concurrence(v)))
        f = geometry.hopf_fiber(v)
        dev_fiber = max(dev_fiber, abs(
            geometry.quat_norm2(f.q_plus) + geometry.quat_norm2(f.q_minus) - 1.0))
    dev_ldca = dev_qgan = 0.0
    for _ in range(10_000):
        x = geometry.base_coordinates(
            ansatz.prepare_state(LDCA, ansatz.random_parameters(LDCA, rng)))
        dev_ldca = max(dev_ldca, max(abs(x[1]), abs(x[4])))
        x = geometry.base_coordinates(
            ansatz.prepare_state(QGAN, ansatz.random_parameters(QGAN, rng)))
        dev_qgan = max(dev_qgan, abs(x[3]))
    worst = max(dev_embed, dev_conc, dev_fiber, dev_ldca, dev_qgan)
    ok = worst <= 1e-9
    line = _report(3, "hopf geometry", ok,
                   f"sum x^2 dev {dev_embed:.1e}, C identity dev {dev_conc:.1e}, fiber norm "
                   f"dev {dev_fiber:.1e}, ldca x1/x4 {dev_ldca:.1e}, qgan x3 {dev_qgan:.1e} "
                   f"(tol 1e-9)")
    assert ok, line


def test_criterion_4_curvature_engine_calibration():
    s2 = lambda x: np.diag([1.0, np.sin(x[0]) ** 2])
    dev_sphere = max(abs(geometry.scalar_curvature_numeric(s2, np.array([th, 0.3])) - 2.0)
                     for th in np.linspace(0.4, np.pi - 0.4, 20))
    dev_flat = abs(geometry.scalar_curvature_numeric(
        lambda x: np.eye(4), np.array([0.1, 0.2, 0.3, 0.4])))
    try:
        conv, devs = geometry.resolve_chart_convention(tol=1e-3)
        unique = True
    except RuntimeError:
        conv, devs, unique = None, {}, False
    ok = dev_sphere <= 1e-4 and dev_flat <= 1e-6 and unique
    line = _report(4, "curvature engine calibration", ok,
                   f"unit sphere dev {dev_sphere:.1e} (tol 1e-4), flat dev {dev_flat:.1e} "
                   f"(tol 1e-6); resolved chart convention: {conv} "
                   f"(deviations {', '.join(f'{k}={v:.2e}' for k, v in devs.items())})")
    assert ok, line


def test_criterion_5_qgt_structure():
    rng = np.random.default_rng(SEED + 3)
    failures = []
    # constant entries of the hea metric: unit diagonal, zeros at (0,1),(0,3),(1,2)
    dev_hea = 0.0
    for _ in range(1000):
        g = qgt.fs_metric(HEA, ansatz.random_parameters(HEA, rng))
        dev_hea = max(dev_hea, float(np.abs(np.diag(g) - 1.0).max()))
        dev_hea = max(dev_hea, max(abs(g[i, j]) for i, j in ((0, 1), (0, 3), (1, 2))))
    if dev_hea > 1e-8:
        failures.append(f"hea constant entries dev {dev_hea:.2e}")
    # constant entries of the ldca metric: zeros everywhere off (2,2)/(4,4),
    # and the value 4 at (2,2)
    dev_ldca_zero, dev_ldca_four = 0.0, 0.0
    for _ in range(1000):
        g = qgt.fs_metric(LDCA, ansatz.random_parameters(LDCA, rng))
        masked = g.copy()
        masked[2, 2] = 0.0
        masked[4, 4] = 0.0
        dev_ldca_zero = max(dev_ldca_zero, float(np.abs(masked).max()))
        dev_ldca_four = max(dev_ldca_four, abs(g[2, 2] - 4.0))
    if dev_ldca_zero > 1e-8:
        failures.append(f"ldca zero entries dev {dev_ldca_zero:.2e}")
    if dev_ldca_four > 1e-8:
        failures.append(f"ldca (2,2) entry differs from 4 by {dev_ldca_four:.2e} "
                        f"(measured value {4.0 - dev_ldca_four:.6f})")
    # spectra
    fractions = {}
    for kind in (QGAN, SHEA):
        lam = np.array([np.linalg.eigvalsh(qgt.fs_metric(kind, ansatz.random_parameters(kind, rng)))[0]
                        for _ in range(1000)])
        fractions[kind] = float((lam > 1e-6).mean())
        if fractions[kind] < 0.99:
            failures.append(f"{kind} lam_min > 1e-6 fraction {fractions[kind]:.3f} < 0.99")
    for kind in (HEA, LDCA):
        lam_max = max(np.linalg.eigvalsh(qgt.fs_metric(kind, ansatz.random_parameters(kind, rng)))[0]
                      for _ in range(1000))
        if lam_max >= 1e-10:
            failures.append(f"{kind} lam_min {lam_max:.2e} not < 1e-10")
    ok = not failures
    line = _report(5, "qgt structure", ok,
                   "all entry and spectrum checks passed" if ok else "; ".join(failures))
    assert ok, line


def test_criterion_6_gradient_fidelity():
    rng = np.random.default_rng(SEED + 4)
    h_step = 1e-5
    worst_g = worst_j = 0.0
    for _ in range(1000):
        kind = ANSATZE[rng.integers(len(ANSATZE))]
        theta = ansatz.random_parameters(kind, rng)
        ham = vqe.Hamiltonian(nu=tuple(rng.normal(size=6)))
        grad = vqe.energy_gradient(kind, theta, ham)
        jac = ansatz.state_jacobian(kind, theta)
        for j in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h_step
            tm[j] -= h_step
            sp, sm = ansatz.prepare_state(kind, tp), ansatz.prepare_state(kind, tm)
            worst_g = max(worst_g, abs(grad[j] - (vqe.energy(ham, sp) - vqe.energy(ham, sm))
                                       / (2 * h_step)))
            worst_j = max(worst_j, float(np.abs((sp - sm) / (2 * h_step) - jac[:, j]).max()))
    ok = worst_g <= 1e-6 and worst_j <= 1e-6
    line = _report(6, "gradient fidelity", ok,
                   f"energy gradient dev {worst_g:.2e}, jacobian dev {worst_j:.2e} (tol 1e-6)")
    assert ok, line


def _vqe_stats(kind, hamiltonian, optimizer, mode, trials=50):
    cfg = optimize.OptConfig(optimizer=optimizer, metric_mode=mode, seed=SEED)
    traces = optimize.run_trials(kind, hamiltonian, cfg, trials)
    stt = [optimize.steps_to_threshold(t, THRESHOLD) for t in traces]
    reached = sum(s is not None for s in stt)
    median = float(np.median([s if s is not None else math.inf for s in stt]))
    return reached, median, traces


def test_criterion_7_vqe_qualitative_reproduction():
    start = time.perf_counter()
    ham = vqe.load_bundled("entangled")
    gt = vqe.exact_ground(ham)
    assert abs(gt.state[1]) ** 2 == pytest.approx(0.47, abs=0.005)
    failures = []
    details = []

    # (a) ldca + qng(block)
    reached, median, _ = _vqe_stats(LDCA, ham, "qng", "block")
    details.append(f"(a) ldca qng-block: {reached}/50 reached, median {median:g}")
    if reached < 45 or not median <= 60:
        failures.append("(a)")

    # (b) original qgan under every optimizer
    for opt, mode in (("gd", "block"), ("qng", "block"), ("qng", "diag")):
        reached, _, _ = _vqe_stats(QGAN, ham, opt, mode)
        details.append(f"(b) qgan {opt}-{mode}: {reached}/50 reached")
        if 50 - reached < 45:
            failures.append(f"(b) {opt}-{mode}")

    # (c) augmented qgan: qng succeeds in >= 60%, plain gd in strictly fewer trials
    reached_qng, _, _ = _vqe_stats(QGAN_AUG, ham, "qng", "block")
    reached_gd, _, _ = _vqe_stats(QGAN_AUG, ham, "gd", "block")
    details.append(f"(c) qgan-aug qng-block {reached_qng}/50 vs gd {reached_gd}/50")
    if reached_qng < 30 or not reached_gd < reached_qng:
        failures.append("(c)")

    # (d) qng medians no worse than gd medians (diagonal metric approximation)
    for kind in (HEA, LDCA, SHEA):
        _, med_qng, _ = _vqe_stats(kind, ham, "qng", "diag")
        _, med_gd, _ = _vqe_stats(kind, ham, "gd", "block")
        details.append(f"(d) {kind}: qng median {med_qng:g} vs gd median {med_gd:g}")
        if not med_qng <= med_gd:
            failures.append(f"(d) {kind}")

    elapsed = time.perf_counter() - start
    details.append(f"runtime {elapsed:.0f}s (< 600s)")
    if elapsed >= 600:
        failures.append("runtime")
    ok = not failures
    line = _report(7, "vqe qualitative reproduction", ok,
                   "; ".join(details) + ("" if ok else f"; FAILED: {failures}"))
    assert ok, line


def test_criterion_8_product_regime():
    ham = vqe.load_bundled("product")
    _, _, traces = _vqe_stats(LDCA, ham, "qng", "block")
    good = sum(1 for t in traces if t.concurrence[-1] <= 0.05 and t.ricci[-1] >= 9.5)
    ok = good >= 45
    line = _report(8, "product regime", ok,
                   f"{good}/50 trials end with C <= 0.05 and ricci >= 9.5 (need >= 45)")
    assert ok, line


def test_criterion_9_determinism(tmp_path):
    opt = optimize.OptConfig(optimizer="qng", metric_mode="block", max_steps=60, seed=SEED)
    outs = []
    for sub in ("first", "second"):
        harness.run_vqe_experiment(LDCA, vqe.load_bundled("entangled"), opt, 5, tmp_path / sub)
        outs.append(tmp_path / sub)
    same = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
               for name in [f"trial_{k:03d}.csv" for k in range(5)] + ["summary.json"])
    # summary must be valid JSON with the documented keys
    summary = json.loads((outs[0] / "summary.json").read_text())
    ok = same and "median_steps_to_threshold" in summary
    line = _report(9, "determinism", ok,
                   "repeated runs byte-identical" if same else "outputs differ between runs")
    assert ok, line
