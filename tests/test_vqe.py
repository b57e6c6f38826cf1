import json

import numpy as np
import pytest

from pqcgeo import ansatz, vqe
from pqcgeo.ansatz import ANSATZE
from pqcgeo.simulator import basis_state

RNG_SEED = 20260808


def test_energy_identity_term():
    h = vqe.Hamiltonian(nu=(1, 0, 0, 0, 0, 0))
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert vqe.energy(h, v) == pytest.approx(1.0, abs=1e-12)


def test_energy_xx_yy_on_triplet():
    h = vqe.Hamiltonian(nu=(0, 0, 0, 0, 1, 1))
    psi = (basis_state("01") + basis_state("10")) / np.sqrt(2)
    assert vqe.energy(h, psi) == pytest.approx(2.0, abs=1e-14)


def test_exact_ground_xx_yy():
    gt = vqe.exact_ground(vqe.Hamiltonian(nu=(0, 0, 0, 0, -1, -1)))
    assert gt.energy == pytest.approx(-2.0, abs=1e-12)
    target = (basis_state("01") + basis_state("10")) / np.sqrt(2)
    assert abs(abs(np.vdot(gt.state, target)) - 1.0) < 1e-12
    assert gt.concurrence == pytest.approx(1.0, abs=1e-12)


def test_exact_ground_diagonal():
    gt = vqe.exact_ground(vqe.Hamiltonian(nu=(0, 1, 1, 0, 0, 0)))
    assert gt.energy == pytest.approx(-2.0)
    assert abs(abs(gt.state[3]) - 1.0) < 1e-12
    assert gt.concurrence == pytest.approx(0.0, abs=1e-12)


def test_exact_ground_eigen_residual_and_energy_consistency():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(100):
        h = vqe.Hamiltonian(nu=tuple(rng.normal(size=6)))
        gt = vqe.exact_ground(h)
        assert np.abs(h.matrix() @ gt.state - gt.energy * gt.state).max() < 1e-10
        assert vqe.energy(h, gt.state) == pytest.approx(gt.energy, abs=1e-10)


def test_variational_principle():
    rng = np.random.default_rng(RNG_SEED + 2)
    h = vqe.load_bundled("entangled")
    gt = vqe.exact_ground(h)
    for _ in range(2000):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert vqe.energy(h, v) >= gt.energy - 1e-12


def test_bundled_entangled_instance():
    h = vqe.load_bundled("entangled")
    assert h.nu[4] == h.nu[5] and h.nu[1] == -h.nu[2]
    gt = vqe.exact_ground(h)
    assert abs(gt.state[1]) ** 2 == pytest.approx(0.47, abs=0.005)
    assert abs(gt.state[2]) ** 2 == pytest.approx(0.53, abs=0.005)
    # ground state confined to span{|01>, |10>}
    assert abs(gt.state[0]) < 1e-10 and abs(gt.state[3]) < 1e-10
    assert gt.concurrence == pytest.approx(0.998, abs=5e-4)


def test_bundled_product_instance():
    gt = vqe.exact_ground(vqe.load_bundled("product"))
    leakage = np.abs(np.delete(gt.state, 2)).max()
    assert leakage < 1e-3
    assert gt.concurrence < 1e-3


def test_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(RNG_SEED + 3)
    h_step = 1e-5
    for _ in range(150):
        kind = ANSATZE[rng.integers(len(ANSATZE))]
        theta = ansatz.random_parameters(kind, rng)
        ham = vqe.Hamiltonian(nu=tuple(rng.normal(size=6)))
        grad = vqe.energy_gradient(kind, theta, ham)
        for j in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h_step
            tm[j] -= h_step
            fd = (vqe.energy(ham, ansatz.prepare_state(kind, tp))
                  - vqe.energy(ham, ansatz.prepare_state(kind, tm))) / (2 * h_step)
            assert grad[j] == pytest.approx(fd, abs=1e-6)


def test_energy_gradient_constant_objective():
    rng = np.random.default_rng(RNG_SEED + 4)
    h = vqe.Hamiltonian(nu=(0.7, 0, 0, 0, 0, 0))
    for kind in ANSATZE:
        grad = vqe.energy_gradient(kind, ansatz.random_parameters(kind, rng), h)
        assert np.abs(grad).max() < 1e-12


def test_energy_gradient_zero_at_stationary_point():
    from pqcgeo.optimize import OptConfig, run_optimization

    h = vqe.load_bundled("entangled")
    cfg = OptConfig(optimizer="gd", max_steps=5000, tol=1e-14, seed=0)
    trace = run_optimization("ldca", h, np.array([0.3, 0.1, 0.8, 0.2, 0.9]), cfg)
    assert trace[-1].grad_norm < 1e-5


def test_hamiltonian_json_roundtrip(tmp_path):
    h = vqe.Hamiltonian(nu=(0.1, -0.2, 0.3, -0.4, 0.5, -0.6), label="roundtrip")
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_dict()))
    back = vqe.Hamiltonian.from_json(path)
    assert back == h


def test_hamiltonian_rejects_bad_nu(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nu": [1, 2, 3], "label": "short"}))
    with pytest.raises(ValueError, match="exactly 6"):
        vqe.Hamiltonian.from_json(path)
    with pytest.raises(ValueError, match="finite"):
        vqe.Hamiltonian(nu=(np.inf, 0, 0, 0, 0, 0))
    for bad in (None, "1", True):
        with pytest.raises(ValueError, match="real numbers"):
            vqe.Hamiltonian.from_dict({"nu": [bad, 0, 0, 0, 0, 0]})
    with pytest.raises(ValueError, match="exactly 6"):
        vqe.Hamiltonian.from_dict([1, 0, 0, 0, 0, 0])


def test_runs_at_the_coefficient_bound_stay_finite():
    # the largest accepted coefficients: energies, errors, gradients, theta and the
    # summary statistics stay finite, with overflow warnings raised as errors
    from pqcgeo import harness, optimize
    for sign in (1.0, -1.0):
        h = vqe.Hamiltonian(nu=tuple(sign * s * vqe.NU_MAX for s in (1, -1, 1, -1, 1, 1)))
        for kind in ANSATZE:
            cfg = optimize.OptConfig(optimizer="qng", max_steps=3)
            traces = optimize.run_trials(kind, h, cfg, 50)
            assert np.all(np.isfinite([[r.energy_error, r.grad_norm, *r.theta]
                                       for t in traces for r in t]))
            assert np.all(np.isfinite(harness.summarize(traces, cfg)["energy_error_std"]))
    with pytest.raises(ValueError, match="overflows"):
        vqe.Hamiltonian(nu=(0, 0, 0, 0, 0, 1.01 * vqe.NU_MAX))


def test_hamiltonian_rejects_overflowing_matrix():
    # each coefficient is finite, but the diagonal or off-diagonal sums overflow to
    # inf, or the matrix stays finite and a run's energy errors and gradients do not
    for nu in ((1e308, 1e308, 0, 0, 0, 0), (0, 0, 0, 0, 1e308, -1e308),
               (-0.71, 0.018, -0.018, 0.01, 0.3, 1e308)):
        with pytest.raises(ValueError, match="overflows"):
            vqe.Hamiltonian(nu=nu)
