import numpy as np
import pytest

from pqcgeo import ansatz, qgt
from pqcgeo.ansatz import ANSATZE, HEA, LDCA, QGAN, SHEA

RNG_SEED = 20260808


def test_qgt_hermitian_and_psd():
    rng = np.random.default_rng(RNG_SEED)
    for kind in ANSATZE:
        for _ in range(2000):
            g = qgt.qgt_full(kind, ansatz.random_parameters(kind, rng))
            assert np.abs(g - g.conj().T).max() < 1e-10
            w = np.linalg.eigvalsh(0.5 * (g.real + g.real.T))
            assert w[0] > -1e-10


def test_qgt_gauge_invariance():
    # multiplying the state map by exp(i f(theta)) must not move the tensor;
    # for linear f the modified jacobian is exp(if) (J + i psi grad_f^T)
    rng = np.random.default_rng(RNG_SEED + 1)
    for kind in ANSATZE:
        m = ansatz.param_count(kind)
        for _ in range(100):
            theta = ansatz.random_parameters(kind, rng)
            psi, jac = ansatz.state_and_jacobian(kind, theta)
            coeffs = rng.normal(size=m)
            phase = np.exp(1j * float(coeffs @ theta))
            jac_mod = phase * (jac + 1j * np.outer(psi, coeffs))
            g0 = qgt.qgt_from_state(psi, jac)
            g1 = qgt.qgt_from_state(phase * psi, jac_mod)
            assert np.abs(g0 - g1).max() < 1e-9


def test_dense_mode_equals_real_part_exactly():
    rng = np.random.default_rng(RNG_SEED + 2)
    for kind in ANSATZE:
        theta = ansatz.random_parameters(kind, rng)
        g = qgt.fs_metric(kind, theta, mode="dense")
        full = qgt.qgt_full(kind, theta).real
        assert np.abs(g - 0.5 * (full + full.T)).max() == 0.0


def test_mask_idempotent_and_exact_zeros():
    rng = np.random.default_rng(RNG_SEED + 3)
    for kind in ANSATZE:
        for mode in ("block", "diag"):
            mask = qgt.block_mask(kind, mode)
            g = qgt.fs_metric(kind, ansatz.random_parameters(kind, rng), mode=mode)
            assert np.all(g[~mask] == 0.0)
            assert np.array_equal(np.where(mask, g, 0.0), g)


def test_mode_aliases():
    assert qgt.canonical_mode("block_diagonal") == qgt.BLOCK
    assert qgt.canonical_mode("diagonal") == qgt.DIAG
    with pytest.raises(ValueError):
        qgt.canonical_mode("sparse")


def test_hea_diagonal_metric_is_identity():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(200):
        g = qgt.fs_metric(HEA, ansatz.random_parameters(HEA, rng), mode="diag")
        assert np.abs(g - np.eye(4)).max() < 1e-9


def test_hea_constant_entries():
    # dense hea metric: unit diagonal, exact zeros at (0,1), (0,3), (1,2)
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(300):
        g = qgt.fs_metric(HEA, ansatz.random_parameters(HEA, rng))
        assert np.abs(np.diag(g) - 1.0).max() < 1e-9
        for i, j in ((0, 1), (0, 3), (1, 2)):
            assert abs(g[i, j]) < 1e-9


def test_ldca_constant_entries():
    # gauge parameters 1, 2, 4 give exact zero rows; the mixing entry (2,2)
    # is the constant 1 for the canonical closed-form state map
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(300):
        g = qgt.fs_metric(LDCA, ansatz.random_parameters(LDCA, rng))
        expected = np.zeros((5, 5))
        expected[2, 2] = 1.0
        expected[4, 4] = g[4, 4]
        assert np.abs(g - expected).max() < 1e-9
        assert 0.0 - 1e-12 <= g[4, 4] <= 1.0 + 1e-12


def test_qgan_structural_entries():
    # the (2,3) entry vanishes identically; the first two diagonal entries are
    # the constant 1/4 of the half-angle rotation generators
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(300):
        theta = ansatz.random_parameters(QGAN, rng)
        g = qgt.fs_metric(QGAN, theta)
        assert abs(g[2, 3]) < 1e-9
        assert abs(g[0, 0] - 0.25) < 1e-9
        assert abs(g[1, 1] - 0.25) < 1e-9
        # (2,2) entry is Var(Z1)/4 = (1 - cos^2 t1)/4
        assert abs(g[2, 2] - (1 - np.cos(theta[0]) ** 2) / 4) < 1e-9


def test_degenerate_vs_nondegenerate_spectra():
    rng = np.random.default_rng(RNG_SEED + 8)
    for kind in (HEA, LDCA):
        for _ in range(200):
            g = qgt.fs_metric(kind, ansatz.random_parameters(kind, rng))
            assert np.linalg.eigvalsh(g)[0] < 1e-10
    # generic-point nondegeneracy of the qgan and shea dense metrics
    assert np.linalg.eigvalsh(qgt.fs_metric(QGAN, np.ones(5)))[0] > 1e-4
    assert np.linalg.eigvalsh(qgt.fs_metric(SHEA, np.ones(6)))[0] > 1e-6


def test_invert_metric_identity():
    for policy in (qgt.PseudoInverse(), qgt.Tikhonov(epsilon=1e-12)):
        inv = qgt.invert_metric(np.eye(3), policy)
        assert np.abs(inv - np.eye(3)).max() < 1e-9


def test_invert_metric_pseudo_inverse_spectral():
    inv = qgt.invert_metric(np.diag([4.0, 0.0]), qgt.PseudoInverse(rcond=1e-8))
    assert np.abs(inv - np.diag([0.25, 0.0])).max() < 1e-15


def test_invert_metric_tikhonov():
    inv = qgt.invert_metric(np.diag([4.0, 0.0]), qgt.Tikhonov(epsilon=1e-3))
    assert np.abs(inv - np.diag([1 / 4.001, 1000.0])).max() < 1e-9


def test_invert_metric_degenerate_error():
    # no eigenvalue above the cutoff: the pseudo-inverse is the zero matrix
    assert np.array_equal(qgt.invert_metric(np.zeros((3, 3)), qgt.PseudoInverse()),
                          np.zeros((3, 3)))


def test_invert_metric_validates_input():
    with pytest.raises(ValueError, match="symmetric"):
        qgt.invert_metric(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        qgt.PseudoInverse(rcond=0.0)
    with pytest.raises(ValueError):
        qgt.Tikhonov(epsilon=-1.0)


def test_invert_metric_result_symmetric():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        g = a @ a.T
        for policy in (qgt.PseudoInverse(), qgt.Tikhonov(epsilon=1e-4)):
            inv = qgt.invert_metric(g, policy)
            assert np.abs(inv - inv.T).max() < 1e-10


@pytest.mark.parametrize("kind", ANSATZE)
def test_batched_qgt_metric_and_gradient_match_per_row_calls(kind):
    from pqcgeo import vqe

    rng = np.random.default_rng(RNG_SEED + 10)
    m = ansatz.param_count(kind)
    thetas = rng.uniform(0, 2 * np.pi, (7, 3, m))
    flat = thetas.reshape(-1, m)
    ham = vqe.load_bundled("entangled")
    cases = [(lambda t: qgt.qgt_full(kind, t), (m, m)),
             (lambda t: vqe.energy_gradient(kind, t, ham), (m,))]
    cases += [(lambda t, mode=mode: qgt.fs_metric(kind, t, mode), (m, m))
              for mode in qgt.METRIC_MODES]
    for fn, shape in cases:
        batched = fn(thetas)
        assert batched.shape == (7, 3) + shape
        per_row = np.array([fn(t) for t in flat]).reshape(batched.shape)
        np.testing.assert_allclose(batched, per_row, rtol=0, atol=1e-15)
