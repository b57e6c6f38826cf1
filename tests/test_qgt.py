import warnings
from dataclasses import asdict

import numpy as np
import pytest

from pqcgeo import ansatz, qgt
from pqcgeo.ansatz import ANSATZE, HEA, LDCA, QGAN, SHEA

RNG_SEED = 20260808


def test_qgt_hermitian_and_psd():
    rng = np.random.default_rng(RNG_SEED)
    for kind in ANSATZE:
        for _ in range(2000):
            theta = ansatz.random_parameters(kind, rng)
            g = qgt.qgt_from_state(*ansatz.state_and_jacobian(kind, theta))
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
        full = qgt.qgt_from_state(*ansatz.state_and_jacobian(kind, theta)).real
        assert np.abs(g - 0.5 * (full + full.T)).max() == 0.0


def test_mask_idempotent_and_exact_zeros():
    rng = np.random.default_rng(RNG_SEED + 3)
    for kind in ANSATZE:
        for mode in ("block", "diag"):
            mask = qgt.block_mask(kind, mode)
            g = qgt.fs_metric(kind, ansatz.random_parameters(kind, rng), mode=mode)
            assert np.all(g[~mask] == 0.0)
            assert np.array_equal(np.where(mask, g, 0.0), g)


@pytest.mark.parametrize("kind", ANSATZE)
def test_fs_metric_from_state_matches_inline_reference_bit_for_bit(kind):
    # the metric as fs_metric_from_state computed it before it shared the QGT helper
    # that the validate qgt-structure suite also calls
    thetas = np.random.default_rng(RNG_SEED + 11).uniform(0, 2 * np.pi,
                                                          (50, ansatz.param_count(kind)))
    psi, jac = ansatz.state_and_jacobian(kind, thetas)
    jac_h = jac.conj().swapaxes(-1, -2)
    v = (jac_h @ psi[..., None])[..., 0]
    g = (jac_h @ jac - v[..., :, None] * v.conj()[..., None, :]).real
    for mode in qgt.METRIC_MODES:
        mask = qgt.block_mask(kind, mode)
        expected = np.where(mask, 0.5 * (g + g.swapaxes(-1, -2)), 0.0)
        assert qgt.fs_metric_from_state(psi, jac, mask).tobytes() == expected.tobytes()


def test_fs_metric_refuses_bool_and_text_parameters():
    # the float conversion read True as 1.0 and parsed "0.1"
    for theta in ([True, 0, 0, 0], [0, 0, 0, "0.1"]):
        with pytest.raises(ValueError, match="^parameters must be numbers, not text or bool"):
            qgt.fs_metric(HEA, theta)


def test_mode_aliases():
    # each mode has one spelling; the aliases "diagonal" and "block_diagonal" were removed
    assert [qgt.canonical_mode(mode) for mode in qgt.METRIC_MODES] == ["dense", "block", "diag"]
    for mode in ("diagonal", "block_diagonal", "block-diagonal", "Block", " diag", "sparse"):
        with pytest.raises(ValueError, match="unknown metric mode"):
            qgt.canonical_mode(mode)
        with pytest.raises(ValueError, match="unknown metric mode"):
            qgt.block_mask("hea", mode)


def test_each_inversion_policy_names_itself_once():
    assert (qgt.PseudoInverse.name, qgt.Tikhonov.name) == ("pinv", "tikhonov")
    # the name is a class constant, not a field: asdict and the constructor ignore it
    assert asdict(qgt.PseudoInverse(2.0)) == {"rcond": 2.0}
    assert asdict(qgt.Tikhonov(0.5)) == {"epsilon": 0.5}
    with pytest.raises(TypeError):
        qgt.Tikhonov(name="pinv")


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


@pytest.mark.parametrize("policy", [qgt.PseudoInverse(), qgt.Tikhonov()],
                         ids=["pinv", "tikhonov"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invert_metric_refuses_non_finite_metrics(policy, bad):
    # a NaN metric gave a NaN inverse, and an infinite entry the zero matrix, which a QNG
    # step takes as its fallback to plain gradient descent
    g = np.stack([np.eye(3), np.eye(3)])
    g[1, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        qgt.invert_metric(g, policy)
    with pytest.raises(ValueError, match="finite"):
        qgt.invert_metric(g[1], policy)


@pytest.mark.parametrize("g,got", [
    ([["2", "0"], ["0", "1"]], "'2'"),  # was parsed as diag(2, 1)
    (np.eye(2, dtype=bool), "True"),  # was read as the identity
    (np.array([[2 + 1j, 0], [0, 1]]), "(2+1j)"),  # dropped 1j with a ComplexWarning
], ids=["text", "bool array", "complex array"])
def test_invert_metric_refuses_entries_that_are_not_real_numbers(g, got):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            qgt.invert_metric(g)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"metric entries must be real numbers, got {got}"


def test_invert_metric_result_symmetric():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        g = a @ a.T
        for policy in (qgt.PseudoInverse(), qgt.Tikhonov(epsilon=1e-4)):
            inv = qgt.invert_metric(g, policy)
            assert np.abs(inv - inv.T).max() < 1e-10


@pytest.mark.parametrize("kind", ANSATZE)
def test_diag_path_equals_lapack_inverse_else_a_numpy_or_openblas_upgrade_broke_it(kind):
    # optimize's diag QNG step takes qgt._diag_inverse for the diagonal of _invert on the
    # diag-masked metric. That rests on what numpy's LAPACK does with a diagonal matrix:
    # eigh returns its diagonal and a signed permutation, and LU divides by its diagonal.
    # If this fails after an upgrade, the diag QNG traces no longer match the block path's
    # arithmetic bit for bit, though both are still correct inverses.
    rng = np.random.default_rng(RNG_SEED + 12)
    m = ansatz.param_count(kind)
    thetas = rng.uniform(0, 2 * np.pi, (2000, m))
    special = rng.random(thetas.shape) < 0.25  # angles at 0, pi/2, pi and 3 pi/2
    thetas[special] = rng.choice(np.arange(4) * np.pi / 2, special.sum())
    psi, jac = ansatz.state_and_jacobian(kind, thetas)
    g = qgt.fs_metric_from_state(psi, jac, qgt.block_mask(kind, qgt.DIAG))
    # exact zero entries: ldca's gauge angles, and the special angles; hea's are all 1
    assert (np.diagonal(g, axis1=-2, axis2=-1) == 0).any() == (kind != HEA)
    off_diagonal = ~np.eye(m, dtype=bool)
    for policy in (qgt.PseudoInverse(), qgt.Tikhonov(), qgt.PseudoInverse(rcond=2.0)):
        inv = qgt._invert(g, policy)
        winv = qgt._diag_inverse(psi, jac, policy)
        assert np.diagonal(inv, axis1=-2, axis2=-1).tobytes() == winv.tobytes(), policy
        assert np.all(inv[:, off_diagonal] == 0.0), policy


def _inline_qng_rule(psi, jac, grad, mode, mask, policy):
    # the QNG step as optimize's engine wrote it inline before qgt._natural_direction
    if mode == qgt.DIAG:
        winv = qgt._diag_inverse(psi, jac, policy)
        fallback = ~winv.any(axis=-1)
        direction = winv * grad + 0.0
    else:
        ginv = qgt._invert(qgt.fs_metric_from_state(psi, jac, mask), policy)
        fallback = ~ginv.any(axis=(-2, -1))
        direction = (ginv @ grad[..., None])[..., 0]
    if fallback.any():
        direction = np.where(fallback[:, None], grad, direction)
    return direction, fallback


def _negative_zeros(x):
    return (x == 0) & np.signbit(x)


@pytest.mark.parametrize("policy", [qgt.PseudoInverse(), qgt.Tikhonov(),
                                    qgt.PseudoInverse(rcond=0.5), qgt.PseudoInverse(rcond=2.0)],
                         ids=["pinv", "tikhonov", "rcond0.5", "rcond2"])
@pytest.mark.parametrize("mode", qgt.METRIC_MODES)
@pytest.mark.parametrize("kind", ANSATZE)
def test_natural_direction_equals_the_inline_rule_it_replaced_bit_for_bit(kind, mode, policy):
    from pqcgeo import vqe

    rng = np.random.default_rng(RNG_SEED + 13)
    m = ansatz.param_count(kind)
    thetas = rng.uniform(0, 2 * np.pi, (40, m))
    special = rng.random(thetas.shape) < 0.25  # angles at 0, pi/2, pi and 3 pi/2
    thetas[special] = rng.choice(np.arange(4) * np.pi / 2, special.sum())
    psi, jac = ansatz._evaluate_rows(kind, thetas)
    grad = vqe.energy_and_gradient(vqe.load_bundled("entangled"), psi, jac)[1]
    # row 0: a zero Jacobian, so a zero metric, whose pseudo-inverse is all zero and whose
    # step falls back to a gradient with -0.0 entries; row 1: -0.0 entries in the gradient
    # of a usable metric, where w^+ grad is -0.0 and the direction must read +0.0
    jac[0] = 0.0
    grad[0] = np.where(np.arange(m) % 2 == 0, -0.0, 0.25)
    grad[1, ::2] = -0.0
    mask = qgt.block_mask(kind, mode)
    direction, fallback = qgt._natural_direction(psi, jac, grad, mode, mask, policy)
    expected, expected_fallback = _inline_qng_rule(psi, jac, grad, mode, mask, policy)
    assert direction.dtype == expected.dtype and direction.shape == expected.shape == grad.shape
    assert direction.tobytes() == expected.tobytes()
    assert fallback.dtype == bool and fallback.tobytes() == expected_fallback.tobytes()
    # the cases above are reached: only Tikhonov inverts a zero metric
    assert fallback[0] == (not isinstance(policy, qgt.Tikhonov))
    assert _negative_zeros(direction[0]).any() == fallback[0]
    assert fallback.all() == (policy == qgt.PseudoInverse(rcond=2.0))
    if not fallback[1]:
        assert not _negative_zeros(direction[1]).any()


@pytest.mark.parametrize("kind", ANSATZE)
def test_batched_qgt_metric_and_gradient_match_per_row_calls(kind):
    from pqcgeo import vqe

    rng = np.random.default_rng(RNG_SEED + 10)
    m = ansatz.param_count(kind)
    thetas = rng.uniform(0, 2 * np.pi, (7, 3, m))
    flat = thetas.reshape(-1, m)
    ham = vqe.load_bundled("entangled")
    cases = [(lambda t: qgt.qgt_from_state(*ansatz.state_and_jacobian(kind, t)), (m, m)),
             (lambda t: vqe.energy_gradient(kind, t, ham), (m,))]
    cases += [(lambda t, mode=mode: qgt.fs_metric(kind, t, mode), (m, m))
              for mode in qgt.METRIC_MODES]
    for fn, shape in cases:
        batched = fn(thetas)
        assert batched.shape == (7, 3) + shape
        per_row = np.array([fn(t) for t in flat]).reshape(batched.shape)
        assert batched.tobytes() == per_row.tobytes()
