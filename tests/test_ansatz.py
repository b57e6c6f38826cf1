import tracemalloc
import warnings

import numpy as np
import pytest

from pqcgeo import ansatz, geometry, qgt, simulator as sim, vqe
from pqcgeo.ansatz import ANSATZE, HEA, LDCA, QGAN, QGAN_AUG, SHEA

RNG_SEED = 20260808


def test_parameter_counts():
    assert [ansatz.param_count(k) for k in ANSATZE] == [4, 5, 5, 6, 9]


def test_wrong_parameter_count_rejected():
    with pytest.raises(ValueError, match="parameters"):
        ansatz.prepare_state(HEA, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        ansatz.prepare_state(HEA, [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="unknown ansatz"):
        ansatz.prepare_state("nope", [0.0])


@pytest.mark.parametrize("kind", ["QGAN_AUG", "qgan_aug", "HEA", " hea", "Qgan-Aug"])
def test_each_family_has_one_spelling(kind):
    # case, whitespace and underscore forms used to be folded onto the family names
    with pytest.raises(ValueError, match="unknown ansatz"):
        ansatz.resolve_kind(kind)
    with pytest.raises(ValueError, match="unknown ansatz"):
        ansatz.param_count(kind)


def test_hea_zero_angles_gives_00():
    assert np.abs(ansatz.prepare_state(HEA, np.zeros(4)) - sim.basis_state("00")).max() == 0.0


def test_qgan_zero_angles_gives_00():
    psi = ansatz.prepare_state(QGAN, np.zeros(5))
    assert sim.fidelity_up_to_phase(psi, sim.basis_state("00")) == pytest.approx(1.0, abs=1e-15)


def test_qgan_aug_zero_angles_gives_00():
    psi = ansatz.prepare_state(QGAN_AUG, np.zeros(9))
    assert sim.fidelity_up_to_phase(psi, sim.basis_state("00")) == pytest.approx(1.0, abs=1e-15)


def test_ldca_quarter_mixing_example():
    psi = ansatz.prepare_state(LDCA, [0, 0, np.pi / 4, 0, 0])
    expected = np.cos(np.pi / 4) * sim.basis_state("01") - 1j * np.sin(np.pi / 4) * sim.basis_state("10")
    assert np.abs(psi - expected).max() < 1e-15


def test_states_unit_norm():
    rng = np.random.default_rng(RNG_SEED)
    for kind in ANSATZE:
        for _ in range(1000):
            psi = ansatz.prepare_state(kind, ansatz.random_parameters(kind, rng))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(RNG_SEED + 1)
    h = 1e-5
    for kind in ANSATZE:
        m = ansatz.param_count(kind)
        for _ in range(100):
            theta = ansatz.random_parameters(kind, rng)
            jac = ansatz.state_jacobian(kind, theta)
            for j in range(m):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd = (ansatz.prepare_state(kind, tp) - ansatz.prepare_state(kind, tm)) / (2 * h)
                assert np.abs(fd - jac[:, j]).max() < 1e-6


def test_jacobian_norm_preservation_direction():
    # d||psi||^2/dtheta_j = 2 Re<psi|d_j psi> must vanish
    rng = np.random.default_rng(RNG_SEED + 2)
    for kind in ANSATZE:
        for _ in range(200):
            psi, jac = ansatz.state_and_jacobian(kind, ansatz.random_parameters(kind, rng))
            assert np.abs(np.real(psi.conj() @ jac)).max() < 1e-10


def test_hea_first_column_zero_00_component_at_origin():
    jac = ansatz.state_jacobian(HEA, np.zeros(4))
    assert abs(jac[0, 0]) < 1e-15


# --- each amplitude formula written once, against the hand-differentiated maps it replaced ---

def _ref_columns(a):
    return a.transpose(-1, *range(a.ndim - 1))


def _ref_put(out, *entries):
    _ref_columns(out)[...] = entries


_REF_Z1 = np.array([1, 1, -1, -1], dtype=complex)
_REF_Z2 = np.array([1, -1, 1, -1], dtype=complex)
_REF_Z1Z2 = np.array([1, -1, -1, 1], dtype=complex)


def _ref_hea(t, psi, jac):
    t1, t2, t3, t4 = _ref_columns(t)
    c1, s1, c3, s3 = np.cos(t1), np.sin(t1), np.cos(t3), np.sin(t3)
    cp, sp = np.cos(t2 + t4), np.sin(t2 + t4)
    cm, sm = np.cos(t2 - t4), np.sin(t2 - t4)
    _ref_put(psi, c1 * c3 * cp - s1 * s3 * sm, c1 * c3 * sp - s1 * s3 * cm,
             c1 * s3 * cp + s1 * c3 * sm, s1 * c3 * cm + c1 * s3 * sp)
    _ref_put(jac[..., 0], -s1 * c3 * cp - c1 * s3 * sm, -s1 * c3 * sp - c1 * s3 * cm,
             -s1 * s3 * cp + c1 * c3 * sm, c1 * c3 * cm - s1 * s3 * sp)
    _ref_put(jac[..., 1], -c1 * c3 * sp - s1 * s3 * cm, c1 * c3 * cp + s1 * s3 * sm,
             -c1 * s3 * sp + s1 * c3 * cm, -s1 * c3 * sm + c1 * s3 * cp)
    _ref_put(jac[..., 2], -c1 * s3 * cp - s1 * c3 * sm, -c1 * s3 * sp - s1 * c3 * cm,
             c1 * c3 * cp - s1 * s3 * sm, -s1 * s3 * cm + c1 * c3 * sp)
    _ref_put(jac[..., 3], -c1 * c3 * sp + s1 * s3 * cm, c1 * c3 * cp - s1 * s3 * sm,
             -c1 * s3 * sp - s1 * c3 * cm, s1 * c3 * sm + c1 * s3 * cp)


def _ref_ldca(t, psi, jac):
    t1, t2, t3, t4, t5 = _ref_columns(t)
    e = np.exp(-0.5j * (t1 - t2 - t4))
    c3, s3, c5, s5 = np.cos(t3), np.sin(t3), np.cos(t5), np.sin(t5)
    psi[..., 1] = e * (c3 * c5 - 1j * s3 * s5)
    psi[..., 2] = e * -(s5 * c3 + 1j * s3 * c5)
    jac[..., 0] = -0.5j * psi
    jac[..., 1] = 0.5j * psi
    jac[..., 3] = 0.5j * psi
    jac[..., 1, 2] = e * (-s3 * c5 - 1j * c3 * s5)
    jac[..., 2, 2] = e * (s3 * s5 - 1j * c3 * c5)
    jac[..., 1, 4] = e * (-c3 * s5 - 1j * s3 * c5)
    jac[..., 2, 4] = e * (-c3 * c5 + 1j * s3 * s5)


def _ref_qgan(t, psi, jac):
    t1, t2, t3, t4, t5 = _ref_columns(t)
    c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
    c2, s2 = np.cos(t2 / 2), np.sin(t2 / 2)
    p00 = np.exp(-0.5j * (t3 + t4 + t5))
    p01 = np.exp(-0.5j * (t3 - t4 - t5))
    p10 = np.exp(0.5j * (t3 - t4 + t5))
    p11 = np.exp(0.5j * (t3 + t4 - t5))
    _ref_put(psi, p00 * c1 * c2, -1j * p01 * c1 * s2, -1j * p10 * s1 * c2, -p11 * s1 * s2)
    _ref_put(jac[..., 0], p00 * (-s1 / 2) * c2, -1j * p01 * (-s1 / 2) * s2,
             -1j * p10 * (c1 / 2) * c2, -p11 * (c1 / 2) * s2)
    _ref_put(jac[..., 1], p00 * c1 * (-s2 / 2), -1j * p01 * c1 * (c2 / 2),
             -1j * p10 * s1 * (-s2 / 2), -p11 * s1 * (c2 / 2))
    jac[..., 2] = -0.5j * psi * _REF_Z1
    jac[..., 3] = -0.5j * psi * _REF_Z2
    jac[..., 4] = -0.5j * psi * _REF_Z1Z2


def _ref_shea(t, psi, jac):
    t1, t2, t3, t4, t5, t6 = _ref_columns(t)
    c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
    c2, s2 = np.cos(t2 / 2), np.sin(t2 / 2)
    c3, s3 = np.cos(t3 / 2), np.sin(t3 / 2)
    pa = np.exp(-0.5j * (t5 + t6))
    pb = np.exp(-0.5j * (t5 - t6))
    pg = np.exp(0.5j * (t5 - t6))
    pd = np.exp(-0.25j * (t4 - 2 * (t5 + t6)))
    _ref_put(psi, -1j * pa * c1 * s2, pb * (c1 * c2 * c3 - 1j * s1 * s2 * s3),
             pg * (-s1 * s2 * c3 + 1j * c1 * c2 * s3), -1j * pd * s1 * c2)
    _ref_put(jac[..., 0], -1j * pa * (-s1 / 2) * s2,
             pb * ((-s1 / 2) * c2 * c3 - 1j * (c1 / 2) * s2 * s3),
             pg * (-(c1 / 2) * s2 * c3 + 1j * (-s1 / 2) * c2 * s3), -1j * pd * (c1 / 2) * c2)
    _ref_put(jac[..., 1], -1j * pa * c1 * (c2 / 2),
             pb * (c1 * (-s2 / 2) * c3 - 1j * s1 * (c2 / 2) * s3),
             pg * (-s1 * (c2 / 2) * c3 + 1j * c1 * (-s2 / 2) * s3), -1j * pd * s1 * (-s2 / 2))
    jac[..., 1, 2] = pb * (c1 * c2 * (-s3 / 2) - 1j * s1 * s2 * (c3 / 2))
    jac[..., 2, 2] = pg * (-s1 * s2 * (-s3 / 2) + 1j * c1 * c2 * (c3 / 2))
    jac[..., 3, 3] = -0.25j * psi[..., 3]
    jac[..., 4] = -0.5j * psi * _REF_Z1
    jac[..., 5] = -0.5j * psi * _REF_Z2


_REF_STATE_JAC = {HEA: _ref_hea, LDCA: _ref_ldca, QGAN: _ref_qgan, SHEA: _ref_shea}


@pytest.mark.parametrize("kind", sorted(_REF_STATE_JAC))
def test_state_and_jacobian_match_the_hand_differentiated_maps_they_replaced(kind):
    # Byte equality, except ldca: where a (cos, sin) factor is exactly 0, some of its
    # Jacobian entries are -0.0 where the hand-written signs gave +0.0 (equal values).
    # Up to 10,000 rows: past 16,384 the replaced maps changed bits with the batch size.
    rng = np.random.default_rng(RNG_SEED + 12)
    m = ansatz.param_count(kind)
    special = np.array([0.0, np.pi / 2, np.pi, np.pi / 4])
    for shape in ((m,), (1, m), (7, m), (3, 5, m), (10_000, m)):
        thetas = rng.uniform(-10, 10, shape)
        flat = thetas.reshape(-1, m)
        flat[::3] = special[rng.integers(4, size=flat[::3].shape)]
        flat[0] = special[rng.integers(4, size=m)]
        ref_psi = np.zeros(shape[:-1] + (4,), dtype=complex)
        ref_jac = np.zeros(shape[:-1] + (4, m), dtype=complex)
        _REF_STATE_JAC[kind](thetas, ref_psi, ref_jac)
        psi, jac = ansatz.state_and_jacobian(kind, thetas)
        if kind == LDCA:
            assert np.array_equal(psi, ref_psi) and np.array_equal(jac, ref_jac)
        else:
            assert psi.tobytes() == ref_psi.tobytes() and jac.tobytes() == ref_jac.tobytes()


# --- gate-level realizations cross-checked against the closed forms ---

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _hea_circuit(t):
    layer1 = sim.rotation("Y", 2 * t[0], qubit=1) @ sim.rotation("Y", 2 * t[1], qubit=2)
    layer2 = sim.rotation("Y", 2 * t[2], qubit=1) @ sim.rotation("Y", 2 * t[3], qubit=2)
    return layer2 @ CNOT @ layer1 @ sim.basis_state("00")


def _qgan_circuit(t):
    u = sim.rotation("ZZ", t[4])
    u = u @ sim.rotation("Z", t[2], qubit=1)
    u = u @ sim.rotation("Z", t[3], qubit=2)
    u = u @ sim.rotation("X", t[0], qubit=1)
    u = u @ sim.rotation("X", t[1], qubit=2)
    return u @ sim.basis_state("00")


def _ldca_circuit(t):
    # phase gates act first, on |01>, where they reduce to a global phase
    psi = sim.basis_state("01")
    psi = sim.rotation("Z", t[0], qubit=1) @ psi
    psi = sim.rotation("Z", t[1], qubit=2) @ psi
    psi = sim.rotation("ZZ", t[3]) @ psi
    psi = sim.iswap_dag(t[2]) @ psi
    psi = sim.rotation("YX", -t[4]) @ sim.rotation("XY", t[4]) @ psi
    return psi


@pytest.mark.parametrize("kind,circuit", [(HEA, _hea_circuit), (QGAN, _qgan_circuit),
                                          (LDCA, _ldca_circuit)])
def test_gate_realization_matches_closed_form(kind, circuit):
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(1000):
        theta = ansatz.random_parameters(kind, rng)
        fid = sim.fidelity_up_to_phase(circuit(theta), ansatz.prepare_state(kind, theta))
        assert fid >= 1.0 - 1e-10


# --- closed-form concurrence and curvature ---

def test_concurrence_examples():
    assert ansatz.concurrence_closed(HEA, [np.pi / 4, 0, 0.3, 0.7]) == pytest.approx(1.0)
    assert ansatz.concurrence_closed(QGAN, [np.pi / 2, np.pi / 2, 0.2, 0.4, np.pi / 2]) \
        == pytest.approx(1.0)
    assert ansatz.concurrence_closed(LDCA, [0.1, 0.2, 0, 0.3, 0]) == pytest.approx(0.0)


def test_concurrence_closed_matches_brute_force():
    rng = np.random.default_rng(RNG_SEED + 4)
    for kind in ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, size=(2000, ansatz.param_count(kind)))
        closed = ansatz.concurrence_closed(kind, thetas)
        brute = geometry.concurrence(np.array([ansatz.prepare_state(kind, t) for t in thetas]))
        assert np.abs(closed - brute).max() < 1e-9


def test_qgan_aug_concurrence_ignores_local_rotations():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(1000):
        base = rng.uniform(0, 2 * np.pi, 5)
        aug = np.concatenate([base, rng.uniform(0, 2 * np.pi, 4)])
        c_base = geometry.concurrence(ansatz.prepare_state(QGAN, base))
        c_aug = geometry.concurrence(ansatz.prepare_state(QGAN_AUG, aug))
        assert abs(c_base - c_aug) < 1e-9
        assert abs(ansatz.concurrence_closed(QGAN_AUG, aug) - c_base) < 1e-9


def test_ricci_circuit_examples():
    # C = 0 gives 12 - 1/1 + 1/(-1) = 10
    assert ansatz.ricci_circuit_grid(HEA, [0.0, 0.3, 0.2, 0.1]) == pytest.approx(10.0, abs=1e-12)
    assert ansatz.ricci_circuit_grid(LDCA, [0.4, 0.5, 0, 0.6, 0]) == pytest.approx(10.0, abs=1e-12)
    # sin(2 t1) = 1/sqrt(2) at t1 = pi/8 gives C = 1/sqrt(2) and curvature 8
    assert ansatz.ricci_circuit_grid(HEA, [np.pi / 8, 0, 0, 0]) == pytest.approx(8.0, abs=1e-12)


def test_ricci_circuit_singularity_signal():
    assert ansatz.ricci_circuit_grid(HEA, [np.pi / 4, 0, 0, 0]) == -np.inf


def test_ricci_circuit_near_the_pole_returns_the_grid_value():
    # C = 0.99999999999998 lies within 1e-12 of the pole, where a threshold used to raise
    theta = [np.pi / 4 + 1e-7, 0.0, 0.0, 0.0]
    assert 1.0 - 1e-12 < ansatz.concurrence_closed(HEA, theta) < 1.0
    r = ansatz.ricci_circuit_grid(HEA, theta)
    assert r == pytest.approx(-5.004e13, rel=1e-3)


def _reference_ricci_closed_circuit(kind, theta):
    """The single-vector curvature as it was, with its own 1 - C <= 1e-12 pole threshold."""
    kind = ansatz.resolve_kind(kind)
    theta = ansatz._check_theta(kind, theta)
    c = float(ansatz._concurrence(kind, theta))
    if 1.0 - c <= 1e-12:
        raise geometry.SingularityError(f"curvature pole: concurrence = {c!r}")
    return geometry.ricci_closed(c)


@pytest.mark.parametrize("kind", ANSATZE)
def test_ricci_closed_circuit_matches_the_thresholded_copy_it_replaced(kind):
    rng = np.random.default_rng(RNG_SEED)
    thetas = rng.uniform(0, 2 * np.pi, size=(20_000, ansatz.param_count(kind)))
    for theta in thetas:
        r = ansatz.ricci_circuit_grid(kind, theta)
        try:
            expected = _reference_ricci_closed_circuit(kind, theta)
        except geometry.SingularityError:
            # the one change: 1 - 1e-12 < C < 1 now gets the grid's finite value
            assert 1.0 - 1e-12 < ansatz.concurrence_closed(kind, theta) < 1.0, theta
            assert r > -np.inf
            expected = r
        assert type(r) is float and r == expected, theta
    pole = {HEA: [np.pi / 4, 0, 0, 0], LDCA: [0, 0, np.pi / 4, 0, 0],
            QGAN: [np.pi / 2, np.pi / 2, 0, 0, np.pi / 2],
            SHEA: [np.pi / 2, np.pi / 2, np.pi, 0, 0, 0],
            QGAN_AUG: [np.pi / 2, np.pi / 2, 0, 0, np.pi / 2, 0, 0, 0, 0]}[kind]
    # the grid reads -inf where the reference raises
    assert ansatz.ricci_circuit_grid(kind, pole) == -np.inf
    with pytest.raises(geometry.SingularityError, match="curvature pole"):
        _reference_ricci_closed_circuit(kind, pole)


@pytest.mark.parametrize("kind", ANSATZE)
def test_single_vector_closed_forms_are_the_batched_values_bit_for_bit(kind):
    # a single vector's columns are numpy scalars, on which ** 2 used to be pow(), which
    # can differ from the batched x * x in the last bit; ldca read other bits here
    thetas = np.random.default_rng(RNG_SEED + 16).uniform(
        0, 2 * np.pi, size=(2_000, ansatz.param_count(kind)))
    c, r = ansatz.concurrence_closed(kind, thetas), ansatz.ricci_circuit_grid(kind, thetas)
    assert [ansatz.concurrence_closed(kind, theta) for theta in thetas] == c.tolist()
    assert [ansatz.ricci_circuit_grid(kind, theta) for theta in thetas] == r.tolist()


def test_ricci_circuit_shea_pole_curve_stays_negative():
    # theta_1 = theta_2 = pi/2 puts C = 1 where theta_3 - theta_4/4 = pi; on an 801^2
    # grid over (theta_3, theta_4) that is the 201 cells (400 + k, 4 k)
    axis = np.linspace(0.0, 2.0 * np.pi, 801)
    grid = np.zeros((801, 801, 6))
    grid[:, :, :2] = np.pi / 2
    grid[:, :, 2] = axis[:, None]
    grid[:, :, 3] = axis[None, :]
    k = np.arange(201)
    pole = ansatz.ricci_circuit_grid(SHEA, grid)[400 + k, 4 * k]
    assert np.all(pole < -5.0)


def test_ricci_circuit_matches_universal_form():
    from pqcgeo.geometry import ricci_closed

    rng = np.random.default_rng(RNG_SEED + 6)
    for kind in ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, size=(2000, ansatz.param_count(kind)))
        # C of the prepared state, so the closed-form concurrence does not feed both sides
        c = np.asarray(geometry.concurrence(ansatz.prepare_state(kind, thetas)))
        keep = c <= 0.99
        circuit = np.asarray(ansatz.ricci_circuit_grid(kind, thetas))[keep]
        universal = ricci_closed(c[keep])
        rel = np.abs(circuit - universal) / (1.0 + np.abs(universal))
        assert rel.max() < 1e-8


# --- differential test against the per-family closed forms that R(C) replaced ---

def _reference_shea_pole_argument(t):
    a = np.sin(t[0]) ** 2 * np.sin(t[1]) ** 2 * (np.cos(t[2]) - np.cos(t[3] / 4)) ** 2
    b = (np.sin(t[2]) * (np.cos(t[0]) * np.cos(t[1]) + 1)
         - np.sin(t[0]) * np.sin(t[1]) * np.sin(t[3] / 4)) ** 2
    return a + b


def _reference_concurrence_closed(kind, theta):
    """The per-family concurrence as written before R(C) was applied to it."""
    t = np.moveaxis(np.asarray(theta, dtype=float), -1, 0)
    if kind == HEA:
        c = np.abs(np.sin(2 * t[0]) * np.cos(2 * t[1]))
    elif kind == LDCA:
        inner = 3.0 - 2.0 * np.cos(4 * t[2]) * np.cos(2 * t[4]) ** 2 - np.cos(4 * t[4])
        c = 0.5 * np.sqrt(np.clip(inner, 0.0, None))
    elif kind in (QGAN, QGAN_AUG):
        c = np.abs(np.sin(t[0]) * np.sin(t[1]) * np.sin(t[4]))
    else:
        c = 0.5 * np.sqrt(_reference_shea_pole_argument(t))
    return np.clip(c, 0.0, 1.0)


def _reference_ricci_from_pole(num, den):
    den = np.asarray(den, dtype=float)
    safe = np.where(den != 0.0, den, 1.0)
    return np.where(den != 0.0, np.asarray(num, dtype=float) / safe, -np.inf)


def _reference_ricci_circuit_grid(kind, theta):
    """The four per-family curvature forms, each R(C) rewritten in its own variables."""
    t = np.moveaxis(np.asarray(theta, dtype=float), -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == HEA:
            s = np.sin(2 * t[0]) * np.cos(2 * t[1])
            return 12.0 + _reference_ricci_from_pole(2.0, s * s - 1.0)
        if kind == LDCA:
            cc = (np.cos(2 * t[2]) * np.cos(2 * t[4])) ** 2
            return np.where(cc != 0.0, 12.0 - 2.0 / np.where(cc != 0.0, cc, 1.0), -np.inf)
        if kind in (QGAN, QGAN_AUG):
            s = np.sin(t[0]) * np.sin(t[1]) * np.sin(t[4])
            return 12.0 + _reference_ricci_from_pole(2.0, s * s - 1.0)
        n = np.minimum(_reference_shea_pole_argument(t), 4.0)
        return _reference_ricci_from_pole(12.0 * n - 40.0, n - 4.0)


@pytest.mark.parametrize("kind", ANSATZE)
def test_curvature_matches_the_per_family_forms_it_replaced(kind):
    rng = np.random.default_rng(RNG_SEED + 9)
    thetas = rng.uniform(0, 2 * np.pi, size=(20000, ansatz.param_count(kind)))
    c = ansatz.concurrence_closed(kind, thetas)
    assert c.tobytes() == _reference_concurrence_closed(kind, thetas).tobytes()
    r, ref = ansatz.ricci_circuit_grid(kind, thetas), _reference_ricci_circuit_grid(kind, thetas)
    assert np.array_equal(np.isneginf(r), np.isneginf(ref))
    rel = np.abs(r - ref) / (1.0 + np.abs(ref))
    assert rel[c <= 0.99].max() <= 1e-12


HALF_PI = np.pi / 2
# Scans across the C = 1 pole, as in perfbench/workloads.py: (1-based scan pair, pinned
# values); the other parameters are seeded draws. The last shea layout is the pole scan
# whose C = 1 curve and C = 1/sqrt(2) cells (where R(C) is exactly 8) the grid hits.
QGAN_LAYOUTS = (((1, 2), {5: HALF_PI}), ((1, 5), {2: HALF_PI}), ((2, 5), {1: HALF_PI}))
POLE_LAYOUTS = {
    HEA: (((1, 2), {}),),
    LDCA: (((3, 5), {}),),
    QGAN: QGAN_LAYOUTS,
    QGAN_AUG: QGAN_LAYOUTS,
    SHEA: (((1, 2), {3: np.pi, 4: 0.0}),
           ((3, 4), {1: HALF_PI, 2: HALF_PI, 5: 0.0, 6: 0.0})),
}


@pytest.mark.parametrize("kind", ANSATZE)
def test_pole_scans_match_the_per_family_forms_it_replaced(kind):
    rng = np.random.default_rng(RNG_SEED + 10)
    n, (lo, hi) = 201, (-5.0, 8.0)
    axis = np.linspace(0.0, 2.0 * np.pi, n)
    for (a, b), pinned in POLE_LAYOUTS[kind]:
        grid = np.tile(rng.uniform(0, 2 * np.pi, ansatz.param_count(kind)), (n, n, 1))
        for idx, value in pinned.items():
            grid[:, :, idx - 1] = value
        grid[:, :, a - 1] = axis[:, None]
        grid[:, :, b - 1] = axis[None, :]
        assert (ansatz.concurrence_closed(kind, grid).tobytes()
                == _reference_concurrence_closed(kind, grid).tobytes())
        r, ref = ansatz.ricci_circuit_grid(kind, grid), _reference_ricci_circuit_grid(kind, grid)
        assert np.isneginf(r).any()
        assert np.abs(np.clip(r, lo, hi) - np.clip(ref, lo, hi)).max() <= 1e-12
        at_bound = (np.abs(ref - lo) <= 1e-12) | (np.abs(ref - hi) <= 1e-12)
        mask, ref_mask = (r < lo) | (r > hi), (ref < lo) | (ref > hi)
        assert np.array_equal(mask[~at_bound], ref_mask[~at_bound])


# --- the batch axis: (..., m) parameters broadcast through the state maps ---

def _per_row(fn, thetas):
    """fn called on each parameter vector of thetas, stacked back into its leading shape."""
    rows = [fn(t) for t in thetas.reshape(-1, thetas.shape[-1])]
    return np.array(rows).reshape(thetas.shape[:-1] + rows[0].shape)


@pytest.mark.parametrize("kind", ANSATZE)
def test_batched_state_maps_match_per_row_calls(kind):
    rng = np.random.default_rng(RNG_SEED + 7)
    m = ansatz.param_count(kind)
    thetas = rng.uniform(0, 2 * np.pi, (7, 3, m))
    psi, jac = ansatz.state_and_jacobian(kind, thetas)
    assert psi.shape == (7, 3, 4) and jac.shape == (7, 3, 4, m)
    # a single vector is a one-row batch, so every family's rows match bit for bit
    for batched, fn in ((psi, lambda t: ansatz.state_and_jacobian(kind, t)[0]),
                        (jac, lambda t: ansatz.state_and_jacobian(kind, t)[1]),
                        (ansatz.prepare_state(kind, thetas),
                         lambda t: ansatz.prepare_state(kind, t)),
                        (ansatz.state_jacobian(kind, thetas),
                         lambda t: ansatz.state_jacobian(kind, t))):
        assert batched.tobytes() == _per_row(fn, thetas).tobytes()


def test_batched_parameters_validated_and_curvature_single_vector():
    with pytest.raises(ValueError, match="parameters"):
        ansatz.prepare_state(HEA, np.zeros((2, 3)))
    bad = np.zeros((2, 4))
    bad[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        ansatz.state_and_jacobian(HEA, bad)
    with pytest.raises(ValueError, match="finite"):
        ansatz.ricci_circuit_grid(HEA, bad)
    assert type(ansatz.ricci_circuit_grid(HEA, np.zeros(4))) is float


@pytest.mark.parametrize("sign", [1, -1])
def test_parameters_beyond_the_float_range_are_refused(sign):
    # the conversion to float raised OverflowError
    theta = [0, 0, 0, sign * 10**400]
    for fn in (ansatz.prepare_state, ansatz.state_and_jacobian, ansatz.concurrence_closed,
               ansatz.ricci_circuit_grid):
        with pytest.raises(ValueError, match="parameters must be finite"):
            fn(HEA, theta)


def test_prepare_state_refuses_text_and_bool_parameters():
    # the float conversion parsed "0.1" and read True as 1.0: the state at (0.1, 0, 0, 1)
    for theta, got in ((["0.1", "0", "0", True], "'0.1'"), ([0.1, 0, 0, True], "True"),
                       (np.array([False, False, False, True]), "False"),
                       (np.array(["0.1", "0", "0", "1"]), "'0.1'")):
        with pytest.raises(ValueError) as exc:
            ansatz.prepare_state(HEA, theta)
        assert str(exc.value) == f"parameters must be numbers, not text or bool: got {got}"


def test_complex_parameters_are_refused_without_a_warning():
    # [1j, 0, 0, 0] raised TypeError; the other two gave the state at theta_1 = 0.5 with
    # only a ComplexWarning
    for theta, got in (([1j, 0, 0, 0], "1j"), ([np.complex128(0.5 + 2j), 0, 0, 0], "(0.5+2j)"),
                       (np.array([0.5 + 2j, 0, 0, 0]), "(0.5+2j)")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                ansatz.prepare_state(HEA, theta)
        assert str(exc.value) == f"parameters must be real numbers: got {got}"


@pytest.mark.parametrize("kind", ANSATZE)
def test_angles_up_to_the_bound_give_finite_states_and_beyond_it_are_refused(kind):
    # runs under error::RuntimeWarning: 1e308 angles overflowed the phase sums
    m = ansatz.param_count(kind)
    for signs in ([1.0], [-1.0], [1.0, -1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0, 1.0, 1.0]):
        theta = ansatz.THETA_MAX * np.resize(signs, m)
        psi, jac = ansatz.state_and_jacobian(kind, theta)
        assert np.all(np.isfinite(psi)) and np.all(np.isfinite(jac))
        ansatz.ricci_circuit_grid(kind, theta)
    for big in (np.nextafter(ansatz.THETA_MAX, np.inf), 1e308, -1e308):
        theta = np.zeros(m)
        theta[-1] = big
        for fn in (ansatz.prepare_state, ansatz.state_and_jacobian, ansatz.ricci_circuit_grid):
            with pytest.raises(ValueError, match="finite and at most"):
                fn(kind, theta)


def _qgan_aug_kron_reference(t):
    """qgan-aug as R_Z(t8) R_Z(t9) (R_X(t6) (x) R_X(t7)) on the qgan state, built with np.kron."""
    def rx(th):
        c, s = np.cos(th / 2), np.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z1 = np.array([1, 1, -1, -1], dtype=complex)
    z2 = np.array([1, -1, 1, -1], dtype=complex)
    psi_q, jac_q = ansatz.state_and_jacobian(QGAN, t[:5])
    a = np.kron(rx(t[5]), rx(t[6]))
    rz = np.exp(-0.5j * t[7] * z1) * np.exp(-0.5j * t[8] * z2)
    a_psi = a @ psi_q
    psi = rz * a_psi
    jac = np.empty((4, 9), dtype=complex)
    jac[:, :5] = rz[:, None] * (a @ jac_q)
    jac[:, 5] = rz * (-0.5j * (np.kron(x, np.eye(2)) @ a_psi))
    jac[:, 6] = rz * (-0.5j * (np.kron(np.eye(2), x) @ a_psi))
    jac[:, 7] = -0.5j * z1 * psi
    jac[:, 8] = -0.5j * z2 * psi
    return psi, jac


def test_qgan_aug_matches_kron_reference_within_a_few_ulps():
    # The reference multiplies by the 4 x 4 product R_X(t6) (x) R_X(t7); the ansatz rotates
    # one qubit axis at a time, so the two round differently. Amplitudes and Jacobian entries
    # have modulus at most 1 and each is a short sum of products of factors bounded by 1, so
    # each path is within 2 eps of the exact value and the two within 4 eps. The QGT and the
    # gradient are bilinear in them; each Jacobian column has norm at most 1/2, and H has
    # norm at most sum|nu|, which scales the gradient's bound.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(RNG_SEED + 8)
    for shape in ((9,), (6, 9), (2, 6, 9, 9), (10_000, 9)):
        thetas = rng.uniform(-10, 10, shape)
        thetas.reshape(-1, 9)[::5, rng.integers(9, size=3)] = 0.0
        psi, jac = ansatz.state_and_jacobian(QGAN_AUG, thetas)
        ref = [_qgan_aug_kron_reference(t) for t in thetas.reshape(-1, 9)]
        ref_psi = np.array([r[0] for r in ref]).reshape(psi.shape)
        ref_jac = np.array([r[1] for r in ref]).reshape(jac.shape)
        assert np.abs(psi - ref_psi).max() <= 4 * eps
        assert np.abs(jac - ref_jac).max() <= 4 * eps
        assert np.abs(qgt.qgt_from_state(psi, jac)
                      - qgt.qgt_from_state(ref_psi, ref_jac)).max() <= 4 * eps
        ham = vqe.Hamiltonian(nu=tuple(rng.normal(size=6)))
        grad_dev = np.abs(vqe.energy_and_gradient(ham, psi, jac)[1]
                          - vqe.energy_and_gradient(ham, ref_psi, ref_jac)[1]).max()
        assert grad_dev <= 4 * eps * (1 + np.abs(ham.nu).sum())


@pytest.mark.parametrize("kind", ANSATZE)
def test_batched_rows_match_one_row_calls_bit_for_bit(kind):
    # numpy computes a * b in place in b when b is a temporary of at least 256 KiB, which
    # swaps the operands, and its SIMD complex product is not commutative bit for bit: a
    # temporary on the right would tie a row's last bit to its batch past 4,096 rows
    # (qgan-aug) or 16,384 rows (ldca, shea), and run_optimization must give a run_trials row
    m = ansatz.param_count(kind)
    thetas = np.random.default_rng(RNG_SEED + 11).uniform(0, 2 * np.pi, (20_000, m))
    psi, jac = ansatz.state_and_jacobian(kind, thetas)
    rows = [ansatz.state_and_jacobian(kind, t) for t in thetas[::100]]
    assert psi[::100].tobytes() == np.array([r[0] for r in rows]).tobytes()
    assert jac[::100].tobytes() == np.array([r[1] for r in rows]).tobytes()


# --- the state-only path: prepare_state fills the state and builds no Jacobian ---

@pytest.mark.parametrize("kind", ANSATZE)
def test_prepare_state_is_the_state_of_state_and_jacobian_bit_for_bit(kind):
    rng = np.random.default_rng(RNG_SEED + 9)
    m = ansatz.param_count(kind)
    for shape in ((m,), (6, m), (2, 6, m, m)):
        thetas = rng.uniform(-10, 10, shape)
        psi = ansatz.prepare_state(kind, thetas)
        ref = ansatz.state_and_jacobian(kind, thetas)[0]
        assert psi.shape == ref.shape == shape[:-1] + (4,)
        assert psi.tobytes() == ref.tobytes()


def test_prepare_state_memory_holds_no_jacobian():
    # building and dropping the (10000, 4, 9) Jacobian of qgan-aug peaked at 18.1 MB; without
    # it, 6.9 MB went to (10000, 4, 4) rotation products. Rotating one qubit axis at a time,
    # the peak is 3.3 MB, about five arrays of 0.6 MB: the state, the qgan state, its
    # axis-reversed copy, the R_Z phases and the R_X factors
    thetas = np.random.default_rng(RNG_SEED + 10).uniform(0, 2 * np.pi, (10_000, 9))
    tracemalloc.start()
    try:
        ansatz.prepare_state(QGAN_AUG, thetas)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 5.0
