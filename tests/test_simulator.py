import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from pqcgeo import geometry, simulator as sim

RNG_SEED = 20260808


def _generator_matrix(gate: sim.GateSpec) -> np.ndarray:
    """Independent generator construction for the expm oracle."""
    if gate.generator in sim.SINGLE_QUBIT_GENERATORS:
        p = {"X": sim.SIGMA_X, "Y": sim.SIGMA_Y, "Z": sim.SIGMA_Z}[gate.generator]
        full = np.kron(p, sim.I2) if gate.qubits == (1,) else np.kron(sim.I2, p)
        return full / 2.0
    if gate.generator in sim.TWO_QUBIT_GENERATORS:
        ps = {"X": sim.SIGMA_X, "Y": sim.SIGMA_Y, "Z": sim.SIGMA_Z}
        return np.kron(ps[gate.generator[0]], ps[gate.generator[1]]) / 2.0
    if gate.generator == "ISWAP_DAG":
        return (np.kron(sim.SIGMA_X, sim.SIGMA_X) + np.kron(sim.SIGMA_Y, sim.SIGMA_Y)) / 2.0
    iz = np.eye(2) - sim.SIGMA_Z
    return np.kron(iz, iz) / 4.0


def _all_gate_specs(angle):
    specs = [sim.rotation(p, angle, qubit=q) for p in sim.SINGLE_QUBIT_GENERATORS for q in (1, 2)]
    specs += [sim.rotation(p, angle) for p in sim.TWO_QUBIT_GENERATORS]
    specs += [sim.iswap_dag(angle), sim.cphase(angle)]
    return specs


def test_gate_matrices_match_matrix_exponential_oracle():
    rng = np.random.default_rng(RNG_SEED)
    for angle in rng.uniform(-2 * np.pi, 2 * np.pi, size=40):
        for gate in _all_gate_specs(angle):
            oracle = expm(-1j * angle * _generator_matrix(gate))
            assert np.abs(sim.gate_unitary(gate) - oracle).max() < 1e-12


def test_apply_gate_identity_rotation():
    state = sim.apply_gate(sim.basis_state("00"), sim.rotation("Y", 0.0, qubit=1))
    assert np.abs(state - sim.basis_state("00")).max() == 0.0


def test_apply_gate_pi_x_rotation():
    state = sim.apply_gate(sim.basis_state("00"), sim.rotation("X", np.pi, qubit=1))
    assert np.abs(state - (-1j) * sim.basis_state("10")).max() < 1e-15


def test_iswap_dag_against_block_exponential():
    # (XX+YY)/2 restricted to span{|01>,|10>} is sigma_x; exponentiate that
    # 2x2 block directly as the oracle.
    rng = np.random.default_rng(RNG_SEED + 1)
    for theta in rng.uniform(-np.pi, np.pi, size=25):
        block = expm(-1j * theta * np.array([[0, 1], [1, 0]]))
        state = sim.apply_gate(sim.basis_state("01"), sim.iswap_dag(theta))
        assert abs(state[1] - block[0, 0]) < 1e-14
        assert abs(state[2] - block[1, 0]) < 1e-14
        assert abs(state[1] - np.cos(theta)) < 1e-14
        assert abs(state[2] - (-1j) * np.sin(theta)) < 1e-14


def test_unitarity_over_random_angles():
    rng = np.random.default_rng(RNG_SEED + 2)
    for angle in rng.uniform(-10, 10, size=1000):
        for gate in _all_gate_specs(angle):
            u = sim.gate_unitary(gate)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_norm_preservation_10k_random_pairs():
    rng = np.random.default_rng(RNG_SEED + 3)
    specs = _all_gate_specs(0.0)
    for _ in range(10_000):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        gate = specs[rng.integers(len(specs))]
        gate = sim.GateSpec(gate.generator, rng.uniform(-np.pi, np.pi), gate.qubits)
        assert abs(np.linalg.norm(sim.gate_unitary(gate) @ v) - 1.0) < 1e-12


def test_expectation_computational_basis():
    z1 = sim.PauliObservable(((1.0, "Z1"),))
    assert sim.expectation(sim.basis_state("00"), z1) == pytest.approx(1.0, abs=1e-15)


def test_expectation_bell_like_xx():
    psi = (sim.basis_state("01") + sim.basis_state("10")) / np.sqrt(2)
    xx = sim.PauliObservable(((1.0, "X1X2"),))
    assert sim.expectation(psi, xx) == pytest.approx(1.0, abs=1e-14)


def test_expectation_off_diagonal_term_vanishes():
    xx = sim.PauliObservable(((1.0, "X1X2"),))
    assert sim.expectation(sim.basis_state("00"), xx) == pytest.approx(0.0, abs=1e-15)


def test_expectation_linear_in_coefficients_and_phase_invariant():
    rng = np.random.default_rng(RNG_SEED + 4)
    labels = ("I", "Z1", "Z2", "Z1Z2", "X1X2", "Y1Y2")
    for _ in range(200):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        c = rng.normal(size=6)
        combined = sim.expectation(v, sim.PauliObservable(tuple(zip(c, labels))))
        parts = sum(ci * sim.expectation(v, sim.PauliObservable(((1.0, l),)))
                    for ci, l in zip(c, labels))
        assert combined == pytest.approx(parts, abs=1e-12)
        phased = np.exp(1j * rng.uniform(0, 2 * np.pi)) * v
        assert sim.expectation(phased, sim.PauliObservable(tuple(zip(c, labels)))) == \
            pytest.approx(combined, abs=1e-12)


def test_expectation_rejects_unnormalized_state():
    with pytest.raises(ValueError, match="not normalized"):
        sim.expectation(np.array([1.0, 1.0, 0, 0]), sim.PauliObservable(((1.0, "Z1"),)))


_NON_FINITE_STATES = {
    "nan": [np.nan, 0, 0, 0],
    "inf": [np.inf, 0, 0, 0],
    "nan-imaginary": [1, complex(0, np.nan), 0, 0],
    "inf-in-a-stack": [[1, 0, 0, 0], [0, complex(np.inf, 1), 0, 0]],
}


@pytest.mark.parametrize("state", _NON_FINITE_STATES.values(), ids=_NON_FINITE_STATES)
@pytest.mark.parametrize("use", ["concurrence", "hopf_base", "hopf_fiber", "expectation"])
def test_non_finite_amplitudes_are_refused(state, use):
    # concurrence([nan, 0, 0, 0]) was nan and hopf_base gave theta_a = nan: a NaN norm
    # deviation is not greater than the tolerance
    state = np.array(state, dtype=complex)
    call = {"concurrence": geometry.concurrence, "hopf_base": geometry.hopf_base,
            "hopf_fiber": geometry.hopf_fiber,
            "expectation": lambda v: sim.expectation(v, sim.PauliObservable(((1.0, "Z1"),)))}
    if use == "hopf_base" and state.ndim > 1:
        state = state[1]
    with pytest.raises(ValueError, match="finite"):
        call[use](state)


def test_invalid_pauli_label_rejected():
    for label in ("Q1", "X3", "X1X1", "X", ""):
        with pytest.raises(ValueError):
            sim.parse_pauli_label(label)


def test_fidelity_global_phase():
    psi = sim.basis_state("00")
    assert sim.fidelity_up_to_phase(psi, np.exp(1j * np.pi / 7) * psi) == pytest.approx(1.0)


def test_fidelity_orthogonal_and_partial():
    assert sim.fidelity_up_to_phase(sim.basis_state("00"), sim.basis_state("01")) == 0.0
    bell = (sim.basis_state("00") + sim.basis_state("11")) / np.sqrt(2)
    assert sim.fidelity_up_to_phase(sim.basis_state("00"), bell) == pytest.approx(1 / np.sqrt(2))


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        sim.GateSpec("Q", 0.1, (1,))
    with pytest.raises(ValueError):
        sim.GateSpec("X", 0.1, (1, 2))
    with pytest.raises(ValueError):
        sim.GateSpec("XX", 0.1, (1,))
    with pytest.raises(ValueError):
        sim.GateSpec("X", np.nan, (1,))
    # np.isfinite raised TypeError on the first three and let the complex angle through
    for angle in (10**400, -10**400, "0.5", 1j):
        with pytest.raises(ValueError, match="gate angle must be finite"):
            sim.rotation("X", angle, 1)


def test_rotation_refuses_a_bool_angle():
    # math.isfinite read True as 1, so rotation("X", True, 1) stored angle=True
    for angle in (True, np.False_):
        with pytest.raises(ValueError, match="^gate angle must be a number, not bool$"):
            sim.rotation("X", angle, 1)


def test_rotation_refuses_a_complex_angle_without_a_warning():
    # math.isfinite dropped the imaginary part with a ComplexWarning and the complex angle
    # was stored, so gate_unitary returned a matrix that is not unitary
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^gate angle must be finite$"):
            sim.rotation("X", np.complex128(0.5 + 2j), 1)


def test_gate_angles_are_stored_as_float():
    # Fraction(1, 3) was stored and np.cos raised TypeError on it in gate_unitary
    gate = sim.rotation("X", Fraction(1, 3), 1)
    assert type(gate.angle) is float and gate.angle == 1 / 3
    assert np.array_equal(sim.gate_unitary(gate), sim.gate_unitary(sim.rotation("X", 1 / 3, 1)))
    # np.float32(0.3) built its gate in float32: 4.4e-9 from the float64 gate
    gate = sim.rotation("X", np.float32(0.3), 1)
    assert type(gate.angle) is float and gate.angle == float(np.float32(0.3))
    u = sim.gate_unitary(gate)
    assert u.dtype == complex
    assert np.array_equal(u, sim.gate_unitary(sim.rotation("X", float(np.float32(0.3)), 1)))
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-15


@pytest.mark.parametrize("coeff", [" 0.5", True, np.complex128(0.5 + 1j), 10**400, np.nan],
                         ids=["text", "bool", "complex", "10**400", "nan"])
def test_pauli_coefficients_refuse_what_is_not_a_finite_real_number(coeff):
    # float() parsed " 0.5", read True as 1.0 and dropped the imaginary part of the complex;
    # it raised OverflowError on 10**400, and NaN gave a NaN matrix
    obs = sim.PauliObservable(((coeff, "Z1"), (0.25, "X1X2")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^Pauli coefficients must be finite real numbers, got "):
            sim.expectation(sim.basis_state("00"), obs)
