"""Two-qubit statevector core.

States are plain complex ndarrays of length 4 over the computational basis
|00>, |01>, |10>, |11>, with qubit 1 the left tensor factor. All gates are
built from exact cos/sin closed forms of Pauli-string exponentials, so the
only tolerance source downstream is floating-point round-off.

Gate conventions:
    R_P(theta)        = exp(-i theta P / 2),  P a single- or two-qubit Pauli string
    iSWAP(theta)^dag  = exp(-i theta (XX + YY) / 2)
    CPHASE(phi)       = exp(-i phi (I - Z) x (I - Z) / 4)
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

BASIS_LABELS = ("00", "01", "10", "11")

TWO_QUBIT_GENERATORS = ("XX", "YY", "ZZ", "XY", "YX")
SINGLE_QUBIT_GENERATORS = ("X", "Y", "Z")

NORM_ATOL = 1e-8


def basis_state(label: str) -> np.ndarray:
    """Computational basis ket, e.g. basis_state('01')."""
    v = np.zeros(4, dtype=complex)
    v[BASIS_LABELS.index(label)] = 1.0
    return v


def require_normalized(state: np.ndarray) -> np.ndarray:
    """The state as a complex array; raises ValueError unless it is a (..., 4)
    stack of finite amplitude vectors, each of unit norm within NORM_ATOL."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 0 or state.shape[-1] != 4:
        raise ValueError(f"expected length-4 amplitude vectors, got shape {state.shape}")
    if not np.isfinite(state).all():  # a NaN norm would pass the comparison below
        raise ValueError("state amplitudes must be finite")
    deviation = np.abs(np.sqrt(np.vecdot(state, state).real) - 1.0)
    if (deviation > NORM_ATOL).any():
        raise ValueError(f"state is not normalized: ||psi|| is {float(deviation.max())!r} "
                         "away from 1")
    return state


def _real(value) -> float | None:
    """float(value) for a real number (numbers.Real, not bool), else None; an integer
    beyond the float range reads as the infinity of its sign."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real_array(values, refusal) -> np.ndarray:
    """values as a float array, each element read by _real (a float or int ndarray in one
    call); the first element v that is not a real number raises ValueError(refusal(v))."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return np.asarray(values, dtype=float)
    values = np.asarray(values, dtype=object)
    floats = [_real(v) for v in values.flat]
    if None in floats:
        v = values.flat[floats.index(None)]
        raise ValueError(refusal(v.item() if isinstance(v, np.generic) else v))
    return np.array(floats).reshape(values.shape)


@dataclass(frozen=True)
class GateSpec:
    """A gate from the fixed two-qubit gate set.

    generator: 'X'/'Y'/'Z' (with one target qubit), 'XX'/'YY'/'ZZ'/'XY'/'YX',
    'ISWAP_DAG', or 'CPHASE'. Angles are radians, stored as float.
    """

    generator: str
    angle: float
    qubits: tuple[int, ...]

    def __post_init__(self):
        angle = _real(self.angle)
        if angle is None or not math.isfinite(angle):
            raise ValueError("gate angle must be a number, not bool" if isinstance(
                self.angle, (bool, np.bool_)) else "gate angle must be finite")
        object.__setattr__(self, "angle", angle)
        if self.generator in SINGLE_QUBIT_GENERATORS:
            if self.qubits not in ((1,), (2,)):
                raise ValueError(f"single-qubit gate needs qubits (1,) or (2,), got {self.qubits}")
        elif self.generator in TWO_QUBIT_GENERATORS or self.generator in ("ISWAP_DAG", "CPHASE"):
            if self.qubits != (1, 2):
                raise ValueError(f"two-qubit gate acts on qubits (1, 2), got {self.qubits}")
        else:
            raise ValueError(f"unknown generator {self.generator!r}")


def rotation(generator: str, angle: float, qubit: int | None = None) -> GateSpec:
    """R_P(angle) on the given qubit (single-qubit P) or on both (two-qubit P)."""
    return GateSpec(generator, angle, (qubit,) if generator in SINGLE_QUBIT_GENERATORS else (1, 2))


def iswap_dag(angle: float) -> GateSpec:
    return GateSpec("ISWAP_DAG", angle, (1, 2))


def cphase(angle: float) -> GateSpec:
    return GateSpec("CPHASE", angle, (1, 2))


def _embed_single(u: np.ndarray, qubit: int) -> np.ndarray:
    return np.kron(u, I2) if qubit == 1 else np.kron(I2, u)


def gate_unitary(gate: GateSpec) -> np.ndarray:
    """Exact 4x4 unitary for the gate (closed-form exponential)."""
    th = gate.angle
    if gate.generator in SINGLE_QUBIT_GENERATORS:
        u = np.cos(th / 2) * I2 - 1j * np.sin(th / 2) * _PAULI[gate.generator]
        return _embed_single(u, gate.qubits[0])
    if gate.generator in TWO_QUBIT_GENERATORS:
        p = np.kron(_PAULI[gate.generator[0]], _PAULI[gate.generator[1]])
        return np.cos(th / 2) * np.eye(4, dtype=complex) - 1j * np.sin(th / 2) * p
    if gate.generator == "ISWAP_DAG":
        # (XX + YY)/2 swaps |01> and |10> and annihilates |00>, |11>,
        # so the exponential mixes only the middle block with full angle.
        u = np.eye(4, dtype=complex)
        c, s = np.cos(th), np.sin(th)
        u[1, 1] = u[2, 2] = c
        u[1, 2] = u[2, 1] = -1j * s
        return u
    # CPHASE: (I-Z)x(I-Z)/4 = |11><11|
    u = np.eye(4, dtype=complex)
    u[3, 3] = np.exp(-1j * th)
    return u


def apply_gate(state: np.ndarray, gate: GateSpec) -> np.ndarray:
    return (gate_unitary(gate) @ require_normalized(state)[..., None])[..., 0]


def parse_pauli_label(label: str) -> np.ndarray:
    """4x4 matrix for a Pauli-string label such as 'I', 'Z1', 'X1X2'."""
    if label == "I":
        return np.eye(4, dtype=complex)
    ops = {1: "I", 2: "I"}
    if len(label) % 2 != 0 or not label:
        raise ValueError(f"invalid Pauli label {label!r}")
    for i in range(0, len(label), 2):
        p, q = label[i], label[i + 1]
        if p not in "XYZ" or q not in "12":
            raise ValueError(f"invalid Pauli label {label!r}")
        q = int(q)
        if ops[q] != "I":
            raise ValueError(f"qubit {q} named twice in Pauli label {label!r}")
        ops[q] = p
    return np.kron(_PAULI[ops[1]], _PAULI[ops[2]])


@dataclass(frozen=True)
class PauliObservable:
    """Real linear combination of two-qubit Pauli strings (Hermitian by construction)."""

    terms: tuple[tuple[float, str], ...]

    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        for coeff, label in self.terms:
            number = _real(coeff)
            if number is None or not math.isfinite(number):
                raise ValueError(f"Pauli coefficients must be finite real numbers, got {coeff!r}")
            m += number * parse_pauli_label(label)
        return m


def expectation(state: np.ndarray, obs: PauliObservable | np.ndarray) -> np.ndarray | float:
    """<psi|O|psi> for normalized (..., 4) states.

    The imaginary residue of a Hermitian O is round-off that grows with the
    size of O, so it must stay below 1e-12 * max(1, ||O||_F).
    """
    state = require_normalized(state)
    m = obs.matrix() if isinstance(obs, PauliObservable) else np.asarray(obs, dtype=complex)
    val = np.vecdot(state, (m @ state[..., None])[..., 0])
    residue = np.abs(val.imag).max()
    if residue > 1e-12 and residue > 1e-12 * np.linalg.norm(m):
        raise ValueError(f"expectation has non-negligible imaginary part {float(residue)!r}")
    return float(val.real) if val.ndim == 0 else val.real


def fidelity_up_to_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """|<a|b>| in [0, 1]; equals 1 iff the states differ only by a global phase."""
    f = np.minimum(1.0, np.abs(np.vecdot(require_normalized(a), require_normalized(b))))
    return float(f) if f.ndim == 0 else f
