"""Reference physics for the benchmark's output checks, in plain numpy.

Nothing here imports pqcgeo. States are rebuilt from circuit parameters by
multiplying exact gate matrices R_P(t) = cos(t/2) I - i sin(t/2) P, except
for shea, whose amplitude map is transcribed from its published closed form.
Energies come from Pauli matrices built here, ground energies from eigvalsh.
"""
from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I4 = np.eye(4, dtype=complex)

# H = nu1 I + nu2 Z1 + nu3 Z2 + nu4 Z1Z2 + nu5 X1X2 + nu6 Y1Y2, qubit 1 the left factor
PAULI_TERMS = (I4, np.kron(Z, I2), np.kron(I2, Z), np.kron(Z, Z), np.kron(X, X), np.kron(Y, Y))

PARAM_COUNT = {"hea": 4, "ldca": 5, "qgan": 5, "shea": 6, "qgan-aug": 9}

RICCI_CLAMP = 1.0 - 1e-9


def hamiltonian(nu) -> np.ndarray:
    return sum(float(c) * p for c, p in zip(nu, PAULI_TERMS))


def ground_energy(nu) -> float:
    return float(np.linalg.eigvalsh(hamiltonian(nu))[0])


def energy(h: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(np.vdot(psi, h @ psi)))


def concurrence(psi: np.ndarray) -> float:
    return float(2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2]))


def ricci(c):
    """Universal scalar curvature R(C) = 2 (6 C^2 - 5) / (C^2 - 1)."""
    c = np.asarray(c, dtype=float)
    return 2.0 * (6.0 * c * c - 5.0) / (c * c - 1.0)


def _rot(p: np.ndarray, t: float) -> np.ndarray:
    return np.cos(t / 2) * np.eye(p.shape[0], dtype=complex) - 1j * np.sin(t / 2) * p


def _q1(p):
    return np.kron(p, I2)


def _q2(p):
    return np.kron(I2, p)


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _ket(label: str) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[int(label, 2)] = 1.0
    return v


def _circuit(start: str, gates) -> np.ndarray:
    psi = _ket(start)
    for p, t in gates:
        psi = _rot(p, t) @ psi
    return psi


def _hea(t):
    layer1 = _rot(_q1(Y), 2 * t[0]) @ _rot(_q2(Y), 2 * t[1])
    layer2 = _rot(_q1(Y), 2 * t[2]) @ _rot(_q2(Y), 2 * t[3])
    return layer2 @ _CNOT @ layer1 @ _ket("00")


def _ldca(t):
    # iSWAP^dag(t3) = exp(-i t3 (XX + YY) / 2) = R_XX(t3) R_YY(t3), since XX and YY commute
    return _circuit("01", [(_q1(Z), t[0]), (_q2(Z), t[1]), (np.kron(Z, Z), t[3]),
                           (np.kron(X, X), t[2]), (np.kron(Y, Y), t[2]),
                           (np.kron(X, Y), t[4]), (np.kron(Y, X), -t[4])])


def _qgan_gates(t):
    return [(_q1(X), t[0]), (_q2(X), t[1]), (_q1(Z), t[2]), (_q2(Z), t[3]), (np.kron(Z, Z), t[4])]


def _qgan(t):
    return _circuit("00", _qgan_gates(t))


def _qgan_aug(t):
    return _circuit("00", _qgan_gates(t) + [(_q1(X), t[5]), (_q2(X), t[6]),
                                            (_q1(Z), t[7]), (_q2(Z), t[8])])


def _shea(t):
    h1, h2, h3 = t[0] / 2, t[1] / 2, t[2] / 2
    c1, s1, c2, s2, c3, s3 = np.cos(h1), np.sin(h1), np.cos(h2), np.sin(h2), np.cos(h3), np.sin(h3)
    return np.array([
        -1j * np.exp(-0.5j * (t[4] + t[5])) * c1 * s2,
        np.exp(-0.5j * (t[4] - t[5])) * (c1 * c2 * c3 - 1j * s1 * s2 * s3),
        np.exp(0.5j * (t[4] - t[5])) * (-s1 * s2 * c3 + 1j * c1 * c2 * s3),
        -1j * np.exp(-0.25j * (t[3] - 2 * (t[4] + t[5]))) * s1 * c2,
    ])


_BUILDERS = {"hea": _hea, "ldca": _ldca, "qgan": _qgan, "shea": _shea, "qgan-aug": _qgan_aug}


def state(kind: str, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (PARAM_COUNT[kind],):
        raise ValueError(f"{kind} takes {PARAM_COUNT[kind]} parameters, got {theta.shape}")
    return _BUILDERS[kind](theta)


def energy_gradient_fd(kind: str, theta, h_matrix: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the rebuilt energy."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.shape)
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        grad[j] = (energy(h_matrix, state(kind, tp)) - energy(h_matrix, state(kind, tm))) / (2 * h)
    return grad
