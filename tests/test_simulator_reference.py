"""The gate and Pauli-sum functions against the spec types they replaced, byte for byte.

The simulator used to hand out a frozen gate spec, turned into its matrix by a separate
function, and a Pauli-sum object whose matrix() built Sigma c_k P_k. The reference below
is that code, copied under other names; each function now returns the matrix directly.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from pqcgeo import simulator as sim, vqe
from pqcgeo.simulator import (I2, SINGLE_QUBIT_GENERATORS, TWO_QUBIT_GENERATORS, _PAULI, _real,
                              parse_pauli_label)

RNG_SEED = 20261022


@dataclass(frozen=True)
class _RefGate:
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


def _ref_unitary(gate: _RefGate) -> np.ndarray:
    th = gate.angle
    if gate.generator in SINGLE_QUBIT_GENERATORS:
        u = np.cos(th / 2) * I2 - 1j * np.sin(th / 2) * _PAULI[gate.generator]
        return np.kron(u, I2) if gate.qubits[0] == 1 else np.kron(I2, u)
    if gate.generator in TWO_QUBIT_GENERATORS:
        p = np.kron(_PAULI[gate.generator[0]], _PAULI[gate.generator[1]])
        return np.cos(th / 2) * np.eye(4, dtype=complex) - 1j * np.sin(th / 2) * p
    if gate.generator == "ISWAP_DAG":
        u = np.eye(4, dtype=complex)
        c, s = np.cos(th), np.sin(th)
        u[1, 1] = u[2, 2] = c
        u[1, 2] = u[2, 1] = -1j * s
        return u
    u = np.eye(4, dtype=complex)
    u[3, 3] = np.exp(-1j * th)
    return u


def _ref_pauli_matrix(terms) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for coeff, label in terms:
        number = _real(coeff)
        if number is None or not math.isfinite(number):
            raise ValueError(f"Pauli coefficients must be finite real numbers, got {coeff!r}")
        m += number * parse_pauli_label(label)
    return m


def _angles():
    rng = np.random.default_rng(RNG_SEED)
    return [0.0, -0.0, math.pi, -math.pi, 1e300, -1e300, 0, 7, Fraction(1, 3),
            np.float32(0.3), np.int64(-2), np.longdouble(0.7),
            *rng.uniform(-4 * math.pi, 4 * math.pi, 30), *rng.normal(0, 1e6, 5)]


# (new call, generator and qubits of the reference spec)
GATES = ([(lambda a, p=p, q=q: sim.rotation(p, a, q), p, (q,))
          for p in SINGLE_QUBIT_GENERATORS for q in (1, 2)]
         + [(lambda a, p=p: sim.rotation(p, a), p, (1, 2)) for p in TWO_QUBIT_GENERATORS]
         + [(lambda a, p=p: sim.rotation(p, a), p, (1, 2)) for p in ("ISWAP_DAG", "CPHASE")]
         + [(sim.iswap_dag, "ISWAP_DAG", (1, 2)), (sim.cphase, "CPHASE", (1, 2))])
GATE_IDS = ([f"R{p}-q{q}" for p in SINGLE_QUBIT_GENERATORS for q in (1, 2)]
            + [f"R{p}" for p in TWO_QUBIT_GENERATORS] + ["rotation-ISWAP_DAG", "rotation-CPHASE",
                                                         "iswap_dag", "cphase"])


@pytest.mark.parametrize("new,generator,qubits", GATES, ids=GATE_IDS)
def test_every_gate_has_the_bytes_of_the_spec_it_replaced(new, generator, qubits):
    for angle in _angles():
        u = new(angle)
        ref = _ref_unitary(_RefGate(generator, angle, qubits))
        assert u.dtype == ref.dtype == complex and u.shape == (4, 4)
        assert u.tobytes() == ref.tobytes(), (generator, angle)


@pytest.mark.parametrize("angle", [math.nan, math.inf, 10**400, True, np.False_],
                         ids=["nan", "inf", "10**400", "True", "np.False_"])
@pytest.mark.parametrize("new,generator,qubits", GATES, ids=GATE_IDS)
def test_every_gate_refuses_what_the_spec_refused_with_its_message(new, generator, qubits,
                                                                   angle):
    with pytest.raises(ValueError) as ref:
        _RefGate(generator, angle, qubits)
    with pytest.raises(ValueError) as exc:
        new(angle)
    assert str(exc.value) == str(ref.value)


def test_pauli_sums_have_the_bytes_of_the_observable_they_replaced():
    rng = np.random.default_rng(RNG_SEED + 1)
    labels = ["I", "X1", "Y1", "Z1", "X2", "Y2", "Z2"] + [
        a + "1" + b + "2" for a in "XYZ" for b in "XYZ"] + ["X2Z1", "Y2Y1"]
    for size in (0, 1, 2, 6, 20):
        for _ in range(20):
            coeffs = rng.normal(0, 10.0 ** rng.integers(-3, 4), size)
            terms = [(c, labels[k]) for c, k in zip(coeffs, rng.integers(len(labels), size=size))]
            assert sim.pauli_sum(terms).tobytes() == _ref_pauli_matrix(terms).tobytes(), terms
    mixed = [(Fraction(1, 3), "Z1"), (np.float32(0.3), "X1X2"), (-0.0, "I"), (2, "Y2"),
             (np.int64(-5), "Z1Z2"), (1e300, "X1"), (-1e300, "X1")]
    assert sim.pauli_sum(mixed).tobytes() == _ref_pauli_matrix(mixed).tobytes()


@pytest.mark.parametrize("name", vqe.BUNDLED)
def test_bundled_hamiltonians_have_the_bytes_of_the_observable_they_replaced(name):
    h = vqe.load_bundled(name)
    ref = _ref_pauli_matrix(tuple(zip(h.nu, vqe.HAMILTONIAN_TERMS)))
    assert h.matrix().tobytes() == ref.tobytes()
