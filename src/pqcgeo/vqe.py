"""Two-qubit molecular-hydrogen-style Hamiltonian, energies, analytic
gradients, and an exact-diagonalization ground-truth oracle.

H = nu1 I + nu2 Z1 + nu3 Z2 + nu4 Z1 Z2 + nu5 X1 X2 + nu6 Y1 Y2

Two instances ship as package data:

* ``entangled``: coefficients fitted so the exact ground state is
  alpha|01> + beta|10> with |alpha|^2 = 0.470 +- 0.005 (concurrence 0.998),
  the strongly entangled regime.
* ``product``: the ground state is |10> up to ~1e-4 amplitude leakage, the
  product-state regime.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import ansatz
from .geometry import concurrence
from .simulator import PauliObservable, _real, expectation, require_normalized

HAMILTONIAN_TERMS = ("I", "Z1", "Z2", "Z1Z2", "X1X2", "Y1Y2")

# Every number a run derives from H is at most 2 * sum|nu| <= 12 * max|nu| in
# size: the eigenvalues and their spread, energies and energy errors, and the
# gradient entries 2 Re<d_j psi|H|psi> (each |d_j psi| <= 1). The gradient norm
# and the summary std add up squares of such numbers; this bound on max|nu|
# keeps sums of up to 2**24 of those squares finite.
NU_MAX = float(np.sqrt(np.finfo(float).max / 2.0**32))


@dataclass(frozen=True)
class Hamiltonian:
    nu: tuple[float, float, float, float, float, float]
    label: str = ""
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.nu) != 6:
            raise ValueError(f"expected 6 coefficients, got {len(self.nu)}")
        nu = tuple(map(_real, self.nu))
        if None in nu:
            raise ValueError("Hamiltonian coefficients must be real numbers")
        if not all(math.isfinite(v) for v in nu):
            raise ValueError("Hamiltonian coefficients must be finite")
        if max(abs(v) for v in nu) > NU_MAX:
            raise ValueError(f"Hamiltonian coefficients too large: above {NU_MAX:.3g} a run "
                             "overflows its energies, gradients or summary statistics")
        object.__setattr__(self, "nu", nu)
        matrix = PauliObservable(tuple(zip(nu, HAMILTONIAN_TERMS))).matrix()
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)

    def matrix(self) -> np.ndarray:
        """The 4 x 4 matrix, built once at construction; read-only."""
        return self._matrix

    def to_dict(self) -> dict:
        return {"nu": list(self.nu), "label": self.label}

    @classmethod
    def from_dict(cls, data: dict) -> "Hamiltonian":
        if not isinstance(data, dict) or not isinstance(data.get("nu"), list) \
                or len(data["nu"]) != 6:
            raise ValueError('Hamiltonian JSON needs an object with a "nu" array of '
                             'exactly 6 numbers')
        return cls(nu=tuple(data["nu"]), label=str(data.get("label", "")))

    @classmethod
    def from_json(cls, path: str | Path) -> "Hamiltonian":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


# bundled Hamiltonian name -> its JSON file under pqcgeo/data
BUNDLED = {"entangled": "h2_entangled.json", "product": "h2_product.json"}


def load_bundled(name: str) -> Hamiltonian:
    """Load a bundled instance: 'entangled' or 'product'."""
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled Hamiltonian {name!r}; expected {tuple(BUNDLED)}")
    text = resources.files("pqcgeo").joinpath("data", BUNDLED[name]).read_text(encoding="utf-8")
    return Hamiltonian.from_dict(json.loads(text))


def energy(hamiltonian: Hamiltonian, state: np.ndarray) -> np.ndarray | float:
    """<psi|H|psi> for normalized (..., 4) states."""
    return expectation(state, hamiltonian.matrix())


def energy_and_gradient(hamiltonian: Hamiltonian, psi: np.ndarray,
                        jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E = Re <psi|H|psi> and dE/d theta_j = 2 Re <d_j psi|H|psi> from one H psi, for a
    (..., 4) state and its (..., 4, m) Jacobian. Unlike energy, it does not check the state."""
    h_psi = hamiltonian.matrix() @ psi[..., None]
    return (np.vecdot(psi, h_psi[..., 0]).real,
            2.0 * np.real(jac.conj().swapaxes(-1, -2) @ h_psi)[..., 0])


def energy_gradient(kind: str, theta, hamiltonian: Hamiltonian) -> np.ndarray:
    """Analytic (..., m) gradient of the energy at (..., m) parameters."""
    return energy_and_gradient(hamiltonian, *ansatz.state_and_jacobian(kind, theta))[1]


@dataclass(frozen=True)
class GroundTruth:
    energy: float
    state: np.ndarray
    concurrence: float


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return v / phase


def exact_ground(hamiltonian: Hamiltonian) -> GroundTruth:
    """Lowest eigenpair of the 4 x 4 matrix.

    Degenerate ground spaces (eigenvalue spread below 1e-12) are resolved by
    picking the lexicographically smallest phase-canonicalized eigenvector, so
    the result is deterministic.
    """
    w, v = np.linalg.eigh(hamiltonian.matrix())
    degenerate = np.nonzero(w - w[0] <= 1e-12)[0]
    candidates = [_canonical_phase(v[:, i]) for i in degenerate]
    if len(candidates) > 1:
        keys = [tuple(np.round(c.view(float), 12)) for c in candidates]
        candidates = [c for _, c in sorted(zip(keys, candidates), key=lambda p: p[0])]
    ground = require_normalized(candidates[0])
    return GroundTruth(energy=float(w[0]), state=ground, concurrence=float(concurrence(ground)))
