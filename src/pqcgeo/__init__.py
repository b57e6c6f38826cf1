"""Geometry of two-qubit parameterized circuits.

Statevector simulation, five closed-form circuit families, Hopf-fibration
coordinates, concurrence and scalar curvature, quantum geometric tensors with
block/diagonal approximations, and (natural-)gradient VQE experiments.
"""
from .ansatz import (
    ANSATZE,
    HEA,
    LDCA,
    QGAN,
    QGAN_AUG,
    SHEA,
    concurrence_closed,
    param_count,
    prepare_state,
    ricci_closed_circuit,
    state_jacobian,
)
from .geometry import (
    SingularityError,
    concurrence,
    hopf_base,
    hopf_fiber,
    mfs_metric,
    resolve_chart_convention,
    ricci_closed,
    scalar_curvature_numeric,
)
from .optimize import OptConfig, Trace, run_optimization, run_trials
from .qgt import PseudoInverse, Tikhonov, fs_metric, invert_metric, qgt_full
from .simulator import (
    GateSpec,
    PauliObservable,
    apply_gate,
    basis_state,
    expectation,
    fidelity_up_to_phase,
    gate_unitary,
)
from .vqe import Hamiltonian, energy, energy_gradient, exact_ground, load_bundled

__version__ = "0.1.0"

__all__ = [
    "ANSATZE", "HEA", "LDCA", "QGAN", "QGAN_AUG", "SHEA",
    "concurrence_closed", "param_count", "prepare_state", "ricci_closed_circuit",
    "state_jacobian",
    "SingularityError", "concurrence", "hopf_base", "hopf_fiber", "mfs_metric",
    "resolve_chart_convention", "ricci_closed", "scalar_curvature_numeric",
    "OptConfig", "Trace", "run_optimization", "run_trials",
    "PseudoInverse", "Tikhonov", "fs_metric", "invert_metric", "qgt_full",
    "GateSpec", "PauliObservable", "apply_gate", "basis_state", "expectation",
    "fidelity_up_to_phase", "gate_unitary",
    "Hamiltonian", "energy", "energy_gradient", "exact_ground", "load_bundled",
]
