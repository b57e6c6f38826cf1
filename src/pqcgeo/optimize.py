"""Gradient descent and Quantum Natural Gradient descent with geometric
instrumentation.

Every step of a run records, besides energy and gradient norm, the
concurrence of the prepared state and the closed-form scalar curvature
evaluated at that concurrence (clamped just below the C = 1 pole so that
maximally entangled passes yield large negative finite values).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ansatz, qgt
from .geometry import concurrence, ricci_closed
from .vqe import GroundTruth, Hamiltonian, energy, exact_ground, gradient_from_state

GD = "gd"
QNG = "qng"

RICCI_CLAMP = 1.0 - 1e-9


@dataclass(frozen=True)
class OptConfig:
    learning_rate: float = 0.05
    max_steps: int = 200
    tol: float = 1e-6
    optimizer: str = GD
    metric_mode: str = qgt.BLOCK
    inversion: qgt.InversionPolicy = field(default_factory=qgt.PseudoInverse)
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.optimizer not in (GD, QNG):
            raise ValueError(f"optimizer must be '{GD}' or '{QNG}'")
        object.__setattr__(self, "metric_mode", qgt.canonical_mode(self.metric_mode))


@dataclass(frozen=True)
class TraceRecord:
    step: int
    theta: np.ndarray
    energy: float
    energy_error: float
    concurrence: float
    ricci: float
    grad_norm: float
    qng_fallback: bool = False


def step_gd(theta: np.ndarray, grad: np.ndarray, config: OptConfig) -> np.ndarray:
    if len(grad) != len(theta):
        raise ValueError("gradient length does not match parameter length")
    return np.asarray(theta, float) - config.learning_rate * np.asarray(grad, float)


def step_qng(theta: np.ndarray, grad: np.ndarray, metric: np.ndarray,
             config: OptConfig) -> np.ndarray:
    """theta - eta * g^+ grad with the configured regularized inverse.

    Raises qgt.DegenerateMetricError when the metric has no usable spectrum;
    run_optimization falls back to a plain gradient step and flags the record.
    """
    if metric.shape != (len(theta), len(theta)) or len(grad) != len(theta):
        raise ValueError("dimension mismatch between theta, grad, and metric")
    ginv = qgt.invert_metric(metric, config.inversion)
    return np.asarray(theta, float) - config.learning_rate * (ginv @ np.asarray(grad, float))


def instrument(psi: np.ndarray, theta: np.ndarray, step: int, hamiltonian: Hamiltonian,
               ground: GroundTruth, grad: np.ndarray, fallback: bool) -> TraceRecord:
    """The trace record of one step, from the state psi prepared at theta."""
    e = energy(hamiltonian, psi)
    if not np.isfinite(e):
        raise RuntimeError(f"non-finite energy {e!r} at step {step}")
    c = concurrence(psi)
    return TraceRecord(
        step=step,
        theta=np.array(theta, dtype=float),
        energy=e,
        energy_error=e - ground.energy,
        concurrence=c,
        ricci=float(ricci_closed(min(c, RICCI_CLAMP))),
        grad_norm=float(np.linalg.norm(grad)),
        qng_fallback=fallback,
    )


def run_optimization(kind: str, hamiltonian: Hamiltonian, theta0, config: OptConfig,
                     ground: GroundTruth | None = None) -> list[TraceRecord]:
    """Iterate until |E_t - E_{t-1}| < tol or max_steps; returns the full trace.

    The trace always includes the initial point (step 0). Deterministic for a
    given (theta0, config). Each step evaluates the ansatz once; energy,
    gradient, concurrence and the QNG metric all derive from that (psi, J).
    """
    kind = ansatz.resolve_kind(kind)
    theta = np.array(theta0, dtype=float)
    if theta.shape != (ansatz.param_count(kind),):
        raise ValueError(f"theta0 has shape {theta.shape}, expected ({ansatz.param_count(kind)},)")
    if ground is None:
        ground = exact_ground(hamiltonian)
    mask = qgt.block_mask(kind, config.metric_mode)
    records: list[TraceRecord] = []
    e_prev = None
    fallback = False
    for step in range(config.max_steps + 1):
        psi, jac = ansatz.state_and_jacobian(kind, theta)
        grad = gradient_from_state(hamiltonian, psi, jac)
        rec = instrument(psi, theta, step, hamiltonian, ground, grad, fallback)
        records.append(rec)
        if e_prev is not None and abs(rec.energy - e_prev) < config.tol:
            break
        if step == config.max_steps:
            break
        e_prev = rec.energy
        fallback = False
        if config.optimizer == GD:
            theta = step_gd(theta, grad, config)
        else:
            metric = qgt.fs_metric_from_state(psi, jac, mask)
            try:
                theta = step_qng(theta, grad, metric, config)
            except qgt.DegenerateMetricError:
                theta = step_gd(theta, grad, config)
                fallback = True
    return records


def initial_parameters(kind: str, config: OptConfig, trial: int) -> np.ndarray:
    """Seeded uniform [0, 2 pi) initialization; trial k derives its own stream
    from (seed, k) so trials are reproducible independently of execution order."""
    rng = np.random.default_rng(np.random.SeedSequence((int(config.seed), int(trial))))
    return ansatz.random_parameters(kind, rng)


def run_trials(kind: str, hamiltonian: Hamiltonian, config: OptConfig,
               n_trials: int) -> list[list[TraceRecord]]:
    """Independent trials with per-trial derived seeds. A failing trial aborts
    the whole batch rather than being dropped silently."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    ground = exact_ground(hamiltonian)
    traces = []
    for k in range(n_trials):
        theta0 = initial_parameters(kind, config, k)
        traces.append(run_optimization(kind, hamiltonian, theta0, config, ground=ground))
    return traces


def steps_to_threshold(trace: list[TraceRecord], threshold: float = 1e-3) -> int | None:
    """First step index with energy_error <= threshold, or None if never reached."""
    for rec in trace:
        if rec.energy_error <= threshold:
            return rec.step
    return None
