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
from .vqe import Hamiltonian, energy, exact_ground, gradient_from_state

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
    """theta - eta * grad on (..., m) parameters."""
    theta, grad = np.asarray(theta, float), np.asarray(grad, float)
    if grad.shape != theta.shape:
        raise ValueError("gradient shape does not match parameter shape")
    return theta - config.learning_rate * grad


def step_qng(theta: np.ndarray, grad: np.ndarray, metric: np.ndarray,
             config: OptConfig) -> tuple[np.ndarray, np.ndarray]:
    """theta - eta * g^+ grad on (..., m) parameters with the configured
    regularized inverse of the (..., m, m) metric.

    Returns the new parameters and a (...) boolean fallback mask: rows whose
    metric has no usable spectrum (a zero inverse) take a plain gradient step.
    """
    theta, grad = np.asarray(theta, float), np.asarray(grad, float)
    if grad.shape != theta.shape or np.shape(metric) != theta.shape + theta.shape[-1:]:
        raise ValueError("dimension mismatch between theta, grad, and metric")
    ginv = qgt.invert_metric(metric, config.inversion)
    fallback = ~ginv.any(axis=(-2, -1))
    direction = np.where(fallback[..., None], grad, (ginv @ grad[..., None])[..., 0])
    return theta - config.learning_rate * direction, fallback


def _run_batch(kind: str, hamiltonian: Hamiltonian, theta: np.ndarray,
               config: OptConfig) -> list[list[TraceRecord]]:
    """Advance a (B, m) stack of starting points in lock step; one trace per row.

    Each step evaluates the ansatz once for the rows still running and derives
    energy, gradient, concurrence and the QNG metric from that (psi, J). A row
    stops after the step where |E_t - E_{t-1}| < tol, or at max_steps.
    """
    ground = exact_ground(hamiltonian)
    mask = qgt.block_mask(kind, config.metric_mode)
    traces: list[list[TraceRecord]] = [[] for _ in theta]
    active = np.arange(len(theta))
    e_prev = np.full(len(theta), np.nan)  # no energy change is below tol at step 0
    fallback = np.zeros(len(theta), dtype=bool)
    for step in range(config.max_steps + 1):
        psi, jac = ansatz.state_and_jacobian(kind, theta)
        grad = gradient_from_state(hamiltonian, psi, jac)
        e = energy(hamiltonian, psi)
        if not np.all(np.isfinite(e)):
            raise RuntimeError(f"non-finite energy {e[~np.isfinite(e)][0]!r} at step {step}")
        c = concurrence(psi)
        columns = zip(active.tolist(), theta, e.tolist(), (e - ground.energy).tolist(),
                      c.tolist(), ricci_closed(np.minimum(c, RICCI_CLAMP)).tolist(),
                      np.sqrt(np.vecdot(grad, grad)).tolist(), fallback.tolist())
        for k, th, *values in columns:
            traces[k].append(TraceRecord(step, th.copy(), *values))
        running = ~(np.abs(e - e_prev) < config.tol)
        if step == config.max_steps or not running.any():
            break
        if config.optimizer == GD:
            new = step_gd(theta, grad, config)
        else:
            new, fallback = step_qng(theta, grad, qgt.fs_metric_from_state(psi, jac, mask),
                                     config)
        active, theta, e_prev, fallback = (active[running], new[running], e[running],
                                           fallback[running])
    return traces


def run_optimization(kind: str, hamiltonian: Hamiltonian, theta0,
                     config: OptConfig) -> list[TraceRecord]:
    """Iterate until |E_t - E_{t-1}| < tol or max_steps; returns the full trace.

    The trace always includes the initial point (step 0). Deterministic for a
    given (theta0, config), and the same trace, bit for bit, as this starting
    point gets as one row of run_trials.
    """
    theta = np.array(theta0, dtype=float)
    if theta.shape != (ansatz.param_count(kind),):
        raise ValueError(f"theta0 has shape {theta.shape}, expected ({ansatz.param_count(kind)},)")
    return _run_batch(kind, hamiltonian, theta[None], config)[0]


def initial_parameters(kind: str, config: OptConfig, trial: int) -> np.ndarray:
    """Seeded uniform [0, 2 pi) initialization; trial k derives its own stream
    from (seed, k) so trials are reproducible independently of execution order."""
    rng = np.random.default_rng(np.random.SeedSequence((int(config.seed), int(trial))))
    return ansatz.random_parameters(kind, rng)


def run_trials(kind: str, hamiltonian: Hamiltonian, config: OptConfig,
               n_trials: int) -> list[list[TraceRecord]]:
    """Independent trials with per-trial derived seeds, advanced together in lock
    step. A failing trial aborts the whole batch rather than being dropped silently."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    theta0 = np.array([initial_parameters(kind, config, k) for k in range(n_trials)])
    return _run_batch(kind, hamiltonian, theta0, config)


def steps_to_threshold(trace: list[TraceRecord], threshold: float = 1e-3) -> int | None:
    """First step index with energy_error <= threshold, or None if never reached."""
    for rec in trace:
        if rec.energy_error <= threshold:
            return rec.step
    return None
