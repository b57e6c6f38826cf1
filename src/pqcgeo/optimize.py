"""Gradient descent and Quantum Natural Gradient descent with geometric
instrumentation.

Every step of a run records, besides energy and gradient norm, the
concurrence of the prepared state and the closed-form scalar curvature
evaluated at that concurrence (clamped just below the C = 1 pole so that
maximally entangled passes yield large negative finite values).
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import ansatz, qgt
from .geometry import concurrence, ricci_closed
from .vqe import Hamiltonian, energy_and_gradient, exact_ground

GD = "gd"
QNG = "qng"

RICCI_CLAMP = 1.0 - 1e-9
CHEMICAL_ACCURACY = 1e-3  # Ha; the steps-to-threshold target of a run summary


def _integer(value, least: int, message: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{message}, got {value!r}")
    return int(value)


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
        object.__setattr__(self, "learning_rate", qgt._positive_float(
            self.learning_rate, "learning_rate"))
        object.__setattr__(self, "max_steps", _integer(
            self.max_steps, 1, "max_steps must be an integer of at least 1"))
        if self.max_steps >= sys.maxsize:  # a run's step list could not hold its steps
            raise ValueError(f"max_steps must be below {sys.maxsize}, got {self.max_steps!r}")
        # tol = inf stops every run after its first step
        object.__setattr__(self, "tol", qgt._positive_float(self.tol, "tol", finite=False))
        if self.optimizer not in (GD, QNG):
            raise ValueError(f"optimizer must be '{GD}' or '{QNG}'")
        object.__setattr__(self, "seed", _integer(
            self.seed, 0, "seed must be a non-negative integer"))
        object.__setattr__(self, "metric_mode", qgt.canonical_mode(self.metric_mode))
        if not isinstance(self.inversion, qgt.InversionPolicy):
            raise ValueError(f"inversion must be a qgt.InversionPolicy, got {self.inversion!r}")


@dataclass(frozen=True, eq=False)
class Trace:
    """One trial's run: row t of every array is step t. theta is (n, m), the rest
    (n,); qng_fallback[t] marks a QNG update to step t that took a plain gradient
    step because its metric had no usable spectrum (never at step 0 or under GD)."""
    theta: np.ndarray
    energy: np.ndarray
    energy_error: np.ndarray
    concurrence: np.ndarray
    ricci: np.ndarray
    grad_norm: np.ndarray
    qng_fallback: np.ndarray

    def __len__(self) -> int:
        return len(self.energy)


def _run_batch(kind: str, hamiltonian: Hamiltonian, theta: np.ndarray,
               config: OptConfig) -> list[Trace]:
    """Advance a (B, m) stack of starting points in lock step; one trace per row.

    A step evaluates the ansatz once for the rows still running, takes E and its gradient
    from one H psi, and keeps what the next step reads. A row stops after the step where
    |E_t - E_{t-1}| < tol, or at max_steps; otherwise it moves to theta - eta * d. d is the
    gradient, and under QNG g^+ times it, except on rows whose inverse metric g^+ is all
    zero (no usable spectrum): those take the gradient and are marked in qng_fallback.

    Each step does only the work its checks and metric mode need, with the same bits:
    - the ansatz comes from the unchecked core ansatz._evaluate_rows: theta0 was checked
      once, and every update is bounded below;
    - g^+ comes from qgt._invert, the core of invert_metric without its input checks: the
      metric fs_metric_from_state builds is finite and exactly symmetric (IEEE addition
      commutes), so the checks would refuse nothing and re-symmetrizing would change no bit;
    - under diag, g^+ is the diagonal w^+ of qgt._diag_inverse and d = w^+ grad + 0.0. The
      matrix product sums zero terms into each entry, so it gives +0.0 where w^+ grad is
      -0.0; the + 0.0 does the same, and so a -0.0 angle keeps its sign as before.
    """
    ground = exact_ground(hamiltonian)
    mask = qgt.block_mask(kind, config.metric_mode)
    steps = []  # one per step, of its running rows: memory follows the steps run
    active = np.arange(len(theta))
    e_prev = np.full(len(theta), np.nan)  # no energy change is below tol at step 0
    fallback = np.zeros(len(theta), dtype=bool)
    for step in range(config.max_steps + 1):
        psi, jac = ansatz._evaluate_rows(kind, theta)
        e, grad = energy_and_gradient(hamiltonian, psi, jac)
        if not np.all(np.isfinite(e)):
            raise RuntimeError(f"non-finite energy {e[~np.isfinite(e)].item(0)} at step {step}")
        steps.append((active, theta, psi, e, grad, fallback))
        running = ~(np.abs(e - e_prev) < config.tol)
        if step == config.max_steps or not running.any():
            break
        direction = grad
        if config.optimizer == QNG:
            if config.metric_mode == qgt.DIAG:
                winv = qgt._diag_inverse(psi, jac, config.inversion)
                fallback = ~winv.any(axis=-1)
                direction = winv * grad + 0.0
            else:
                ginv = qgt._invert(qgt.fs_metric_from_state(psi, jac, mask), config.inversion)
                fallback = ~ginv.any(axis=(-2, -1))
                direction = (ginv @ grad[..., None])[..., 0]
            if fallback.any():
                direction = np.where(fallback[:, None], grad, direction)
        with np.errstate(over="ignore"):  # refused below, naming the learning rate
            theta = theta - config.learning_rate * direction
        if not np.abs(theta).max() <= ansatz.THETA_MAX:  # also refuses NaN
            raise ValueError(f"learning rate {config.learning_rate!r} takes the parameters beyond "
                             f"{ansatz.THETA_MAX:.2g} in size at step {step + 1}")
        e_prev = e
        if not running.all():
            active, theta, e_prev, fallback = (active[running], theta[running], e[running],
                                               fallback[running])
    rows, theta, psi, e, grad, fallback = map(np.concatenate, zip(*steps))
    c = concurrence(psi)  # the columns no update reads, derived once over all row-steps
    columns = {"theta": theta, "energy": e, "energy_error": e - ground.energy,
               "concurrence": c, "ricci": ricci_closed(np.minimum(c, RICCI_CLAMP)),
               "grad_norm": np.sqrt(np.vecdot(grad, grad)), "qng_fallback": fallback}
    order = np.argsort(rows, kind="stable")  # each row's steps together, in step order
    cuts = np.cumsum(np.bincount(rows))[:-1]  # every row has a step 0
    return [Trace(**dict(zip(columns, trial))) for trial in
            zip(*(np.split(column[order], cuts) for column in columns.values()))]


def run_optimization(kind: str, hamiltonian: Hamiltonian, theta0,
                     config: OptConfig) -> Trace:
    """Iterate until |E_t - E_{t-1}| < tol or max_steps; returns the full trace.

    The trace always includes the initial point (step 0). Deterministic for a
    given (theta0, config), and the same trace, bit for bit, as this starting
    point gets as one row of run_trials.
    """
    m = ansatz.param_count(kind)
    if np.shape(theta0) != (m,):
        raise ValueError(f"theta0 has shape {np.shape(theta0)}, expected ({m},)")
    return _run_batch(kind, hamiltonian, ansatz._check_theta(kind, theta0)[None], config)[0]


def initial_parameters(kind: str, config: OptConfig, trial: int) -> np.ndarray:
    """Seeded uniform [0, 2 pi) initialization; trial k derives its own stream
    from (seed, k) so trials are reproducible independently of execution order."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, int(trial))))
    return ansatz.random_parameters(kind, rng)


def run_trials(kind: str, hamiltonian: Hamiltonian, config: OptConfig,
               n_trials: int) -> list[Trace]:
    """Independent trials with per-trial derived seeds, advanced together in lock
    step. A failing trial aborts the whole batch rather than being dropped silently."""
    n_trials = _integer(n_trials, 1, "trial count must be an integer of at least 1")
    theta0 = np.array([initial_parameters(kind, config, k) for k in range(n_trials)])
    return _run_batch(kind, hamiltonian, theta0, config)


def steps_to_threshold(trace: Trace, threshold: float = CHEMICAL_ACCURACY) -> int | None:
    """First step index with energy_error <= threshold, or None if never reached."""
    hits = np.flatnonzero(trace.energy_error <= threshold)
    return int(hits[0]) if hits.size else None
