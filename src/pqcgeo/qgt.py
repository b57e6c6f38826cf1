"""Quantum Geometric Tensor over ansatz parameters.

G_ij = <d_i psi | d_j psi> - <d_i psi | psi><psi | d_j psi>

The real part is the Fubini-Study metric used by natural-gradient descent.
The subtraction term makes G invariant under parameter-dependent global
phases, which is why gauge parameters produce exactly-zero rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ansatz

DENSE = "dense"
BLOCK = "block"
DIAG = "diag"
_MODE_ALIASES = {
    "dense": DENSE,
    "block": BLOCK,
    "block_diagonal": BLOCK,
    "block-diagonal": BLOCK,
    "diag": DIAG,
    "diagonal": DIAG,
}
METRIC_MODES = (DENSE, BLOCK, DIAG)


@dataclass(frozen=True)
class PseudoInverse:
    """Spectral pseudo-inverse keeping eigenvalues above rcond * lambda_max."""

    rcond: float = 1e-8

    def __post_init__(self):
        if not self.rcond > 0:
            raise ValueError("rcond must be positive")


@dataclass(frozen=True)
class Tikhonov:
    """(g + epsilon I)^-1 regularized inverse."""

    epsilon: float = 1e-3

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


InversionPolicy = PseudoInverse | Tikhonov


def canonical_mode(mode: str) -> str:
    try:
        return _MODE_ALIASES[str(mode).strip().lower()]
    except KeyError:
        raise ValueError(f"unknown metric mode {mode!r}; expected dense/block/diag") from None


def qgt_from_state(psi: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """QGT from a (..., 4) state and its (..., 4, m) Jacobian (columns d|psi>/d theta_j)."""
    jac_h = jac.conj().swapaxes(-1, -2)
    v = (jac_h @ psi[..., None])[..., 0]
    return jac_h @ jac - v[..., :, None] * v.conj()[..., None, :]


def qgt_full(kind: str, theta) -> np.ndarray:
    """Hermitian (..., m, m) QGT of the ansatz at (..., m) parameters."""
    psi, jac = ansatz.state_and_jacobian(kind, theta)
    return qgt_from_state(psi, jac)


def block_mask(kind: str, mode: str = BLOCK) -> np.ndarray:
    """Boolean mask of entries kept by the approximation mode."""
    mode = canonical_mode(mode)
    m = ansatz.param_count(kind)
    if mode == DENSE:
        return np.ones((m, m), dtype=bool)
    mask = np.zeros((m, m), dtype=bool)
    if mode == DIAG:
        mask[np.diag_indices(m)] = True
        return mask
    for block in ansatz.BLOCK_PARTITIONS[ansatz.resolve_kind(kind)]:
        mask[np.ix_(block, block)] = True
    return mask


def fs_metric_from_state(psi: np.ndarray, jac: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fubini-Study metric Re(QGT) from a state and its Jacobian, exactly
    symmetrized; entries where the block_mask result is False are exactly zero."""
    g = qgt_from_state(psi, jac).real
    return np.where(mask, 0.5 * (g + g.swapaxes(-1, -2)), 0.0)


def fs_metric(kind: str, theta, mode: str = DENSE) -> np.ndarray:
    """Fubini-Study metric of the ansatz at (..., m) parameters under the dense/block/diag mode."""
    return fs_metric_from_state(*ansatz.state_and_jacobian(kind, theta), block_mask(kind, mode))


def invert_metric(g: np.ndarray, policy: InversionPolicy = PseudoInverse()) -> np.ndarray:
    """Regularized inverse of symmetric (..., m, m) metrics.

    PseudoInverse: eigendecompose, invert eigenvalues above rcond * lambda_max,
    zero the rest; a metric with no eigenvalue above the cutoff gets the zero
    matrix as its inverse. Tikhonov: plain (g + epsilon I)^-1.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError("metric must be a square matrix")
    g_t = g.swapaxes(-1, -2)
    if np.abs(g - g_t).max() > 1e-10:
        raise ValueError("metric must be symmetric")
    g = 0.5 * (g + g_t)
    if isinstance(policy, Tikhonov):
        inv = np.linalg.inv(g + policy.epsilon * np.eye(g.shape[-1]))
    else:
        w, v = np.linalg.eigh(g)
        keep = w > policy.rcond * np.abs(w).max(axis=-1, keepdims=True)
        winv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        inv = (v * winv[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (inv + inv.swapaxes(-1, -2))
