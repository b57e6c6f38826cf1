"""Quantum Geometric Tensor over ansatz parameters.

G_ij = <d_i psi | d_j psi> - <d_i psi | psi><psi | d_j psi>

The real part is the Fubini-Study metric used by natural-gradient descent.
The subtraction term makes G invariant under parameter-dependent global
phases, which is why gauge parameters produce exactly-zero rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import ansatz
from .simulator import _real, _real_array

DENSE = "dense"
BLOCK = "block"
DIAG = "diag"
METRIC_MODES = (DENSE, BLOCK, DIAG)


def _positive_float(value, name: str, finite: bool = True) -> float:
    """float(value) for a real number above 0, finite unless finite is False; else ValueError."""
    number = _real(value)
    if number is None or not (0 < number and (number < math.inf or not finite)):
        raise ValueError(f"{name} must be positive{' and finite' if finite else ''}, "
                         f"got {value!r}")
    return number


@dataclass(frozen=True)
class PseudoInverse:
    """Spectral pseudo-inverse keeping eigenvalues above rcond * lambda_max."""

    name: ClassVar[str] = "pinv"
    rcond: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "rcond", _positive_float(self.rcond, "rcond"))


@dataclass(frozen=True)
class Tikhonov:
    """(g + epsilon I)^-1 regularized inverse."""

    name: ClassVar[str] = "tikhonov"
    epsilon: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _positive_float(self.epsilon, "epsilon"))


InversionPolicy = PseudoInverse | Tikhonov


def canonical_mode(mode: str) -> str:
    if mode not in METRIC_MODES:
        raise ValueError(f"unknown metric mode {mode!r}; expected {'/'.join(METRIC_MODES)}")
    return mode


def qgt_from_state(psi: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """QGT from a (..., 4) state and its (..., 4, m) Jacobian (columns d|psi>/d theta_j)."""
    jac_h = jac.conj().swapaxes(-1, -2)
    v = (jac_h @ psi[..., None])[..., 0]
    return jac_h @ jac - v[..., :, None] * v.conj()[..., None, :]


def block_mask(kind: str, mode: str) -> np.ndarray:
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


def _metric_from_qgt(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Re(g), exactly symmetrized, with the entries where mask is False exactly zero."""
    g = g.real
    return np.where(mask, 0.5 * (g + g.swapaxes(-1, -2)), 0.0)


def fs_metric_from_state(psi: np.ndarray, jac: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fubini-Study metric Re(QGT) from a state and its Jacobian, exactly
    symmetrized; entries where the block_mask result is False are exactly zero."""
    return _metric_from_qgt(qgt_from_state(psi, jac), mask)


def fs_metric(kind: str, theta, mode: str = DENSE) -> np.ndarray:
    """Fubini-Study metric of the ansatz at (..., m) parameters under the dense/block/diag mode."""
    return fs_metric_from_state(*ansatz.state_and_jacobian(kind, theta), block_mask(kind, mode))


def invert_metric(g: np.ndarray, policy: InversionPolicy = PseudoInverse()) -> np.ndarray:
    """Regularized inverse of symmetric (..., m, m) metrics.

    PseudoInverse: eigendecompose, invert eigenvalues above rcond * lambda_max,
    zero the rest; a metric with no eigenvalue above the cutoff gets the zero
    matrix as its inverse. Tikhonov: plain (g + epsilon I)^-1. Entries are read
    by the one real-number rule (simulator._real_array): text, bool and complex
    entries raise ValueError, and so does a NaN or infinite entry.

    This checked entry point symmetrizes g and hands it to _invert. _natural_direction calls
    _invert directly on the metrics fs_metric_from_state builds: finite and exactly symmetric
    (IEEE addition commutes), so the checks refuse nothing and symmetrizing changes no bit.
    """
    g = _real_array(g, lambda v: f"metric entries must be real numbers, got {v!r}")
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError("metric must be a square matrix")
    if not np.isfinite(g).all():
        raise ValueError("metric entries must be finite")
    g_t = g.swapaxes(-1, -2)
    if np.abs(g - g_t).max() > 1e-10:
        raise ValueError("metric must be symmetric")
    return _invert(0.5 * (g + g_t), policy)


def _invert(g: np.ndarray, policy: InversionPolicy) -> np.ndarray:
    """invert_metric of finite, exactly symmetric float metrics, unchecked."""
    if isinstance(policy, Tikhonov):
        inv = np.linalg.inv(g + policy.epsilon * np.eye(g.shape[-1]))
    else:
        w, v = np.linalg.eigh(g)
        inv = (v * _spectral_inverse(w, policy.rcond)[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (inv + inv.swapaxes(-1, -2))


def _spectral_inverse(w: np.ndarray, rcond: float) -> np.ndarray:
    """1 / w on the eigenvalues w (..., m) above rcond * max |w| of their row, 0 elsewhere."""
    keep = w > rcond * np.abs(w).max(axis=-1, keepdims=True)
    return np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)


def _diag_inverse(psi: np.ndarray, jac: np.ndarray, policy: InversionPolicy) -> np.ndarray:
    """The diagonal w^+ (..., m) of _invert(g, policy) for the diag-mode metric g of a
    (..., 4) state and its (..., 4, m) Jacobian, without building g or calling LAPACK.

    It is that diagonal bit for bit, and the rest of _invert(g, policy) is exactly zero:
    - the diagonal w of g is that of Re(QGT), since 0.5 (x + x) = x and the mask keeps it;
    - eigh of a diagonal matrix returns its diagonal as the eigenvalues and a signed
      permutation as the eigenvectors, so the pseudo-inverse is diag(1 / w) on the kept w;
    - under Tikhonov, LU of the diagonal g + epsilon I divides by its diagonal, 1 / (w + epsilon).
    The second and third are properties of numpy's LAPACK that tests/test_qgt.py checks.
    """
    w = np.diagonal(qgt_from_state(psi, jac).real, axis1=-2, axis2=-1)
    if isinstance(policy, Tikhonov):
        return 1.0 / (w + policy.epsilon)
    return _spectral_inverse(w, policy.rcond)


def _natural_direction(psi: np.ndarray, jac: np.ndarray, grad: np.ndarray, mode: str,
                       mask: np.ndarray, policy: InversionPolicy) -> tuple[np.ndarray, np.ndarray]:
    """The QNG direction d = g^+ grad at (..., 4) states with (..., 4, m) Jacobians and
    (..., m) gradients, and the (...,) mask of the rows whose g^+ is all zero (no usable
    spectrum), which take d = grad. g^+ is _invert of the mode's masked metric, or under diag
    its diagonal w^+ from _diag_inverse, with d = w^+ grad + 0.0: the matrix product sums zero
    terms into each entry, so it gives +0.0 where w^+ grad is -0.0; the + 0.0 does the same."""
    if mode == DIAG:
        winv = _diag_inverse(psi, jac, policy)
        fallback = ~winv.any(axis=-1)
        direction = winv * grad + 0.0
    else:
        ginv = _invert(fs_metric_from_state(psi, jac, mask), policy)
        fallback = ~ginv.any(axis=(-2, -1))
        direction = (ginv @ grad[..., None])[..., 0]
    if fallback.any():
        direction = np.where(fallback[..., None], grad, direction)
    return direction, fallback
