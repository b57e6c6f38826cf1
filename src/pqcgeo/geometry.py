"""Hopf-fibration geometry of two-qubit pure states and a numeric
tensor-calculus engine.

A normalized state psi = a|00> + b|01> + g|10> + d|11> projects to a point on
the 4-sphere with Cartesian coordinates

    x0 = |a|^2 + |b|^2 - |g|^2 - |d|^2
    x1 =  2 Re(conj(a) g + conj(b) d)      x4 = 2 Im(conj(a) g + conj(b) d)
    x3 =  2 Re(a d - b g)                  x2 = -2 Im(a d - b g)

and the fiber over that point is a unit quaternion pair extracted from the
quaternionic spinor psi_H = (a + b j)|0> + (g + d j)|1>. The concurrence is
the radius sqrt(x2^2 + x3^2) of the entanglement-sphere coordinates, and the
quaternionic Fubini-Study metric on the base gives the scalar curvature

    R(C) = 2 (6 C^2 - 5) / (C^2 - 1),

which the numeric Christoffel/curvature engine below reproduces and which all
per-circuit closed forms in :mod:`pqcgeo.ansatz` collapse to.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ansatz import SingularityError
from .simulator import require_normalized

# chart conventions for the base metric, named by where the sin^2(Theta)
# weight sits in the (Phi, Theta) sector
SIN_ON_DTHETA = "sin_on_dtheta"   # ... + (1-C^2) (dPhi^2 + sin^2(Th) dTh^2)
SIN_ON_DPHI = "sin_on_dphi"       # ... + (1-C^2) (dTh^2 + sin^2(Th) dPhi^2)
CHART_CONVENTIONS = (SIN_ON_DTHETA, SIN_ON_DPHI)

# fiber extraction conventions
FRAME_ORTHONORMAL = "orthonormal"  # the two reference spinors form an orthonormal frame
FRAME_CHART = "chart"              # raw overlaps with the two chart spinors

_CHART_TOL = 1e-9


class ConditioningError(RuntimeError):
    """Metric too close to singular for finite-difference tensor calculus."""


class InconsistentStateError(ValueError):
    """Fiber intermediates violate |z|^2 + |w|^2 <= 1 beyond round-off."""


def concurrence(state) -> np.ndarray | float:
    """C = 2 |a d - b g|; 0 for product states, 1 for maximally entangled ones."""
    state = require_normalized(state)
    c = 2.0 * np.abs(state[..., 0] * state[..., 3] - state[..., 1] * state[..., 2])
    c = np.clip(c, 0.0, 1.0)
    return float(c) if np.ndim(c) == 0 else c


# ---------------------------------------------------------------------------
# base coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfBase:
    """S^4 point in Cartesian and intrinsic coordinates.

    Angles that are undefined at the queried point (chart singularities) are
    None, and their names are listed in ``singular``.
    """

    x: np.ndarray
    theta_a: float
    phi_a: float | None
    chi: float | None
    xi: float | None
    singular: tuple[str, ...]


def base_coordinates(state) -> np.ndarray:
    """Cartesian (x0..x4); broadcasts over leading axes."""
    state = np.asarray(state, dtype=complex)
    a, b, g, d = (state[..., k] for k in range(4))
    s = np.conj(a) * g + np.conj(b) * d
    t = a * d - b * g
    x = np.stack(
        [np.abs(a) ** 2 + np.abs(b) ** 2 - np.abs(g) ** 2 - np.abs(d) ** 2,
         2.0 * s.real, -2.0 * t.imag, 2.0 * t.real, 2.0 * s.imag],
        axis=-1,
    )
    return x


def _safe_arccos(v: float) -> float:
    if abs(v) > 1.0 + 1e-6:
        raise InconsistentStateError(f"arccos argument {v!r} out of range")
    return float(np.arccos(np.clip(v, -1.0, 1.0)))


def hopf_base(state) -> HopfBase:
    """Base-S^4 coordinates of a single normalized state.

    phi_a and chi are undefined when theta_a is 0 or pi (and chi additionally
    when phi_a is 0 or pi); xi is undefined when x2 = x3 = 0. Undefined angles
    are reported as tagged singular outcomes, never silently defaulted.
    """
    state = require_normalized(state)
    x = base_coordinates(state)
    theta_a = _safe_arccos(x[0])
    sin_ta = np.sqrt(max(0.0, 1.0 - x[0] ** 2))
    singular: list[str] = []
    phi_a = chi = xi = None
    if sin_ta < _CHART_TOL:
        singular += ["phi_a", "chi"]
    else:
        phi_a = _safe_arccos(x[1] / sin_ta)
        sin_pa = np.sin(phi_a)
        if sin_pa < _CHART_TOL:
            singular.append("chi")
        else:
            chi = _safe_arccos(x[4] / (sin_ta * sin_pa))
    if x[2] ** 2 + x[3] ** 2 < _CHART_TOL ** 2:
        singular.append("xi")
    else:
        # two-argument arctangent of (x3, x2) keeps the quadrant unambiguous
        xi = float(np.arctan2(x[3], x[2]))
    return HopfBase(x=x, theta_a=theta_a, phi_a=phi_a, chi=chi, xi=xi,
                    singular=tuple(singular))


# ---------------------------------------------------------------------------
# fiber quaternions
# ---------------------------------------------------------------------------

def quat(w=0.0, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    return np.array([w, x, y, z], dtype=float)


def quat_from_complex_pair(z: complex, w: complex) -> np.ndarray:
    """z + w j as components (1, i, j, k)."""
    return np.array([z.real, z.imag, w.real, w.imag])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
         w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
         w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
         w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2]
    )


def quat_conj(a: np.ndarray) -> np.ndarray:
    return np.array([a[0], -a[1], -a[2], -a[3]])


def quat_norm2(a: np.ndarray) -> float:
    return float(np.dot(a, a))


@dataclass(frozen=True)
class FiberQuaternion:
    q_plus: np.ndarray
    q_minus: np.ndarray
    z: complex
    w: complex
    gamma_plus: float
    gamma_minus: float


def hopf_fiber(state, convention: str = FRAME_ORTHONORMAL) -> FiberQuaternion:
    """Fiber quaternions q+- of a normalized state.

    Both conventions build the chart spinors
        c+ = (gamma_plus, gamma_minus u) / sqrt(2)
    with u = (z + w j)/|z + w j| and overlap them quaternionically with
    psi_H = (a + b j)|0> + (g + d j)|1>. They differ in the second spinor:

    * ``orthonormal`` (default) uses c- = (-gamma_minus, gamma_plus u)/sqrt(2),
      which is orthogonal to c+, so |q+|^2 + |q-|^2 = 1 exactly.
    * ``chart`` uses c- = (gamma_minus, gamma_plus u)/sqrt(2), the raw
      per-chart overlap convention in which tabulated closed forms for the
      circuit families are usually written; the two overlap norms then do not
      partition unity.

    When |z| = |w| = 0 the fiber direction u is undefined and is fixed to the
    identity quaternion by convention.
    """
    if convention not in (FRAME_ORTHONORMAL, FRAME_CHART):
        raise ValueError(f"unknown fiber convention {convention!r}")
    state = require_normalized(state)
    x = base_coordinates(state)
    z = complex(0.5 * (x[1] + 1j * x[4]))
    w = complex(0.5 * (x[3] - 1j * x[2]))
    r2 = abs(z) ** 2 + abs(w) ** 2
    if r2 > 1.0 + 1e-9:
        raise InconsistentStateError(f"|z|^2 + |w|^2 = {r2!r} exceeds 1")
    disc = np.sqrt(max(0.0, 1.0 - r2))
    gamma_p = float(np.sqrt(1.0 + disc))
    gamma_m = float(np.sqrt(max(0.0, 1.0 - disc)))
    if r2 < 1e-24:
        u = quat(1.0)
    else:
        u = quat_from_complex_pair(z, w) / np.sqrt(r2)
    psi_h = (quat_from_complex_pair(complex(state[0]), complex(state[1])),
             quat_from_complex_pair(complex(state[2]), complex(state[3])))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    c_plus = (quat(gamma_p) * inv_sqrt2, gamma_m * u * inv_sqrt2)
    first = -gamma_m if convention == FRAME_ORTHONORMAL else gamma_m
    c_minus = (quat(first) * inv_sqrt2, gamma_p * u * inv_sqrt2)
    q_plus = quat_mul(quat_conj(c_plus[0]), psi_h[0]) + quat_mul(quat_conj(c_plus[1]), psi_h[1])
    q_minus = quat_mul(quat_conj(c_minus[0]), psi_h[0]) + quat_mul(quat_conj(c_minus[1]), psi_h[1])
    return FiberQuaternion(q_plus=q_plus, q_minus=q_minus, z=z, w=w,
                           gamma_plus=gamma_p, gamma_minus=gamma_m)


# ---------------------------------------------------------------------------
# base metric and closed-form curvature
# ---------------------------------------------------------------------------

def mfs_metric(c: float, chi: float, phi: float, theta: float,
               convention: str = SIN_ON_DTHETA) -> np.ndarray:
    """Quaternionic Fubini-Study metric on the base, in coordinates (C, chi, Phi, Theta).

    Diagonal with entries 1/(1-C^2) and C^2 on the first two coordinates; the
    (Phi, Theta) sector carries (1-C^2) weights placed according to the chart
    convention. The default convention is the one whose numeric scalar
    curvature reproduces ricci_closed (see resolve_chart_convention).
    """
    if convention not in CHART_CONVENTIONS:
        raise ValueError(f"unknown chart convention {convention!r}")
    if not 0.0 <= c < 1.0:
        raise SingularityError(f"chart requires 0 <= C < 1, got {c!r}")
    h = 1.0 - c * c
    s2 = np.sin(theta) ** 2
    if convention == SIN_ON_DTHETA:
        gpp, gtt = h, h * s2
    else:
        gpp, gtt = h * s2, h
    return np.diag([1.0 / h, c * c, gpp, gtt])


def ricci_closed(c) -> np.ndarray | float:
    """Universal closed-form scalar curvature R(C) = 2 (6 C^2 - 5)/(C^2 - 1)."""
    c = np.asarray(c, dtype=float)
    if np.any(np.abs(c) >= 1.0):
        raise SingularityError("scalar curvature diverges at |C| = 1")
    r = 2.0 * (6.0 * c * c - 5.0) / (c * c - 1.0)
    return float(r) if np.ndim(r) == 0 else r


# ---------------------------------------------------------------------------
# numeric tensor calculus (independent oracle for every curvature claim)
# ---------------------------------------------------------------------------

MetricFn = Callable[[np.ndarray], np.ndarray]


def _metric_inverse(g: np.ndarray) -> np.ndarray:
    smin = np.linalg.svd(g, compute_uv=False)[-1]
    if smin <= 1e-10:
        raise ConditioningError(f"metric nearly singular: smallest singular value {smin!r}")
    return np.linalg.inv(g)


def christoffel(metric: MetricFn, point, h: float = 1e-4) -> np.ndarray:
    """Christoffel symbols Gamma^c_ab = 1/2 g^{cd} (g_da,b + g_db,a - g_ab,d).

    Partial derivatives of the metric are central differences of step h. The
    returned array is indexed [c, a, b] and is symmetric in (a, b).
    """
    point = np.asarray(point, dtype=float)
    d = point.size
    ginv = _metric_inverse(np.asarray(metric(point), dtype=float))
    dg = np.empty((d, d, d))
    for k in range(d):
        xp, xm = point.copy(), point.copy()
        xp[k] += h
        xm[k] -= h
        dg[k] = (np.asarray(metric(xp), float) - np.asarray(metric(xm), float)) / (2.0 * h)
    gam = 0.5 * (np.einsum("cd,bda->cab", ginv, dg)
                 + np.einsum("cd,adb->cab", ginv, dg)
                 - np.einsum("cd,dab->cab", ginv, dg))
    return 0.5 * (gam + np.swapaxes(gam, 1, 2))


def scalar_curvature_numeric(metric: MetricFn, point, h: float = 1e-4,
                             richardson: bool = True) -> float:
    """Scalar curvature by nested central differencing of the Christoffel symbols.

    R = g^{ab} (Gamma^c_ab,c - Gamma^c_ac,b
                + Gamma^d_ab Gamma^c_cd - Gamma^d_ac Gamma^c_bd)

    The outer derivative uses steps (h, h/2) combined by Richardson
    extrapolation when ``richardson`` is set.
    """
    point = np.asarray(point, dtype=float)
    d = point.size
    ginv = _metric_inverse(np.asarray(metric(point), dtype=float))
    gam = christoffel(metric, point, h)

    def dgamma(step: float) -> np.ndarray:
        out = np.empty((d, d, d, d))
        for k in range(d):
            xp, xm = point.copy(), point.copy()
            xp[k] += step
            xm[k] -= step
            out[k] = (christoffel(metric, xp, h) - christoffel(metric, xm, h)) / (2.0 * step)
        return out

    dgam = dgamma(h)
    if richardson:
        dgam = (4.0 * dgamma(h / 2.0) - dgam) / 3.0
    r = (np.einsum("ab,ccab->", ginv, dgam)
         - np.einsum("ab,bcac->", ginv, dgam)
         + np.einsum("ab,dab,ccd->", ginv, gam, gam)
         - np.einsum("ab,dac,cbd->", ginv, gam, gam))
    return float(r)


def resolve_chart_convention(cs=None, tol: float = 1e-3) -> tuple[str, dict]:
    """Find which chart convention's numeric curvature matches ricci_closed.

    Returns the matching convention name plus the max |numeric - closed|
    deviation per convention over the sampled concurrence values. Exactly one
    convention is expected to match; a tie or an empty match raises.
    """
    if cs is None:
        cs = np.arange(0.1, 0.91, 0.1)
    angles = (0.7, 1.1, 1.3)  # generic chi, Phi, Theta away from coordinate poles
    devs = {}
    for conv in CHART_CONVENTIONS:
        worst = 0.0
        for c in cs:
            metric = _mfs_field(conv)
            r = scalar_curvature_numeric(metric, np.array([c, *angles]))
            worst = max(worst, abs(r - ricci_closed(c)))
        devs[conv] = worst
    matching = [k for k, v in devs.items() if v <= tol]
    if len(matching) != 1:
        raise RuntimeError(f"expected exactly one matching convention, deviations {devs}")
    return matching[0], devs


def _mfs_field(convention: str) -> MetricFn:
    def metric(x: np.ndarray) -> np.ndarray:
        return mfs_metric(x[0], x[1], x[2], x[3], convention=convention)
    return metric
