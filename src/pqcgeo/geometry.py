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

which the numeric Christoffel/curvature engine below reproduces and which
:mod:`pqcgeo.ansatz` evaluates at each family's closed-form concurrence to
give the per-circuit curvature. The engine's one core, scalar_curvature_stack,
calls a stacked metric once on the stencils of all its points; the per-point
entries call a per-point metric at each stencil point through an adapter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .simulator import _real_array, require_normalized

# chart conventions for the base metric, named by where the sin^2(Theta)
# weight sits in the (Phi, Theta) sector
SIN_ON_DTHETA = "sin_on_dtheta"   # ... + (1-C^2) (dPhi^2 + sin^2(Th) dTh^2)
SIN_ON_DPHI = "sin_on_dphi"       # ... + (1-C^2) (dTh^2 + sin^2(Th) dPhi^2)
CHART_CONVENTIONS = (SIN_ON_DTHETA, SIN_ON_DPHI)

# fiber extraction conventions
FRAME_ORTHONORMAL = "orthonormal"  # the two reference spinors form an orthonormal frame
FRAME_CHART = "chart"              # raw overlaps with the two chart spinors

_CHART_TOL = 1e-9


class SingularityError(ValueError):
    """Raised where the scalar curvature or the base chart hits the C = 1 pole."""


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
    p = np.square(np.abs(state))  # not ** 2, which is pow() on a numpy scalar
    return np.stack([p[..., 0] + p[..., 1] - p[..., 2] - p[..., 3],
                     2.0 * s.real, -2.0 * t.imag, 2.0 * t.real, 2.0 * s.imag], axis=-1)


def _safe_arccos(v: float) -> float:
    if abs(v) > 1.0 + 1e-6:
        raise InconsistentStateError(f"arccos argument {float(v)!r} out of range")
    return float(np.arccos(np.clip(v, -1.0, 1.0)))


def hopf_base(state) -> HopfBase:
    """Base-S^4 coordinates of a single normalized state.

    phi_a and chi are undefined when theta_a is 0 or pi (and chi additionally
    when phi_a is 0 or pi); xi is undefined when x2 = x3 = 0. Undefined angles
    are reported as tagged singular outcomes, never silently defaulted.
    """
    state = require_normalized(state)
    if state.shape != (4,):
        raise ValueError(f"expected one state of shape (4,), got shape {state.shape}")
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
# fiber quaternions: components (1, i, j, k) on the last axis of (..., 4) stacks
# ---------------------------------------------------------------------------

def quat(w=0.0, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    return np.stack(np.broadcast_arrays(w, x, y, z), axis=-1).astype(float)


def quat_from_complex_pair(z, w) -> np.ndarray:
    """z + w j; broadcasts over z and w."""
    return np.stack([z.real, z.imag, w.real, w.imag], axis=-1)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = (a[..., k] for k in range(4))
    w2, x2, y2, z2 = (b[..., k] for k in range(4))
    return np.stack(
        [w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
         w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
         w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
         w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2], axis=-1)


def quat_conj(a: np.ndarray) -> np.ndarray:
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def quat_norm2(a: np.ndarray) -> np.ndarray | float:
    n = np.vecdot(a, a)
    return float(n) if np.ndim(n) == 0 else n


@dataclass(frozen=True)
class FiberQuaternion:
    """Fiber quaternions q+- of a state or stack and the chart data that built them (hopf_fiber)."""

    q_plus: np.ndarray
    q_minus: np.ndarray
    z: complex | np.ndarray
    w: complex | np.ndarray
    gamma_plus: float | np.ndarray
    gamma_minus: float | np.ndarray


def hopf_fiber(state, convention: str = FRAME_ORTHONORMAL) -> FiberQuaternion:
    """Fiber quaternions q+- of a normalized state or a (..., 4) stack of them.

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
    z = 0.5 * (x[..., 1] + 1j * x[..., 4])
    w = 0.5 * (x[..., 3] - 1j * x[..., 2])
    # hypot and libm pow give the bits of Python's abs(z) ** 2, per state
    r2 = np.float_power(np.hypot(z.real, z.imag), 2) + np.float_power(np.hypot(w.real, w.imag), 2)
    if np.any(r2 > 1.0 + 1e-9):
        raise InconsistentStateError(f"|z|^2 + |w|^2 = {float(r2.max())!r} exceeds 1")
    disc = np.sqrt(np.maximum(0.0, 1.0 - r2))
    gamma_p = np.sqrt(1.0 + disc)
    gamma_m = np.sqrt(np.maximum(0.0, 1.0 - disc))
    u = quat_from_complex_pair(z, w) / np.sqrt(np.maximum(r2, 1e-24))[..., None]
    u[r2 < 1e-24] = quat(1.0)
    psi_h = (quat_from_complex_pair(state[..., 0], state[..., 1]),
             quat_from_complex_pair(state[..., 2], state[..., 3]))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    c_plus = (quat(gamma_p) * inv_sqrt2, gamma_m[..., None] * u * inv_sqrt2)
    first = -gamma_m if convention == FRAME_ORTHONORMAL else gamma_m
    c_minus = (quat(first) * inv_sqrt2, gamma_p[..., None] * u * inv_sqrt2)
    q_plus = quat_mul(quat_conj(c_plus[0]), psi_h[0]) + quat_mul(quat_conj(c_plus[1]), psi_h[1])
    q_minus = quat_mul(quat_conj(c_minus[0]), psi_h[0]) + quat_mul(quat_conj(c_minus[1]), psi_h[1])
    return FiberQuaternion(q_plus=q_plus, q_minus=q_minus, z=z[()], w=w[()],
                           gamma_plus=gamma_p[()], gamma_minus=gamma_m[()])


# ---------------------------------------------------------------------------
# base metric and closed-form curvature
# ---------------------------------------------------------------------------

def mfs_metric(c, chi, phi, theta, convention: str = SIN_ON_DTHETA) -> np.ndarray:
    """Quaternionic Fubini-Study metric on the base, in coordinates (C, chi, Phi, Theta).

    Diagonal with entries 1/(1-C^2) and C^2 on the first two coordinates; the
    (Phi, Theta) sector carries (1-C^2) weights placed according to the chart
    convention. The default convention is the one whose numeric scalar
    curvature reproduces ricci_closed (see resolve_chart_convention).
    Broadcasts over array coordinates to (..., 4, 4), each metric equal bit for
    bit to its own scalar call; a C outside [0, 1) is refused, the first in C order, and
    then a non-finite chi, Phi or Theta. Coordinates are read by the one real-number rule
    (simulator._real_array).
    """
    if convention not in CHART_CONVENTIONS:
        raise ValueError(f"unknown chart convention {convention!r}")
    c, chi, phi, theta = (_real_array(x, lambda v: f"chart coordinates must be real numbers, "
                                          f"got {v!r}") for x in (c, chi, phi, theta))
    bad = c[~((0.0 <= c) & (c < 1.0))]
    if bad.size:
        raise SingularityError(f"chart requires 0 <= C < 1, got {float(bad[0])!r}")
    for x in (chi, phi, theta):
        bad = x[~np.isfinite(x)]
        if bad.size:
            raise ValueError(f"chart coordinates must be finite, got {float(bad[0])!r}")
    h = 1.0 - c * c
    # libm pow, as ** 2 is on a numpy scalar; an array's ** 2 is a product, off in the last bit
    s2 = np.float_power(np.sin(theta), 2)
    gpp, gtt = (h, h * s2) if convention == SIN_ON_DTHETA else (h * s2, h)
    g = np.zeros(np.broadcast_shapes(*map(np.shape, (c, chi, phi, theta))) + (4, 4))
    for k, entry in enumerate((1.0 / h, c * c, gpp, gtt)):
        g[..., k, k] = entry
    return g


def ricci_closed(c) -> np.ndarray | float:
    """Universal closed-form scalar curvature R(C) = 2 (6 C^2 - 5)/(C^2 - 1), C real.

    A value that is not a real number, NaN included, raises ValueError; |C| >= 1 raises
    SingularityError. The first refused value in C order decides which."""
    c = _real_array(c, lambda v: f"concurrence must be a real number, got {v!r}")
    ok = np.abs(c) < 1.0  # false on NaN as on the pole
    if not ok.all():
        if np.isnan(c[~ok].flat[0]):
            raise ValueError("concurrence must be a real number, got nan")
        raise SingularityError("scalar curvature diverges at |C| = 1")
    r = 2.0 * (6.0 * c * c - 5.0) / (c * c - 1.0)
    return float(r) if np.ndim(r) == 0 else r


# ---------------------------------------------------------------------------
# numeric tensor calculus (independent oracle for every curvature claim)
# ---------------------------------------------------------------------------

MetricFn = Callable[[np.ndarray], np.ndarray]          # (n,) point -> (n, n) metric
StackedMetricFn = Callable[[np.ndarray], np.ndarray]   # (..., n) points -> (..., n, n)
FD_STEP = 1e-4  # central-difference step of the numeric tensor calculus


def _metric_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of one metric or of a stack; the error names the first nearly singular one."""
    smin = np.linalg.svd(g, compute_uv=False)[..., -1].ravel()
    bad = smin[smin <= 1e-10].tolist()
    if bad:
        raise ConditioningError(f"metric nearly singular: smallest singular value {bad[0]!r}")
    return np.linalg.inv(g)


def _shifted(x: np.ndarray, step: float) -> np.ndarray:
    """x, then x + step e_0, x - step e_0, x + step e_1, ...: (..., n) points give
    (..., 1 + 2n, n), each shift an `x[k] += step` on a copy of x."""
    n = x.shape[-1]
    out = np.repeat(x[..., None, :], 1 + 2 * n, axis=-2)
    k = np.arange(n)
    out[..., 1 + 2 * k, k] += step
    out[..., 2 + 2 * k, k] -= step
    return out


def _per_point(metric: MetricFn) -> StackedMetricFn:
    """A stacked metric that calls the per-point metric at each point, in C order."""
    return lambda x: np.array([np.asarray(metric(p), float) for p in x.reshape(-1, x.shape[-1])]
                              ).reshape(x.shape + x.shape[-1:])


def _christoffel_stack(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols (..., n, n, n) and inverse metric (..., n, n) at each centre,
    from its (..., 1 + 2n, n, n) metrics at _shifted(centre, FD_STEP)."""
    # einsum sums a non-contiguous stack in another order: the bits would depend on the caller
    g = np.ascontiguousarray(g, dtype=float)
    ginv = _metric_inverse(g[..., 0, :, :])
    dg = (g[..., 1::2, :, :] - g[..., 2::2, :, :]) / (2.0 * FD_STEP)  # [..., k]: d/dx_k of g
    gam = 0.5 * (np.einsum("...cd,...bda->...cab", ginv, dg)
                 + np.einsum("...cd,...adb->...cab", ginv, dg)
                 - np.einsum("...cd,...dab->...cab", ginv, dg))
    return 0.5 * (gam + np.swapaxes(gam, -2, -1)), ginv


def _points(values) -> np.ndarray:
    """Chart points as a float array, by the one real-number rule (simulator._real_array)."""
    return _real_array(values, lambda v: f"points must be real numbers, got {v!r}")


def christoffel(metric: MetricFn, point) -> np.ndarray:
    """Christoffel symbols Gamma^c_ab = 1/2 g^{cd} (g_da,b + g_db,a - g_ab,d).

    Partial derivatives of the metric are central differences of step
    FD_STEP. The returned array is indexed [c, a, b] and is symmetric in (a, b).
    """
    stencil = _shifted(_points(point), FD_STEP)
    return _christoffel_stack(_per_point(metric)(stencil))[0]


def scalar_curvature_stack(metric: StackedMetricFn, points) -> np.ndarray:
    """Scalar curvature at each of (P, n) points, from one call of a stacked metric.

    The metric maps (..., n) points to (..., n, n) metrics and is called once, on the
    (P, 1 + 4n, 1 + 2n, n) stencil: per point, the point and its centres at +-FD_STEP/2
    and at +-FD_STEP, each centre followed by its own +-FD_STEP neighbours. R is that of
    scalar_curvature_numeric at each point, bit for bit, when the metric's rows equal its
    per-point calls bit for bit. Returns a (P,) array.
    """
    points = _points(points)
    if points.ndim != 2:
        raise ValueError(f"expected a (P, n) array of points, got shape {points.shape}")
    n = points.shape[-1]
    centres = np.concatenate([_shifted(points, FD_STEP / 2.0),
                              _shifted(points, FD_STEP)[:, 1:]], axis=1)
    gam, ginv = _christoffel_stack(metric(_shifted(centres, FD_STEP)))
    ginv, gam0 = ginv[:, 0], gam[:, 0]
    diff = gam[:, 1::2] - gam[:, 2::2]  # d/dx_k for each k at step FD_STEP/2, then at FD_STEP
    dgam = (4.0 * (diff[:, :n] / (2.0 * (FD_STEP / 2.0))) - diff[:, n:] / (2.0 * FD_STEP)) / 3.0
    # point by point: an einsum over the point axis too sums in another order
    return np.array([np.einsum("ab,ccab->", gi, dg) - np.einsum("ab,bcac->", gi, dg)
                     + np.einsum("ab,dab,ccd->", gi, g0, g0) - np.einsum("ab,dac,cbd->", gi, g0, g0)
                     for gi, dg, g0 in zip(ginv, dgam, gam0)])


def scalar_curvature_numeric(metric: MetricFn, point) -> float:
    """Scalar curvature by nested central differencing of the Christoffel symbols.

    R = g^{ab} (Gamma^c_ab,c - Gamma^c_ac,b
                + Gamma^d_ab Gamma^c_cd - Gamma^d_ac Gamma^c_bd)

    The outer derivative uses steps (FD_STEP, FD_STEP/2) combined by
    Richardson extrapolation. This is scalar_curvature_stack at one point, with the
    per-point metric called at each stencil point in that stencil's order: the 1 + 4n
    Christoffel centres, the point first, each followed by its 2n neighbours.
    """
    return float(scalar_curvature_stack(_per_point(metric), _points(point)[None])[0])


def resolve_chart_convention(tol: float = 1e-3) -> tuple[str, dict]:
    """Find which chart convention's numeric curvature matches ricci_closed.

    Returns the matching convention name plus the max |numeric - closed|
    deviation per convention over the nine concurrences 0.1, 0.2, ..., 0.9.
    Exactly one convention is expected to match; a tie or an empty match raises.
    """
    c = np.arange(0.1, 0.91, 0.1)
    # generic chi, Phi, Theta away from coordinate poles
    points = np.stack(np.broadcast_arrays(c, 0.7, 1.1, 1.3), axis=-1)
    devs = {conv: float(np.abs(scalar_curvature_stack(_mfs_field(conv), points)
                               - ricci_closed(c)).max()) for conv in CHART_CONVENTIONS}
    matching = [k for k, v in devs.items() if v <= tol]
    if len(matching) != 1:
        raise RuntimeError(f"expected exactly one matching convention, deviations {devs}")
    return matching[0], devs


def _mfs_field(convention: str) -> StackedMetricFn:
    def metric(x: np.ndarray) -> np.ndarray:
        return mfs_metric(x[..., 0], x[..., 1], x[..., 2], x[..., 3], convention=convention)
    return metric
