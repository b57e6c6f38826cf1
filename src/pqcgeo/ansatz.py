"""The five two-qubit circuit families.

Each family is defined canonically by a closed-form map from its parameter
vector to a normalized statevector, and by a closed-form concurrence C. The
Jacobian column of a rotation angle is the map with that angle's (cos, sin)
replaced by (-sin, cos), or by (-sin/2, cos/2) for a half angle; a phase
angle's column is -i/2 times its diagonal generator times the state. A row's
bits do not depend on the batch it is in; a single vector is a one-row batch,
so it gets its batched row's bits. The per-circuit scalar curvature is the
universal R(C) of :func:`pqcgeo.geometry.ricci_closed` at that concurrence.

Closed-form state maps (notation C(x)=cos x, S(x)=sin x):

hea (4 params), amplitudes all real:
    a00 = C(t1) C(t3) C(t2+t4) - S(t1) S(t3) S(t2-t4)
    a01 = C(t1) C(t3) S(t2+t4) - S(t1) S(t3) C(t2-t4)
    a10 = C(t1) S(t3) C(t2+t4) + S(t1) C(t3) S(t2-t4)
    a11 = S(t1) C(t3) C(t2-t4) + C(t1) S(t3) S(t2+t4)

ldca (5 params), supported on |01>, |10>:
    e   = exp(-i (t1 - t2 - t4) / 2)
    a01 = e (C(t3) C(t5) - i S(t3) S(t5))
    a10 = -e (S(t5) C(t3) + i S(t3) C(t5))

qgan (5 params), half angles h = t/2:
    a00 =    exp(-i (t3+t4+t5)/2) C(h1) C(h2)
    a01 = -i exp(-i (t3-t4-t5)/2) C(h1) S(h2)
    a10 = -i exp(+i (t3-t4+t5)/2) S(h1) C(h2)
    a11 = -  exp(+i (t3+t4-t5)/2) S(h1) S(h2)

shea (6 params), half angles for t1..t3, quarter angle for t4:
    a00 = -i exp(-i (t5+t6)/2) C(h1) S(h2)
    a01 =    exp(-i (t5-t6)/2) (C(h1) C(h2) C(h3) - i S(h1) S(h2) S(h3))
    a10 =    exp(+i (t5-t6)/2) (-S(h1) S(h2) C(h3) + i C(h1) C(h2) S(h3))
    a11 = -i exp(-i (t4 - 2 (t5+t6)) / 4) S(h1) C(h2)

qgan-aug (9 params): the qgan state followed by R_X(t6), R_X(t7) and then
R_Z(t8), R_Z(t9) on qubits 1 and 2 respectively (half-angle rotations), each
applied along its qubit's axis of the amplitudes viewed as a 2 x 2 array.
"""
from __future__ import annotations

import numpy as np

from .geometry import ricci_closed
from .simulator import _real_array

HEA = "hea"
LDCA = "ldca"
QGAN = "qgan"
SHEA = "shea"
QGAN_AUG = "qgan-aug"

ANSATZE = (HEA, LDCA, QGAN, SHEA, QGAN_AUG)

_N_PARAMS = {HEA: 4, LDCA: 5, QGAN: 5, SHEA: 6, QGAN_AUG: 9}
THETA_MAX = np.finfo(float).max / 8  # no angle sum of a map overflows; the largest is 5 |theta|

# Index partitions defining the block-diagonal metric approximation.
# The appended local-rotation layers of qgan-aug block by circuit layer.
BLOCK_PARTITIONS = {
    HEA: ((0, 1), (2, 3)),
    LDCA: ((0, 1), (2,), (3,), (4,)),
    QGAN: ((0, 1), (2, 3), (4,)),
    SHEA: ((0, 1), (2,), (3,), (4, 5)),
    QGAN_AUG: ((0, 1), (2, 3), (4,), (5, 6), (7, 8)),
}


def resolve_kind(kind: str) -> str:
    if kind not in ANSATZE:
        raise ValueError(f"unknown ansatz {kind!r}; expected one of {ANSATZE}")
    return kind


def param_count(kind: str) -> int:
    return _N_PARAMS[resolve_kind(kind)]


def _check_theta(kind: str, theta) -> np.ndarray:
    """theta as a float array of shape (..., m), every value a real number
    (simulator._real) that is finite and at most THETA_MAX in size."""
    theta = _real_array(theta, lambda v: "parameters must be " + (
        "numbers, not text or bool" if isinstance(v, (bool, str, bytes)) else "real numbers")
        + f": got {v!r}")
    m = _N_PARAMS[kind]
    if theta.shape[-1:] != (m,):
        raise ValueError(f"{kind} takes {m} parameters, got shape {theta.shape}")
    if not np.all(np.abs(theta) <= THETA_MAX):
        raise ValueError(f"parameters must be finite and at most {THETA_MAX:.2g} in size")
    return theta


# ---------------------------------------------------------------------------
# state maps and Jacobians: each fills the zeroed state psi (B, 4) and
# Jacobian jac (B, 4, m) at the parameter rows t (B, m); only psi if jac is None.
# _<family>_amps writes the amplitudes once; each is linear in the (cos, sin) factors
# of every rotation angle, so putting their derivatives in gives that angle's column
# ---------------------------------------------------------------------------

def _columns(a):
    """View of a (..., k) array with the last axis first: a[..., 0], a[..., 1], ..."""
    return a.transpose(-1, *range(a.ndim - 1))


def _put(out, *entries):
    """out[..., k] = entries[k] for every k."""
    _columns(out)[...] = entries


def _hea_amps(c1, s1, c3, s3, cp, sp, cm, sm):
    return (c1 * c3 * cp - s1 * s3 * sm, c1 * c3 * sp - s1 * s3 * cm,
            c1 * s3 * cp + s1 * c3 * sm, s1 * c3 * cm + c1 * s3 * sp)


def _hea_state_jac(t, psi, jac):
    t1, t2, t3, t4 = _columns(t)
    c1, s1, c3, s3 = np.cos(t1), np.sin(t1), np.cos(t3), np.sin(t3)
    cp, sp = np.cos(t2 + t4), np.sin(t2 + t4)
    cm, sm = np.cos(t2 - t4), np.sin(t2 - t4)
    _put(psi, *_hea_amps(c1, s1, c3, s3, cp, sp, cm, sm))
    if jac is None:
        return
    _put(jac[..., 0], *_hea_amps(-s1, c1, c3, s3, cp, sp, cm, sm))
    _put(jac[..., 1], *_hea_amps(c1, s1, c3, s3, -sp, cp, -sm, cm))
    _put(jac[..., 2], *_hea_amps(c1, s1, -s3, c3, cp, sp, cm, sm))
    _put(jac[..., 3], *_hea_amps(c1, s1, c3, s3, -sp, cp, sm, -cm))


def _ldca_amps(e, c3, s3, c5, s5):
    # named: numpy runs e * (temporary of 256 KiB+) in place, swapping non-commuting operands
    a01, a10 = c3 * c5 - 1j * s3 * s5, -(s5 * c3 + 1j * s3 * c5)
    return e * a01, e * a10


def _ldca_state_jac(t, psi, jac):
    t1, t2, t3, t4, t5 = _columns(t)
    e = np.exp(-0.5j * (t1 - t2 - t4))
    c3, s3, c5, s5 = np.cos(t3), np.sin(t3), np.cos(t5), np.sin(t5)
    psi[..., 1], psi[..., 2] = _ldca_amps(e, c3, s3, c5, s5)
    if jac is None:
        return
    # t1, t2, t4 enter only through the overall phase
    jac[..., 0] = -0.5j * psi
    jac[..., 1] = 0.5j * psi
    jac[..., 3] = 0.5j * psi
    jac[..., 1, 2], jac[..., 2, 2] = _ldca_amps(e, -s3, c3, c5, s5)
    jac[..., 1, 4], jac[..., 2, 4] = _ldca_amps(e, c3, s3, -s5, c5)


_Z1_DIAG = np.array([1, 1, -1, -1], dtype=complex)
_Z2_DIAG = np.array([1, -1, 1, -1], dtype=complex)
_Z1Z2_DIAG = np.array([1, -1, -1, 1], dtype=complex)


def _qgan_amps(c1, s1, c2, s2, p00, p01, p10, p11):
    return p00 * c1 * c2, -1j * p01 * c1 * s2, -1j * p10 * s1 * c2, -p11 * s1 * s2


def _qgan_state_jac(t, psi, jac):
    t1, t2, t3, t4, t5 = _columns(t)
    c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
    c2, s2 = np.cos(t2 / 2), np.sin(t2 / 2)
    phases = (np.exp(-0.5j * (t3 + t4 + t5)), np.exp(-0.5j * (t3 - t4 - t5)),
              np.exp(0.5j * (t3 - t4 + t5)), np.exp(0.5j * (t3 + t4 - t5)))
    _put(psi, *_qgan_amps(c1, s1, c2, s2, *phases))
    if jac is None:
        return
    _put(jac[..., 0], *_qgan_amps(-s1 / 2, c1 / 2, c2, s2, *phases))
    _put(jac[..., 1], *_qgan_amps(c1, s1, -s2 / 2, c2 / 2, *phases))
    # t3, t4, t5 generate Z1, Z2, Z1Z2 phase patterns
    jac[..., 2] = -0.5j * psi * _Z1_DIAG
    jac[..., 3] = -0.5j * psi * _Z2_DIAG
    jac[..., 4] = -0.5j * psi * _Z1Z2_DIAG


def _shea_amps(c1, s1, c2, s2, c3, s3, pa, pb, pg, pd):
    b, g = c1 * c2 * c3 - 1j * s1 * s2 * s3, -s1 * s2 * c3 + 1j * c1 * c2 * s3  # named, as in ldca
    return -1j * pa * c1 * s2, pb * b, pg * g, -1j * pd * s1 * c2


def _shea_state_jac(t, psi, jac):
    t1, t2, t3, t4, t5, t6 = _columns(t)
    c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
    c2, s2 = np.cos(t2 / 2), np.sin(t2 / 2)
    c3, s3 = np.cos(t3 / 2), np.sin(t3 / 2)
    phases = (np.exp(-0.5j * (t5 + t6)), np.exp(-0.5j * (t5 - t6)),
              np.exp(0.5j * (t5 - t6)), np.exp(-0.25j * (t4 - 2 * (t5 + t6))))
    _put(psi, *_shea_amps(c1, s1, c2, s2, c3, s3, *phases))
    if jac is None:
        return
    _put(jac[..., 0], *_shea_amps(-s1 / 2, c1 / 2, c2, s2, c3, s3, *phases))
    _put(jac[..., 1], *_shea_amps(c1, s1, -s2 / 2, c2 / 2, c3, s3, *phases))
    # t3 enters only |01> and |10>
    jac[..., 1, 2], jac[..., 2, 2] = _shea_amps(c1, s1, c2, s2, -s3 / 2, c3 / 2, *phases)[1:3]
    jac[..., 3, 3] = -0.25j * psi[..., 3]
    jac[..., 4] = -0.5j * psi * _Z1_DIAG
    jac[..., 5] = -0.5j * psi * _Z2_DIAG


def _qgan_aug_state_jac(t, psi, jac):
    # the qgan state and its Jacobian columns side by side, amplitude |ij> at [..., i, j, :]
    v = np.zeros(psi.shape + (1 if jac is None else 6,), dtype=complex)
    _qgan_state_jac(t[..., :5], v[..., 0], None if jac is None else v[..., 1:])
    v = v.reshape(psi.shape[:-1] + (2, 2, -1))
    # R_Z(t8), R_Z(t9), applied last: the phase exp(-i t z / 2), z = +-1 along its qubit's axis
    z = np.array([1, -1], dtype=complex)
    rz = (np.exp(-0.5j * t[..., 7, None] * z)[..., :, None]
          * np.exp(-0.5j * t[..., 8, None] * z)[..., None, :])
    # R_X(t6), R_X(t7): cos(t/2) - i sin(t/2) X, where X reverses its qubit's axis
    half = _columns(t[..., 5:7])[..., None, None, None] / 2
    cos, msin = np.cos(half), -1j * np.sin(half)
    x_v = np.empty_like(v)
    for q, reversed_v in enumerate((v[..., ::-1, :, :], v[..., ::-1, :])):
        np.multiply(msin[q], reversed_v, out=x_v)
        v *= cos[q]
        v += x_v
    psi = np.multiply(rz, v[..., 0], out=psi.reshape(rz.shape))
    if jac is None:
        return
    jac = jac.reshape(rz.shape + (9,))
    np.multiply(rz[..., None], v[..., 1:], out=jac[..., :5])
    # d R_X(t) / dt = -i/2 X R_X(t) and d R_Z(t) / dt = -i/2 Z R_Z(t)
    jac[..., 5] = -0.5j * v[..., ::-1, :, 0] * rz
    jac[..., 6] = -0.5j * v[..., ::-1, 0] * rz
    jac[..., 7] = -0.5j * z[:, None] * psi
    jac[..., 8] = -0.5j * z * psi


_STATE_JAC = {
    HEA: _hea_state_jac,
    LDCA: _ldca_state_jac,
    QGAN: _qgan_state_jac,
    SHEA: _shea_state_jac,
    QGAN_AUG: _qgan_aug_state_jac,
}


def _evaluate(kind: str, theta, with_jac: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The checked entry point of the maps: any (..., m) parameters, through _check_theta."""
    kind = resolve_kind(kind)
    t = _check_theta(kind, theta)
    lead, m = t.shape[:-1], t.shape[-1]
    # the maps see (B, m) rows only: numpy scalars round complex products otherwise
    psi, jac = _evaluate_rows(kind, t.reshape(-1, m), with_jac)
    return psi.reshape(lead + (4,)), None if jac is None else jac.reshape(lead + (4, m))


def _evaluate_rows(kind: str, rows: np.ndarray,
                   with_jac: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The (B, 4) states and (B, 4, m) Jacobians of a resolved family at (B, m) float rows
    that _check_theta would pass, unchecked; the same bits as through _evaluate. The
    optimizer calls it directly: it checks theta0 once and bounds every update itself."""
    psi = np.zeros((len(rows), 4), dtype=complex)
    jac = np.zeros((len(rows), 4, rows.shape[-1]), dtype=complex) if with_jac else None
    _STATE_JAC[kind](rows, psi, jac)
    return psi, jac


def prepare_state(kind: str, theta) -> np.ndarray:
    """Normalized statevector(s): (..., m) parameters give (..., 4) amplitudes."""
    return _evaluate(kind, theta, with_jac=False)[0]


def state_jacobian(kind: str, theta) -> np.ndarray:
    """Analytic (..., 4, m) Jacobian; column j is d|psi>/d theta_j."""
    return _evaluate(kind, theta)[1]


def state_and_jacobian(kind: str, theta) -> tuple[np.ndarray, np.ndarray]:
    """The (..., 4) state and its (..., 4, m) Jacobian from one evaluation."""
    return _evaluate(kind, theta)


# ---------------------------------------------------------------------------
# closed-form concurrence and scalar curvature
# ---------------------------------------------------------------------------

def _concurrence(kind: str, t):
    """Closed-form concurrence at the validated parameter columns t, which need only
    broadcast together, clipped to [0, 1]. np.square, not ** 2: on a numpy scalar,
    ** 2 is pow(), which can differ from the x * x of an array in the last bit."""
    if kind == HEA:
        c = np.abs(np.sin(2 * t[0]) * np.cos(2 * t[1]))
    elif kind == LDCA:
        inner = 3.0 - 2.0 * np.cos(4 * t[2]) * np.square(np.cos(2 * t[4])) - np.cos(4 * t[4])
        c = 0.5 * np.sqrt(np.clip(inner, 0.0, None))
    elif kind in (QGAN, QGAN_AUG):
        # appended single-qubit rotations of qgan-aug leave the concurrence alone
        c = np.abs(np.sin(t[0]) * np.sin(t[1]) * np.sin(t[4]))
    else:
        a = (np.square(np.sin(t[0])) * np.square(np.sin(t[1]))
             * np.square(np.cos(t[2]) - np.cos(t[3] / 4)))
        b = np.square(np.sin(t[2]) * (np.cos(t[0]) * np.cos(t[1]) + 1)
                      - np.sin(t[0]) * np.sin(t[1]) * np.sin(t[3] / 4))
        c = 0.5 * np.sqrt(a + b)
    return np.clip(c, 0.0, 1.0)


def concurrence_closed(kind: str, theta) -> np.ndarray | float:
    """Closed-form concurrence; broadcasts over leading axes of theta."""
    kind = resolve_kind(kind)
    c = _concurrence(kind, _columns(_check_theta(kind, theta)))
    return float(c) if np.ndim(c) == 0 else c


def ricci_circuit_grid(kind: str, theta) -> np.ndarray | float:
    """Vectorized per-circuit curvature R(C); C = 1 evaluates to -inf instead of raising."""
    kind = resolve_kind(kind)
    r = _ricci(kind, _columns(_check_theta(kind, theta)))
    return float(r) if np.ndim(r) == 0 else r


def _ricci(kind: str, t):
    """R(C) at the validated parameter columns t, which need only broadcast together;
    -inf on the C = 1 pole."""
    c = _concurrence(kind, t)
    pole = c == 1.0
    return np.where(pole, -np.inf, ricci_closed(np.where(pole, 0.0, c)))


def random_parameters(kind: str, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the canonical initialization domain [0, 2 pi)^m."""
    return rng.uniform(0.0, 2.0 * np.pi, size=param_count(kind))
