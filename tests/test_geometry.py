import warnings

import numpy as np
import pytest

from pqcgeo import ansatz, geometry as geo, qgt
from pqcgeo.ansatz import HEA, LDCA, QGAN
from pqcgeo.geometry import SingularityError

RNG_SEED = 20260808


def _random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


# --- concurrence ---

def test_concurrence_examples():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert geo.concurrence(bell) == pytest.approx(1.0, abs=1e-15)
    assert geo.concurrence(np.array([0, 1, 0, 0], dtype=complex)) == 0.0
    # probabilities 0.47 / 0.53 on |01>, |10> give C = 2 sqrt(0.47 * 0.53)
    psi = np.array([0, np.sqrt(0.47), np.sqrt(0.53), 0])
    assert geo.concurrence(psi) == pytest.approx(2 * np.sqrt(0.47 * 0.53), abs=1e-12)
    assert geo.concurrence(psi) == pytest.approx(0.9982, abs=5e-5)


# --- base coordinates ---

def test_hopf_base_of_00():
    base = geo.hopf_base(np.array([1, 0, 0, 0], dtype=complex))
    assert np.abs(base.x - np.array([1, 0, 0, 0, 0])).max() < 1e-15
    assert base.theta_a == 0.0
    assert base.phi_a is None and base.chi is None and base.xi is None
    assert set(base.singular) == {"phi_a", "chi", "xi"}


def test_hopf_base_of_bell_state():
    base = geo.hopf_base(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.abs(base.x - np.array([0, 0, 0, 1, 0])).max() < 1e-15
    assert base.xi == pytest.approx(np.pi / 2)  # atan2(x3=1, x2=0)


def test_base_embedding_and_concurrence_identity():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10_000):
        v = _random_state(rng)
        x = geo.base_coordinates(v)
        assert abs(float(x @ x) - 1.0) < 1e-9
        assert abs(np.hypot(x[2], x[3]) - geo.concurrence(v)) < 1e-9


def test_angle_reconstruction_roundtrip():
    # where no chart singularity occurs, the intrinsic angles rebuild x
    rng = np.random.default_rng(RNG_SEED + 1)
    done = 0
    while done < 500:
        v = _random_state(rng)
        b = geo.hopf_base(v)
        if b.singular:
            continue
        st, sp = np.sin(b.theta_a), np.sin(b.phi_a)
        rebuilt = np.array([np.cos(b.theta_a),
                            st * np.cos(b.phi_a),
                            np.hypot(b.x[2], b.x[3]) * np.cos(b.xi),
                            np.hypot(b.x[2], b.x[3]) * np.sin(b.xi),
                            st * sp * np.cos(b.chi)])
        assert np.abs(rebuilt - b.x[[0, 1, 2, 3, 4]]).max() < 1e-9
        done += 1


# --- fiber quaternions ---

def test_quaternion_algebra():
    i, j, k = geo.quat(0, 1), geo.quat(0, 0, 1), geo.quat(0, 0, 0, 1)
    assert np.array_equal(geo.quat_mul(i, j), k)
    assert np.array_equal(geo.quat_mul(j, k), i)
    assert np.array_equal(geo.quat_mul(i, i), -geo.quat(1))
    q = geo.quat(0.3, -0.4, 0.5, 0.1)
    assert geo.quat_norm2(geo.quat_mul(q, geo.quat_conj(q))) == pytest.approx(geo.quat_norm2(q) ** 2)


def test_fiber_of_00_by_hand():
    # alpha = 1: z = w = 0, gamma+ = sqrt(2), gamma- = 0, psi_H = (1, 0),
    # so q+ = gamma+/sqrt(2) = 1 and q- = 0.
    f = geo.hopf_fiber(np.array([1, 0, 0, 0], dtype=complex))
    assert np.abs(f.q_plus - geo.quat(1)).max() < 1e-15
    assert np.abs(f.q_minus).max() < 1e-15
    assert f.gamma_plus == pytest.approx(np.sqrt(2))
    assert f.gamma_minus == 0.0


def test_fiber_norms_partition_unity():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(10_000):
        f = geo.hopf_fiber(_random_state(rng))
        assert abs(geo.quat_norm2(f.q_plus) + geo.quat_norm2(f.q_minus) - 1.0) < 1e-9


# tabulated closed-form fiber quaternions for three circuit families,
# used as cross-oracles for the generic chart-overlap extraction

def _hea_fiber_closed(t):
    t1, t2, t3, t4 = t
    l1 = np.sqrt(2 * np.sin(4 * t1) * np.sin(2 * t2) * np.sin(4 * t3)
                 + 4 * np.sin(2 * t1) ** 2 * (np.cos(2 * t2) ** 2
                                              + np.sin(2 * t2) ** 2 * np.cos(2 * t3) ** 2)
                 + 4 * np.sin(2 * t3) ** 2 * np.cos(2 * t1) ** 2)
    l2 = np.sqrt(np.sin(4 * t1) * np.sin(2 * t2) * np.sin(4 * t3)
                 + 2 * np.sin(2 * t1) ** 2 * (np.cos(2 * t2) ** 2
                                              + np.sin(2 * t2) ** 2 * np.cos(2 * t3) ** 2)
                 + 2 * np.sin(2 * t3) ** 2 * np.cos(2 * t1) ** 2)
    l3 = 2 * np.sin(2 * t1) * np.sin(2 * t2) * np.sin(2 * t3) \
        - 2 * np.cos(2 * t1) * np.cos(2 * t3) + 2
    inner = 1 - 0.25 * np.sin(2 * t1) ** 2 * np.cos(2 * t2) ** 2 \
        - 0.25 * (np.sin(2 * t1) * np.sin(2 * t2) * np.cos(2 * t3)
                  + np.sin(2 * t3) * np.cos(2 * t1)) ** 2
    gp, gm = np.sqrt(1 + np.sqrt(inner)), np.sqrt(max(0.0, 1 - np.sqrt(inner)))
    a00 = np.cos(t1) * np.cos(t3) * np.cos(t2 + t4) - np.sin(t1) * np.sin(t3) * np.sin(t2 - t4)
    a01 = np.sin(t2 + t4) * np.cos(t1) * np.cos(t3) - np.sin(t1) * np.sin(t3) * np.cos(t2 - t4)

    def q(first, second):
        e = a00 * (l3 * second + l1 * first)
        f = -a01 * (-l3 * second - l1 * first)
        return np.array([e, 0.0, f, 0.0]) / (2 * l2)

    return q(gp, gm), q(gm, gp)


def _ldca_fiber_closed(t):
    t1, t2, t3, t4, t5 = t
    mu1 = np.sqrt(-2 * np.cos(4 * t3) * np.cos(2 * t5) ** 2 - np.cos(4 * t5) + 3)
    mu2 = 2 - 2 * np.cos(2 * t3) * np.cos(2 * t5)
    mu3 = 2 * (-2 * np.cos(4 * t3) * np.cos(2 * t5) ** 2 - np.cos(4 * t5) + 3)
    half = 0.5 * (t1 - t2 - t4)
    gfac = np.cos(t3) * np.cos(half) * np.cos(t5) - np.sin(t3) * np.sin(half) * np.sin(t5)
    hfac = np.sin(half) * np.cos(t3) * np.cos(t5) + np.sin(t3) * np.sin(t5) * np.cos(half)
    inner = np.cos(4 * t5) + np.cos(4 * t3) * (np.cos(4 * t5) + 1) + 13
    gp, gm = 0.5 * np.sqrt(4 + np.sqrt(inner)), 0.5 * np.sqrt(max(0.0, 4 - np.sqrt(inner)))

    def q(first, second):
        g = gfac * (mu1 * first + mu2 * second)
        h = hfac * (-mu1 * first - mu2 * second)
        return np.array([0.0, 0.0, g, h]) / np.sqrt(mu3)

    return q(gp, gm), q(gm, gp)


def _qgan_fiber_closed(t):
    t1, t2, t3, t4, t5 = t
    gp = 0.5 * np.sqrt(4 + np.sqrt(14 + 2 * np.cos(2 * t1)))
    gm = 0.5 * np.sqrt(max(0.0, 4 - np.sqrt(14 + 2 * np.cos(2 * t1))))
    a = np.cos(t2 / 2) * np.cos((t3 + t4 + t5) / 2)
    b = -np.cos(t2 / 2) * np.sin((t3 + t4 + t5) / 2)
    c = -np.sin(t2 / 2) * np.sin((t3 - t4 - t5) / 2)
    d = -np.sin(t2 / 2) * np.cos((t3 - t4 - t5) / 2)
    core = np.array([a, b, c, d])

    def q(first, second):
        return (np.sin(t1 / 2) * second + np.cos(t1 / 2) * first) * core / np.sqrt(2)

    return q(gp, gm), q(gm, gp)


@pytest.mark.parametrize("kind,closed", [(HEA, _hea_fiber_closed),
                                         (LDCA, _ldca_fiber_closed),
                                         (QGAN, _qgan_fiber_closed)])
def test_fiber_closed_forms_match_chart_overlap_extraction(kind, closed):
    # The tabulated closed forms use the chart-overlap branch convention;
    # they agree with the generic extractor in that convention up to a global
    # sign per branch. Chart-singular parameter draws are skipped (the closed
    # forms divide by quantities that vanish there), and qgan's form is tied
    # to the principal branch theta_1 in (0, pi): beyond it sin(theta_1) flips
    # the fiber direction u, a branch mismatch we document rather than patch.
    rng = np.random.default_rng(RNG_SEED + 3)
    checked = 0
    while checked < 100:
        theta = ansatz.random_parameters(kind, rng)
        if kind == QGAN:
            theta[0] = rng.uniform(0.05, np.pi - 0.05)
        state = ansatz.prepare_state(kind, theta)
        c = geo.concurrence(state)
        x0 = geo.base_coordinates(state)[0]
        if c < 0.05 or c > 0.95 or abs(x0) > 0.95:
            continue
        qp_c, qm_c = closed(theta)
        fib = geo.hopf_fiber(state, convention=geo.FRAME_CHART)
        dp = min(np.abs(fib.q_plus - qp_c).max(), np.abs(fib.q_plus + qp_c).max())
        dm = min(np.abs(fib.q_minus - qm_c).max(), np.abs(fib.q_minus + qm_c).max())
        assert max(dp, dm) < 1e-8
        checked += 1


def test_fiber_circuit_coordinate_zeros():
    # ldca states have x1 = x4 = 0 and qgan states have x3 = 0
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(1000):
        x = geo.base_coordinates(ansatz.prepare_state(LDCA, ansatz.random_parameters(LDCA, rng)))
        assert max(abs(x[1]), abs(x[4])) < 1e-9
        x = geo.base_coordinates(ansatz.prepare_state(QGAN, ansatz.random_parameters(QGAN, rng)))
        assert abs(x[3]) < 1e-9


# --- base metric ---

def test_mfs_metric_at_zero_concurrence():
    g = geo.mfs_metric(0.0, 0.3, 0.4, 0.9, convention=geo.SIN_ON_DTHETA)
    assert np.abs(g - np.diag([1, 0, 1, np.sin(0.9) ** 2])).max() < 1e-15


def test_mfs_metric_at_c_half_sqrt2():
    g = geo.mfs_metric(1 / np.sqrt(2), 0.3, 0.4, 0.9)
    assert g[0, 0] == pytest.approx(2.0)
    assert g[1, 1] == pytest.approx(0.5)


def test_mfs_metric_determinant_positive():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(200):
        c = rng.uniform(0.01, 0.99)
        theta = rng.uniform(0.1, np.pi - 0.1)
        for conv in geo.CHART_CONVENTIONS:
            g = geo.mfs_metric(c, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi),
                               theta, convention=conv)
            assert np.linalg.det(g) > 0


def test_mfs_metric_rejects_singular_chart():
    with pytest.raises(SingularityError):
        geo.mfs_metric(1.0, 0, 0, 0.5)


# --- numeric tensor calculus ---

def test_christoffel_flat_space():
    gam = geo.christoffel(lambda x: np.eye(2), np.array([0.3, 0.4]))
    assert np.abs(gam).max() < 1e-10


def test_christoffel_round_sphere_textbook_value():
    # Gamma^theta_phiphi = -sin(theta) cos(theta) on diag(1, sin^2 theta)
    s2 = lambda x: np.diag([1.0, np.sin(x[0]) ** 2])
    gam = geo.christoffel(s2, np.array([np.pi / 3, 0.2]))
    assert gam[0, 1, 1] == pytest.approx(-np.sin(np.pi / 3) * np.cos(np.pi / 3), abs=1e-6)
    assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() == 0.0


def test_christoffel_conditioning_error():
    with pytest.raises(geo.ConditioningError):
        geo.christoffel(lambda x: np.diag([1.0, 1e-14]), np.array([0.1, 0.2]))


def test_scalar_curvature_unit_sphere():
    s2 = lambda x: np.diag([1.0, np.sin(x[0]) ** 2])
    for theta in np.linspace(0.4, np.pi - 0.4, 20):
        assert geo.scalar_curvature_numeric(s2, np.array([theta, 0.3])) == \
            pytest.approx(2.0, abs=1e-4)


def test_scalar_curvature_flat():
    assert abs(geo.scalar_curvature_numeric(lambda x: np.eye(4),
                                            np.array([0.1, 0.2, 0.3, 0.4]))) < 1e-6


def test_scalar_curvature_mfs_at_half():
    metric = lambda x: geo.mfs_metric(x[0], x[1], x[2], x[3])
    r = geo.scalar_curvature_numeric(metric, np.array([0.5, 0.7, 1.1, 1.3]))
    assert r == pytest.approx(28.0 / 3.0, abs=1e-3)


def _reference_christoffel(metric, point):
    """christoffel as it was, with its own central-difference loop."""
    point = np.asarray(point, dtype=float)
    d = point.size
    ginv = geo._metric_inverse(np.asarray(metric(point), dtype=float))
    dg, h = np.empty((d, d, d)), geo.FD_STEP
    for k in range(d):
        xp, xm = point.copy(), point.copy()
        xp[k] += h
        xm[k] -= h
        dg[k] = (np.asarray(metric(xp), float) - np.asarray(metric(xm), float)) / (2.0 * h)
    gam = 0.5 * (np.einsum("cd,bda->cab", ginv, dg)
                 + np.einsum("cd,adb->cab", ginv, dg)
                 - np.einsum("cd,dab->cab", ginv, dg))
    return 0.5 * (gam + np.swapaxes(gam, 1, 2))


def _reference_scalar_curvature(metric, point):
    """scalar_curvature_numeric as it was, with its own dgamma loop."""
    point = np.asarray(point, dtype=float)
    d = point.size
    ginv = geo._metric_inverse(np.asarray(metric(point), dtype=float))
    gam = _reference_christoffel(metric, point)

    def dgamma(step):
        out = np.empty((d, d, d, d))
        for k in range(d):
            xp, xm = point.copy(), point.copy()
            xp[k] += step
            xm[k] -= step
            out[k] = (_reference_christoffel(metric, xp)
                      - _reference_christoffel(metric, xm)) / (2.0 * step)
        return out

    dgam = (4.0 * dgamma(geo.FD_STEP / 2.0) - dgamma(geo.FD_STEP)) / 3.0
    r = (np.einsum("ab,ccab->", ginv, dgam)
         - np.einsum("ab,bcac->", ginv, dgam)
         + np.einsum("ab,dab,ccd->", ginv, gam, gam)
         - np.einsum("ab,dac,cbd->", ginv, gam, gam))
    return float(r)


def test_shared_central_difference_matches_the_loops_it_replaced():
    # both chart conventions at the nine concurrences of resolve_chart_convention, bit for bit
    for conv in geo.CHART_CONVENTIONS:
        metric = geo._mfs_field(conv)
        for c in np.arange(0.1, 0.91, 0.1):
            point = np.array([c, 0.7, 1.1, 1.3])
            assert np.array_equal(geo.christoffel(metric, point),
                                  _reference_christoffel(metric, point))
            assert geo.scalar_curvature_numeric(metric, point) == \
                _reference_scalar_curvature(metric, point)
    s2 = lambda x: np.diag([1.0, np.sin(x[0]) ** 2])
    for theta in np.linspace(0.4, np.pi - 0.4, 20):
        point = np.array([theta, 0.3])
        assert geo.scalar_curvature_numeric(s2, point) == _reference_scalar_curvature(s2, point)


def _spd_field(n, seed):
    """A smooth, seeded, non-diagonal SPD metric field a(x) a(x)^T + n I."""
    rng = np.random.default_rng(seed)
    w, b = rng.normal(size=(n, n, n)), rng.normal(size=(n, n))

    def metric(x):
        a = np.sin(w @ x + b)
        return a @ a.T + n * np.eye(n)
    return metric


def _logged(metric):
    log = []

    def logged(x):
        log.append(x.tobytes())
        return metric(x)
    return logged, log


# shea's dense metric kept lambda_min below 3.1e-3 over 400 seeded draws and a
# local search; SHEA_DRAW gives 2.9e-3, and qgan's seed-0 draw 8.4e-2
SHEA_DRAW = 194


@pytest.mark.parametrize("field", ["spd-3", "spd-4", "shea", "qgan"])
def test_stacked_stencil_matches_the_loops_on_non_diagonal_metrics(field):
    # on a diagonal metric a swapped index of a stacked contraction can go unseen
    if field.startswith("spd"):
        n = int(field[-1])
        metric, points = _spd_field(n, seed=1), np.random.default_rng(2).uniform(-1, 1, (3, n))
    else:
        seed = SHEA_DRAW if field == "shea" else 0
        points = ansatz.random_parameters(field, np.random.default_rng(seed))[None]
        metric = lambda x: qgt.fs_metric(field, x)
        assert np.linalg.eigvalsh(metric(points[0]))[0] >= 2e-3
    for point in points:
        assert np.abs(metric(point) - np.diag(np.diag(metric(point)))).max() > 1e-2
        n = point.size
        logged, log = _logged(metric)
        ref_logged, ref_log = _logged(metric)
        assert np.array_equal(geo.christoffel(logged, point),
                              _reference_christoffel(ref_logged, point))
        assert len(log) == 1 + 2 * n and log == ref_log
        log.clear(), ref_log.clear()
        assert geo.scalar_curvature_numeric(logged, point) == \
            _reference_scalar_curvature(ref_logged, point)
        # one metric call fewer: the point's inverse metric is its stencil's first
        assert len(log) == (1 + 4 * n) * (1 + 2 * n) and log == ref_log[1:]


@pytest.mark.parametrize("engine, theta", [("scalar_curvature_numeric", geo.FD_STEP),
                                           ("scalar_curvature_numeric", 1e-6),
                                           ("christoffel", 1e-6)])
def test_stacked_stencil_raises_the_loops_conditioning_error(engine, theta):
    # one Christoffel centre is singular: theta - FD_STEP = 0, or the point itself
    reference = {"christoffel": _reference_christoffel,
                 "scalar_curvature_numeric": _reference_scalar_curvature}[engine]
    s2 = lambda x: np.diag([1.0, np.sin(x[0]) ** 2])
    point = np.array([theta, 0.3])
    with pytest.raises(geo.ConditioningError) as ref:
        reference(s2, point)
    with pytest.raises(geo.ConditioningError) as got:
        getattr(geo, engine)(s2, point)
    assert str(got.value) == str(ref.value)


def _stacked(metric):
    """The metric called once per stack, with the shape of each call logged."""
    shapes = []

    def stacked(x):
        shapes.append(x.shape)
        return metric(x)
    return stacked, shapes


@pytest.mark.parametrize("kind", ["shea", "qgan", "qgan-aug"])
def test_stacked_curvature_is_bit_equal_to_the_per_point_path_on_fs_metrics(kind):
    seed = SHEA_DRAW if kind == "shea" else 0
    theta = ansatz.random_parameters(kind, np.random.default_rng(seed))
    if kind == "qgan-aug":
        # theta_1..theta_6 with the rest held: fancy indexing leaves the stack non-contiguous
        idx = np.arange(6)

        def metric(x):
            full = np.broadcast_to(theta, x.shape[:-1] + theta.shape).copy()
            full[..., idx] = x
            return qgt.fs_metric(kind, full)[..., idx, :][..., :, idx]
        points = np.stack([theta[idx], theta[idx] + 0.1])
        assert not metric(points).flags.c_contiguous
    else:
        metric = lambda x: qgt.fs_metric(kind, x)
        points = np.stack([theta, theta + 0.1])
    n = points.shape[1]
    counted, shapes = _stacked(metric)
    r = geo.scalar_curvature_stack(counted, points)
    assert shapes == [(2, 1 + 4 * n, 1 + 2 * n, n)]
    assert r.tolist() == [geo.scalar_curvature_numeric(metric, p) for p in points]


def test_scalar_curvature_stack_takes_a_two_dimensional_array_of_points():
    flat = lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))
    assert geo.scalar_curvature_stack(flat, [[0.1, 0.2], [0.3, 0.4]]).tolist() == [0.0, 0.0]
    for points in ([0.1, 0.2], [[[0.1, 0.2]]]):
        with pytest.raises(ValueError, match=r"^expected a \(P, n\) array of points, got shape"):
            geo.scalar_curvature_stack(flat, points)


def _two_zeros(x):
    """diag(1, 1e8 (x_0 (x_0 - FD_STEP/2))^2) at (..., 2) points. At x_0 = FD_STEP/2 + 1e-5
    it is nearly singular at two Christoffel centres, the point and its x_0 - FD_STEP/2,
    and the point's is the larger smallest singular value."""
    y = 1e4 * x[..., 0] * (x[..., 0] - geo.FD_STEP / 2.0)  # a product: ** 2 rounds otherwise
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0], g[..., 1, 1] = 1.0, y * y
    return g


def test_stacked_curvature_raises_the_first_conditioning_error_by_point_then_loop_order():
    point = np.array([geo.FD_STEP / 2.0 + 1e-5, 0.3])
    messages = []
    for bad in (point, [1e-6, 0.3]), ([1e-6, 0.3], point):
        points = np.array([[0.5, 0.3], *bad])
        with pytest.raises(geo.ConditioningError) as ref:
            _reference_scalar_curvature(_two_zeros, points[1])
        counted, shapes = _stacked(_two_zeros)
        with pytest.raises(geo.ConditioningError) as got:
            geo.scalar_curvature_stack(counted, points)
        assert str(got.value) == str(ref.value) and len(shapes) == 1
        messages.append(str(ref.value))
    assert messages[0] != messages[1]
    # the point's own value, though a later centre's is smaller
    centre = point.copy()
    centre[0] -= geo.FD_STEP / 2.0
    own, later = _two_zeros(point)[1, 1], _two_zeros(centre)[1, 1]
    assert later < own <= 1e-10 and messages[0].endswith(f" {float(own)!r}")


def test_a_stack_reaching_the_pole_is_refused_with_its_first_plain_float_c():
    metric = geo._mfs_field(geo.SIN_ON_DTHETA)
    for first_bad, message in ((1.0, "got 1.0"), (1.0 - 1e-5, "got 1.0000900000000001")):
        points = np.array([[0.5, 0.7, 1.1, 1.3], [first_bad, 0.7, 1.1, 1.3], [1.0, 0.7, 1.1, 1.3]])
        with pytest.raises(SingularityError) as ref:
            geo.scalar_curvature_numeric(metric, points[1])
        with pytest.raises(SingularityError) as got:
            geo.scalar_curvature_stack(metric, points)
        assert str(got.value) == str(ref.value) == f"chart requires 0 <= C < 1, {message}"


def test_mfs_metric_stacks_equal_its_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED + 6)
    x = rng.uniform(0.0, 1.0, (20000, 4)) * [1.0, 2 * np.pi, 2 * np.pi, 2 * np.pi]
    # draws where an array's ** 2 differs from a numpy scalar's, which calls pow()
    sin = np.sin(x[:, 3])
    assert np.count_nonzero(sin ** 2 != np.array([s ** 2 for s in sin])) > 0
    for conv in geo.CHART_CONVENTIONS:
        stacked = geo.mfs_metric(x[:, 0], x[:, 1], x[:, 2], x[:, 3], convention=conv)
        per_point = [geo.mfs_metric(*p, convention=conv) for p in x]
        assert stacked.tobytes() == np.array(per_point).tobytes()


def test_resolve_chart_convention_matches_its_per_point_loop():
    # the loop it replaced: one scalar_curvature_numeric call per concurrence
    expected = {}
    for conv in geo.CHART_CONVENTIONS:
        metric = lambda x: geo.mfs_metric(x[0], x[1], x[2], x[3], convention=conv)
        expected[conv] = max(abs(geo.scalar_curvature_numeric(metric, np.array([c, 0.7, 1.1, 1.3]))
                                 - geo.ricci_closed(c)) for c in np.arange(0.1, 0.91, 0.1))
    assert geo.resolve_chart_convention() == (geo.SIN_ON_DTHETA, expected)


def test_chart_convention_resolution():
    conv, devs = geo.resolve_chart_convention()
    assert conv == geo.SIN_ON_DTHETA
    assert devs[geo.SIN_ON_DTHETA] <= 1e-3
    assert devs[geo.SIN_ON_DPHI] > 1e-3


# --- closed-form curvature ---

def test_ricci_closed_spot_values():
    assert geo.ricci_closed(0.0) == pytest.approx(10.0, abs=1e-15)
    assert geo.ricci_closed(1 / np.sqrt(2)) == pytest.approx(8.0, abs=1e-12)
    assert geo.ricci_closed(np.sqrt(5.0 / 6.0)) == pytest.approx(0.0, abs=1e-12)


def test_ricci_closed_singularity():
    with pytest.raises(SingularityError):
        geo.ricci_closed(1.0)


def test_ricci_closed_refuses_what_is_not_a_real_number():
    # "0.5" gave 9.333..., [0.5, "0.2"] was parsed and 0.5 + 1j raised TypeError
    for c, got in (("0.5", "'0.5'"), ([0.5, "0.2"], "'0.2'"), (0.5 + 1j, "(0.5+1j)")):
        with pytest.raises(ValueError) as exc:
            geo.ricci_closed(c)
        assert str(exc.value) == f"concurrence must be a real number, got {got}"
    assert (geo.ricci_closed([0.5, np.float32(0.25)]).tolist()
            == geo.ricci_closed([0.5, 0.25]).tolist())


def test_ricci_closed_refuses_nan_and_keeps_the_pole_error():
    # NaN, alone or as an entry, went through as NaN: |NaN| >= 1 is false
    for c in (np.nan, [0.5, np.nan], np.array([[0.1, np.nan], [0.2, 0.3]])):
        with pytest.raises(ValueError, match="^concurrence must be a real number, got nan$") as exc:
            geo.ricci_closed(c)
        assert type(exc.value) is ValueError
    with pytest.raises(SingularityError):
        geo.ricci_closed([0.5, -1.0, np.nan])  # the first refused value decides
    with pytest.raises(ValueError, match="got nan"):
        geo.ricci_closed([np.nan, 1.0])


def test_chart_metric_and_stacked_curvature_refuse_values_that_are_not_real_numbers():
    # text points were parsed (R = 9.33), a text C raised numpy's UFuncTypeError and a
    # complex C gave a metric with ComplexWarnings
    cases = [
        (lambda: geo.scalar_curvature_stack(geo._mfs_field(geo.SIN_ON_DTHETA),
                                            [["0.5", "0.7", "1.1", "1.3"]]),
         "points must be real numbers, got '0.5'"),
        (lambda: geo.mfs_metric("0.5", 0.7, 1.1, 1.3), "chart coordinates must be real numbers, "
                                                       "got '0.5'"),
        (lambda: geo.mfs_metric(0.5 + 0.2j, 0.7, 1.1, 1.3),
         "chart coordinates must be real numbers, got (0.5+0.2j)"),
        (lambda: geo.mfs_metric(0.5, 0.7, 1.1, True), "chart coordinates must be real numbers, "
                                                      "got True"),
    ]
    for call, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                call()
        assert type(exc.value) is ValueError and str(exc.value) == message
    x = np.array([0.5, 0.7, 1.1, 1.3])
    assert np.array_equal(geo.mfs_metric(*x.tolist()), geo.mfs_metric(*x))


@pytest.mark.parametrize("point,got", [(["0.5", "0.7", "1.1", "1.3"], "'0.5'"),
                                       ([0.5, 0.7, 1.1, True], "True"),
                                       (np.array([0.5, 0.7, 1.1 + 0.2j, 1.3]), "(0.5+0j)")],
                         ids=["text", "bool", "complex"])
@pytest.mark.parametrize("call", [geo.christoffel, geo.scalar_curvature_numeric],
                         ids=["christoffel", "scalar_curvature_numeric"])
def test_numeric_curvature_refuses_points_that_are_not_real_numbers(call, point, got):
    # the text point was parsed (R = 9.33), True read as 1.0, and the complex one lost
    # its imaginary part with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call(lambda x: geo.mfs_metric(*x), point)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"points must be real numbers, got {got}"


def test_partial_fraction_identity():
    s = np.linspace(-0.99, 0.99, 991)
    lhs = 12 + 1 / (s - 1) - 1 / (s + 1)
    assert np.abs(lhs - geo.ricci_closed(s)).max() < 1e-8


def test_ldca_secant_identity():
    t3 = np.linspace(0.05, 0.7, 60)
    t5 = np.linspace(0.05, 0.7, 60)[:, None]
    lhs = 12 - 2 / (np.cos(2 * t3) ** 2 * np.cos(2 * t5) ** 2)
    c = np.sqrt(np.sin(2 * t5) ** 2 + np.sin(2 * t3) ** 2 * np.cos(2 * t5) ** 2)
    rhs = geo.ricci_closed(c)
    assert (np.abs(lhs - rhs) / (1 + np.abs(rhs))).max() < 1e-8


def test_fiber_inconsistency_guard():
    with pytest.raises(ValueError):
        geo.hopf_fiber(np.array([1.0, 1.0, 0, 0]))  # unnormalized


def test_fiber_guard_rejects_a_stack_with_one_unnormalized_row():
    rng = np.random.default_rng(RNG_SEED + 5)
    stack = np.stack([_random_state(rng) for _ in range(5)])
    stack[3] *= 1.5
    with pytest.raises(ValueError):
        geo.hopf_fiber(stack)


def test_hopf_base_refuses_a_stack_with_a_one_line_error():
    with pytest.raises(ValueError, match=r"^expected one state of shape \(4,\), got shape \(2, 4\)$"):
        geo.hopf_base(np.ones((2, 4)) / 2)


# the scalar fiber extraction that the broadcast one replaced, kept as its reference

def _ref_quat(w=0.0, x=0.0, y=0.0, z=0.0):
    return np.array([w, x, y, z], dtype=float)


def _ref_quat_from_complex_pair(z, w):
    return np.array([z.real, z.imag, w.real, w.imag])


def _ref_quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2])


def _ref_quat_conj(a):
    return np.array([a[0], -a[1], -a[2], -a[3]])


def _ref_hopf_fiber(state, convention):
    x = geo.base_coordinates(state)
    z = complex(0.5 * (x[1] + 1j * x[4]))
    w = complex(0.5 * (x[3] - 1j * x[2]))
    r2 = abs(z) ** 2 + abs(w) ** 2
    disc = np.sqrt(max(0.0, 1.0 - r2))
    gamma_p = float(np.sqrt(1.0 + disc))
    gamma_m = float(np.sqrt(max(0.0, 1.0 - disc)))
    u = _ref_quat(1.0) if r2 < 1e-24 else _ref_quat_from_complex_pair(z, w) / np.sqrt(r2)
    psi_h = (_ref_quat_from_complex_pair(complex(state[0]), complex(state[1])),
             _ref_quat_from_complex_pair(complex(state[2]), complex(state[3])))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    c_plus = (_ref_quat(gamma_p) * inv_sqrt2, gamma_m * u * inv_sqrt2)
    first = -gamma_m if convention == geo.FRAME_ORTHONORMAL else gamma_m
    c_minus = (_ref_quat(first) * inv_sqrt2, gamma_p * u * inv_sqrt2)
    q_plus = (_ref_quat_mul(_ref_quat_conj(c_plus[0]), psi_h[0])
              + _ref_quat_mul(_ref_quat_conj(c_plus[1]), psi_h[1]))
    q_minus = (_ref_quat_mul(_ref_quat_conj(c_minus[0]), psi_h[0])
               + _ref_quat_mul(_ref_quat_conj(c_minus[1]), psi_h[1]))
    return q_plus, q_minus, z, w, gamma_p, gamma_m


@pytest.mark.parametrize("convention", [geo.FRAME_ORTHONORMAL, geo.FRAME_CHART])
def test_batched_fiber_rows_match_scalar_reference(convention):
    rng = np.random.default_rng(RNG_SEED + 6)
    parts = rng.normal(size=(2000, 2, 4))
    states = parts[:, 0] + 1j * parts[:, 1]
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    # |00> and |11> take the r2 < 1e-24 branch; the Bell state has r2 = 1
    special = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)]])
    states = np.concatenate([states[:1000], special, states[1000:]])
    f = geo.hopf_fiber(states, convention=convention)
    assert f.q_plus.shape == f.q_minus.shape == (len(states), 4)
    x = geo.base_coordinates(states)
    for k, state in enumerate(states):
        assert geo.base_coordinates(state).tobytes() == x[k].tobytes()
        q_plus, q_minus, z, w, gamma_p, gamma_m = _ref_hopf_fiber(state, convention)
        assert (f.gamma_plus[k], f.gamma_minus[k], f.z[k], f.w[k]) == (gamma_p, gamma_m, z, w)
        assert np.abs(f.q_plus[k] - q_plus).max() <= 2.3e-16
        assert np.abs(f.q_minus[k] - q_minus).max() <= 2.3e-16


def test_single_state_fiber_keeps_its_types():
    f = geo.hopf_fiber(np.array([0.6, 0, 0, 0.8j]))
    assert f.q_plus.shape == f.q_minus.shape == (4,)
    assert isinstance(geo.quat_norm2(f.q_plus), float)
    assert isinstance(f.z, complex) and isinstance(f.gamma_plus, float)
    assert geo.quat_norm2(np.ones((3, 4))).shape == (3,)
