import numpy as np
import pytest

from pqcgeo import ansatz, geometry, optimize, qgt, simulator, vqe
from pqcgeo.optimize import OptConfig, run_optimization, step_gd, step_qng

RNG_SEED = 20260808


def _cfg(**kw):
    return OptConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptConfig(max_steps=0)
    with pytest.raises(ValueError):
        OptConfig(tol=0.0)
    with pytest.raises(ValueError):
        OptConfig(optimizer="adam")
    assert OptConfig(metric_mode="diagonal").metric_mode == "diag"


def test_step_gd_fixed_point_and_arithmetic():
    cfg = _cfg()
    theta = np.array([1.0, 1.0])
    assert np.array_equal(step_gd(theta, np.zeros(2), cfg), theta)
    out = step_gd(theta, np.array([2.0, -2.0]), cfg)
    assert np.abs(out - np.array([0.9, 1.1])).max() < 1e-15


def test_step_gd_contracts_quadratic():
    # L = ||theta||^2 / 2 has gradient theta: iterates scale by (1 - eta)
    cfg = _cfg(learning_rate=0.05)
    theta = np.array([2.0, -3.0, 0.5])
    for _ in range(10):
        new = step_gd(theta, theta, cfg)
        assert np.abs(new - 0.95 * theta).max() < 1e-14
        theta = new


def test_step_qng_identity_metric_equals_gd():
    rng = np.random.default_rng(RNG_SEED)
    cfg = _cfg()
    for _ in range(100):
        theta, grad = rng.normal(size=5), rng.normal(size=5)
        assert np.abs(step_qng(theta, grad, np.eye(5), cfg)[0]
                      - step_gd(theta, grad, cfg)).max() < 1e-14


def test_step_qng_scaled_metric_halves_step():
    cfg = _cfg()
    theta, grad = np.zeros(3), np.ones(3)
    gd = step_gd(theta, grad, cfg)
    qng, _ = step_qng(theta, grad, 2.0 * np.eye(3), cfg)
    assert np.abs(qng - gd / 2.0).max() < 1e-14


def test_step_qng_pseudo_inverse_projects_out_null_direction():
    cfg = _cfg(learning_rate=0.05)
    theta = np.array([0.4, 0.7])
    out, _ = step_qng(theta, np.array([4.0, 4.0]), np.diag([4.0, 0.0]), cfg)
    assert np.abs(out - (theta - np.array([0.05, 0.0]))).max() < 1e-14


def test_monotone_descent_on_quadratic_for_both_steppers():
    cfg = _cfg(learning_rate=0.05)
    for metric in (None, np.diag([1.0, 2.0, 4.0])):
        theta = np.array([1.5, -2.0, 3.0])
        prev = float(theta @ theta) / 2
        for _ in range(50):
            theta = step_gd(theta, theta, cfg) if metric is None \
                else step_qng(theta, theta, metric, cfg)[0]
            val = float(theta @ theta) / 2
            assert val <= prev + 1e-15
            prev = val


def test_run_optimization_immediate_stop_with_infinite_tol():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(tol=np.inf, max_steps=200)
    trace = run_optimization("ldca", h, np.array([0.1, 0.2, 0.3, 0.4, 0.5]), cfg)
    assert [r.step for r in trace] == [0, 1]


def test_run_optimization_deterministic():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="qng", metric_mode="block", max_steps=40, seed=11)
    theta0 = optimize.initial_parameters("ldca", cfg, 0)
    t1 = run_optimization("ldca", h, theta0, cfg)
    t2 = run_optimization("ldca", h, theta0, cfg)
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.theta, b.theta)
        assert a.energy == b.energy and a.ricci == b.ricci


def test_trace_ricci_at_zero_concurrence():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(tol=np.inf, max_steps=200)
    trace = run_optimization("ldca", h, np.zeros(5), cfg)  # |01>, product state
    assert trace[0].concurrence == pytest.approx(0.0, abs=1e-12)
    assert trace[0].ricci == pytest.approx(10.0, abs=1e-9)


def test_trace_instrumentation_consistency():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="qng", metric_mode="diag", max_steps=60, seed=5)
    theta0 = optimize.initial_parameters("shea", cfg, 1)
    for rec in run_optimization("shea", h, theta0, cfg):
        psi = ansatz.prepare_state("shea", rec.theta)
        c = geometry.concurrence(psi)
        assert abs(rec.concurrence - c) < 1e-9
        assert rec.ricci == pytest.approx(
            geometry.ricci_closed(min(c, optimize.RICCI_CLAMP)), rel=1e-9)
        assert rec.energy_error >= -1e-10


def test_gd_known_good_ldca_run_reaches_chemical_accuracy():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="gd", max_steps=200, seed=3)
    trace = run_optimization("ldca", h, optimize.initial_parameters("ldca", cfg, 0), cfg)
    assert optimize.steps_to_threshold(trace, 1e-3) is not None


def test_qng_identity_metric_reproduces_gd_trace(monkeypatch):
    h = vqe.load_bundled("entangled")
    theta0 = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    gd_trace = run_optimization("ldca", h, theta0, _cfg(optimizer="gd", max_steps=30))
    monkeypatch.setattr(qgt, "fs_metric_from_state", lambda psi, jac, mask: np.broadcast_to(
        np.eye(jac.shape[-1]), jac.shape[:-2] + (jac.shape[-1], jac.shape[-1])))
    qng_trace = run_optimization("ldca", h, theta0, _cfg(optimizer="qng", max_steps=30))
    assert len(gd_trace) == len(qng_trace)
    for a, b in zip(gd_trace, qng_trace):
        assert np.array_equal(a.theta, b.theta)


def test_qng_fallback_on_fully_degenerate_metric(monkeypatch):
    h = vqe.load_bundled("entangled")
    theta0 = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    monkeypatch.setattr(qgt, "fs_metric_from_state",
                        lambda psi, jac, mask: np.zeros(jac.shape[:-2] + (5, 5)))
    trace = run_optimization("ldca", h, theta0, _cfg(optimizer="qng", max_steps=5))
    assert any(rec.qng_fallback for rec in trace[1:])
    gd_trace = run_optimization("ldca", h, theta0, _cfg(optimizer="gd", max_steps=5))
    for a, b in zip(trace, gd_trace):
        assert np.array_equal(a.theta, b.theta)


def test_initial_parameters_seeded_and_split():
    cfg = _cfg(seed=123)
    a = optimize.initial_parameters("qgan", cfg, 0)
    b = optimize.initial_parameters("qgan", cfg, 1)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, optimize.initial_parameters("qgan", cfg, 0))
    assert np.all((0 <= a) & (a < 2 * np.pi))


def test_dimension_mismatch_rejected():
    cfg = _cfg()
    with pytest.raises(ValueError):
        step_gd(np.zeros(3), np.zeros(2), cfg)
    with pytest.raises(ValueError):
        step_qng(np.zeros(3), np.zeros(3), np.eye(2), cfg)
    with pytest.raises(ValueError):
        run_optimization("hea", vqe.load_bundled("entangled"), np.zeros(5), cfg)


class _DegenerateMetric(RuntimeError):
    pass


def _reference_step_qng(theta, grad, metric, cfg):
    """step_qng and invert_metric as they were for one (m,) vector: the
    pseudo-inverse raises when it keeps no eigenvalue."""
    g = 0.5 * (metric + metric.T)
    if isinstance(cfg.inversion, qgt.Tikhonov):
        inv = np.linalg.inv(g + cfg.inversion.epsilon * np.eye(g.shape[0]))
    else:
        w, v = np.linalg.eigh(g)
        thresh = cfg.inversion.rcond * np.abs(w).max() if np.abs(w).max() > 0 else np.inf
        keep = w > thresh
        if not np.any(keep):
            raise _DegenerateMetric
        inv = (v * np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)) @ v.T
    return theta - cfg.learning_rate * (0.5 * (inv + inv.T) @ grad)


def _reference_trace(kind, h, theta0, cfg):
    """The per-trial loop as it was before one evaluation per step: the gradient
    from state_jacobian and prepare_state, the energy and concurrence from a
    second prepare_state, the QNG metric from fs_metric's own evaluation, and the
    GD fallback caught from a degenerate-metric exception."""
    ground = vqe.exact_ground(h)
    theta = np.array(theta0, dtype=float)
    rows, e_prev, fallback = [], None, False
    for step in range(cfg.max_steps + 1):
        grad = 2.0 * np.real(ansatz.state_jacobian(kind, theta).conj().T
                             @ (h.matrix() @ ansatz.prepare_state(kind, theta)))
        assert np.array_equal(vqe.energy_gradient(kind, theta, h), grad)
        psi = ansatz.prepare_state(kind, theta)
        e = float(np.real(np.vdot(psi, h.matrix() @ psi)))
        c = geometry.concurrence(psi)
        rows.append((step, theta.copy(), e, e - ground.energy, c,
                     float(geometry.ricci_closed(min(c, optimize.RICCI_CLAMP))),
                     float(np.linalg.norm(grad)), fallback))
        if e_prev is not None and abs(e - e_prev) < cfg.tol or step == cfg.max_steps:
            break
        e_prev, fallback = e, False
        if cfg.optimizer == "gd":
            theta = theta - cfg.learning_rate * grad
            continue
        try:
            theta = _reference_step_qng(theta, grad, qgt.fs_metric(kind, theta, cfg.metric_mode),
                                        cfg)
        except _DegenerateMetric:
            theta, fallback = theta - cfg.learning_rate * grad, True
    return rows


def _engine_configs(**base):
    """GD, QNG under each metric mode, Tikhonov, and a cutoff (rcond 2) that
    keeps no eigenvalue, so that every QNG update falls back to GD."""
    return [_cfg(optimizer="gd", **base)] + [
        _cfg(optimizer="qng", metric_mode=mode, **base) for mode in qgt.METRIC_MODES
    ] + [_cfg(optimizer="qng", inversion=qgt.Tikhonov(), **base),
         _cfg(optimizer="qng", inversion=qgt.PseudoInverse(rcond=2.0), **base)]


def _fields(rec):
    return (rec.step, rec.energy, rec.energy_error, rec.concurrence, rec.ricci, rec.grad_norm,
            rec.qng_fallback)


@pytest.mark.parametrize("kind", ansatz.ANSATZE)
def test_single_evaluation_loop_matches_reference_bit_for_bit(kind):
    h = vqe.load_bundled("entangled")
    for cfg in _engine_configs(max_steps=30, tol=1e-9, seed=4):
        for trial in range(2):
            theta0 = optimize.initial_parameters(kind, cfg, trial)
            got = run_optimization(kind, h, theta0, cfg)
            want = _reference_trace(kind, h, theta0, cfg)
            assert len(got) == len(want)
            for rec, (step, theta, e, err, c, ricci, gnorm, fallback) in zip(got, want):
                assert (rec.step, rec.qng_fallback) == (step, fallback)
                if kind not in (ansatz.LDCA, ansatz.SHEA):
                    assert np.array_equal(rec.theta, theta)
                    assert _fields(rec) == (step, e, err, c, ricci, gnorm, fallback)
                    continue
                # the ldca and shea maps multiply complex by complex, which numpy
                # rounds differently for the (m,) parameters of the old loop and
                # the (1, m) stack of the engine: last-bit differences only
                assert np.abs(rec.theta - theta).max() <= 1e-9
                assert max(abs(rec.energy - e), abs(rec.energy_error - err),
                           abs(rec.concurrence - c), abs(rec.grad_norm - gnorm)) <= 1e-9
                assert rec.ricci == geometry.ricci_closed(
                    min(rec.concurrence, optimize.RICCI_CLAMP))


@pytest.mark.parametrize("kind", ansatz.ANSATZE)
def test_run_trials_rows_match_one_trial_runs_bit_for_bit(kind):
    h = vqe.load_bundled("entangled")
    stop_steps = set()
    for cfg in _engine_configs(max_steps=40, tol=1e-3, seed=6):
        traces = optimize.run_trials(kind, h, cfg, 7)
        assert len(traces) == 7
        for k, trace in enumerate(traces):
            single = run_optimization(kind, h, optimize.initial_parameters(kind, cfg, k), cfg)
            assert len(trace) == len(single)
            for a, b in zip(trace, single):
                assert np.array_equal(a.theta, b.theta) and _fields(a) == _fields(b)
            stop_steps.add(len(trace))
    assert len(stop_steps) > 1  # rows of one batch stop at different steps


def test_one_state_evaluation_and_no_hamiltonian_build_per_step(monkeypatch):
    h = vqe.load_bundled("entangled")
    calls = {"state_and_jacobian": 0, "other_maps": 0, "matrix": 0}

    def count(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(ansatz, "state_and_jacobian", "state_and_jacobian")
    count(ansatz, "prepare_state", "other_maps")
    count(ansatz, "state_jacobian", "other_maps")
    count(simulator.PauliObservable, "matrix", "matrix")
    for optimizer in ("gd", "qng"):
        calls.update(state_and_jacobian=0)
        cfg = _cfg(optimizer=optimizer, max_steps=20, tol=1e-12)
        trace = run_optimization("qgan-aug", h, optimize.initial_parameters("qgan-aug", cfg, 0),
                                 cfg)
        assert calls["state_and_jacobian"] == len(trace) == 21
        # a batch evaluates the ansatz once per step for all of its rows
        calls.update(state_and_jacobian=0)
        traces = optimize.run_trials("ldca", h, _cfg(optimizer=optimizer, max_steps=40,
                                                     tol=1e-3, seed=6), 7)
        assert calls["state_and_jacobian"] == max(len(t) for t in traces)
        assert min(len(t) for t in traces) < max(len(t) for t in traces)
    assert calls["other_maps"] == 0 and calls["matrix"] == 0
