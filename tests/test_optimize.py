import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from pqcgeo import ansatz, geometry, optimize, qgt, simulator, vqe
from pqcgeo.optimize import OptConfig, run_optimization

RNG_SEED = 20260808


def _cfg(**kw):
    return OptConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptConfig(max_steps=0)
    # 2.5 ended in a TypeError from range(), and True ran as one step
    for steps in (2.5, True, "3", None):
        with pytest.raises(ValueError, match="max_steps must be an integer of at least 1"):
            OptConfig(max_steps=steps)
    steps = OptConfig(max_steps=np.int64(3)).max_steps
    assert steps == 3 and type(steps) is int
    for trials in (2.5, True, 0):
        with pytest.raises(ValueError, match="trial count must be an integer of at least 1"):
            optimize.run_trials("hea", vqe.load_bundled("entangled"), OptConfig(), trials)
    with pytest.raises(ValueError):
        OptConfig(tol=0.0)
    with pytest.raises(ValueError):
        OptConfig(optimizer="adam")
    # "diagonal" was an alias of "diag", removed so that each mode has one spelling
    with pytest.raises(ValueError, match="unknown metric mode"):
        OptConfig(metric_mode="diagonal")


@pytest.mark.parametrize("inversion", ["tikhonov", "pinv", None, qgt.Tikhonov, 1e-3])
def test_config_rejects_an_inversion_that_is_not_a_policy(inversion):
    # "tikhonov" used to be accepted, and a run then died after writing its trial CSVs
    with pytest.raises(ValueError, match="inversion must be a qgt.InversionPolicy"):
        OptConfig(inversion=inversion)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
def test_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # 1.5 and True used to run silently as seed 1
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        OptConfig(seed=seed)


def test_config_seed_accepts_numpy_integers_as_int():
    seed = OptConfig(seed=np.int64(3)).seed
    assert seed == 3 and type(seed) is int


_FLOAT_SETTINGS = (("learning_rate", lambda v: OptConfig(learning_rate=v).learning_rate),
                   ("tol", lambda v: OptConfig(tol=v).tol),
                   ("rcond", lambda v: qgt.PseudoInverse(v).rcond),
                   ("epsilon", lambda v: qgt.Tikhonov(v).epsilon))


@pytest.mark.parametrize("name,setting", _FLOAT_SETTINGS)
@pytest.mark.parametrize("value", [True, False, np.True_, "0.1", "1", None, [0.1], 0, -1e-3,
                                   np.nan, -np.inf])
def test_float_settings_refuse_bool_text_and_non_positive_values(name, setting, value):
    # True used to run as 1.0 and reach summary.json as true; text ended in a TypeError
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        setting(value)


@pytest.mark.parametrize("name,setting", _FLOAT_SETTINGS)
def test_float_settings_store_ints_and_numpy_floats_as_float(name, setting):
    for value, expected in ((1, 1.0), (np.int64(2), 2.0), (np.float32(0.5), 0.5),
                            (np.float64(1e-3), 1e-3), (0.25, 0.25)):
        stored = setting(value)
        assert type(stored) is float and stored == expected
    if name == "tol":  # tol = inf stops every run after its first step
        assert setting(np.inf) == np.inf
    else:
        with pytest.raises(ValueError, match=f"{name} must be positive and finite, got inf"):
            setting(np.inf)


@pytest.mark.parametrize("name,setting", _FLOAT_SETTINGS)
@pytest.mark.parametrize("sign", [1, -1])
def test_float_settings_read_an_integer_beyond_the_float_range_as_infinite(name, setting, sign):
    # float() of such an integer raised OverflowError
    value = sign * 10**400
    if name == "tol" and sign == 1:  # like tol = inf, it stops every run after its first step
        assert setting(value) == np.inf
    else:
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            setting(value)


def test_config_refuses_max_steps_that_no_step_list_can_hold():
    # 10**21 ran every trial and then raised OverflowError in the run summary's step list
    for steps in (sys.maxsize, 10**21):
        with pytest.raises(ValueError, match=f"max_steps must be below {sys.maxsize}, got "):
            OptConfig(max_steps=steps)
    assert OptConfig(max_steps=sys.maxsize - 1).max_steps == sys.maxsize - 1


@pytest.mark.parametrize("sign", [1, -1])
def test_run_optimization_refuses_a_start_beyond_the_float_range(sign):
    # np.array(theta0, dtype=float) raised OverflowError
    with pytest.raises(ValueError, match="parameters must be finite"):
        run_optimization("hea", vqe.load_bundled("entangled"), [0, 0, 0, sign * 10**400], _cfg())


def test_run_optimization_refuses_a_complex_start():
    # np.array(theta0, dtype=float) raised TypeError
    with pytest.raises(ValueError, match="^parameters must be real numbers: got 1j$"):
        run_optimization("hea", vqe.load_bundled("entangled"), [1j, 0, 0, 0], _cfg())


def test_run_optimization_immediate_stop_with_infinite_tol():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(tol=np.inf, max_steps=200)
    trace = run_optimization("ldca", h, np.array([0.1, 0.2, 0.3, 0.4, 0.5]), cfg)
    assert len(trace) == 2


def test_run_optimization_deterministic():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="qng", metric_mode="block", max_steps=40, seed=11)
    theta0 = optimize.initial_parameters("ldca", cfg, 0)
    t1 = run_optimization("ldca", h, theta0, cfg)
    t2 = run_optimization("ldca", h, theta0, cfg)
    assert len(t1) == len(t2)
    assert np.array_equal(t1.theta, t2.theta)
    assert np.array_equal(t1.energy, t2.energy) and np.array_equal(t1.ricci, t2.ricci)


def test_trace_ricci_at_zero_concurrence():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(tol=np.inf, max_steps=200)
    trace = run_optimization("ldca", h, np.zeros(5), cfg)  # |01>, product state
    assert trace.concurrence[0] == pytest.approx(0.0, abs=1e-12)
    assert trace.ricci[0] == pytest.approx(10.0, abs=1e-9)


def test_trace_instrumentation_consistency():
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="qng", metric_mode="diag", max_steps=60, seed=5)
    theta0 = optimize.initial_parameters("shea", cfg, 1)
    trace = run_optimization("shea", h, theta0, cfg)
    for theta, conc, ricci in zip(trace.theta, trace.concurrence, trace.ricci):
        psi = ansatz.prepare_state("shea", theta)
        c = geometry.concurrence(psi)
        assert abs(conc - c) < 1e-9
        assert ricci == pytest.approx(
            geometry.ricci_closed(min(c, optimize.RICCI_CLAMP)), rel=1e-9)
    assert np.all(trace.energy_error >= -1e-10)


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
    assert np.array_equal(gd_trace.theta, qng_trace.theta)


def _constant_metric(monkeypatch, metric):
    """Every QNG step of the engine reads this (m, m) metric on each row."""
    monkeypatch.setattr(qgt, "fs_metric_from_state", lambda psi, jac, mask: np.broadcast_to(
        metric, jac.shape[:-2] + metric.shape))


def test_step_qng_scaled_metric_halves_step(monkeypatch):
    h = vqe.load_bundled("entangled")
    theta0 = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    gd = run_optimization("ldca", h, theta0, _cfg(optimizer="gd", max_steps=1)).theta
    _constant_metric(monkeypatch, 2.0 * np.eye(5))
    for inversion in (qgt.PseudoInverse(), qgt.Tikhonov(1e-12)):
        trace = run_optimization("ldca", h, theta0, _cfg(optimizer="qng", max_steps=1,
                                                         inversion=inversion))
        assert not trace.qng_fallback.any()
        assert np.abs((trace.theta[1] - theta0) - (gd[1] - theta0) / 2.0).max() < 1e-14


def test_step_qng_pseudo_inverse_projects_out_null_direction(monkeypatch):
    h = vqe.load_bundled("entangled")
    theta0 = np.array([0.4, 0.7, 1.1, 1.3, 2.9])
    grad = vqe.energy_gradient("ldca", theta0, h)
    # ldca's energy gradient is zero along theta_1, theta_2 and theta_4, so the kept
    # direction is theta_3, and theta_5's nonzero gradient is the one projected out
    assert grad[2] != 0 and grad[4] != 0
    _constant_metric(monkeypatch, np.diag([0.0, 0.0, 4.0, 0.0, 0.0]))
    cfg = _cfg(optimizer="qng", max_steps=5, tol=1e-12, learning_rate=0.05)
    trace = run_optimization("ldca", h, theta0, cfg)
    assert len(trace) == 6 and not trace.qng_fallback.any()
    # only theta_3 moves, first by eta grad_3 / 4; the other angles keep their bits
    assert abs(trace.theta[1, 2] - (theta0[2] - 0.05 * grad[2] / 4.0)) < 1e-14
    kept = [0, 1, 3, 4]
    assert np.array_equal(trace.theta[:, kept], np.broadcast_to(theta0[kept], (6, 4)))


def test_qng_fallback_on_fully_degenerate_metric(monkeypatch):
    h = vqe.load_bundled("entangled")
    theta0 = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    monkeypatch.setattr(qgt, "fs_metric_from_state",
                        lambda psi, jac, mask: np.zeros(jac.shape[:-2] + (5, 5)))
    trace = run_optimization("ldca", h, theta0, _cfg(optimizer="qng", max_steps=5))
    assert trace.qng_fallback[1:].any()
    gd_trace = run_optimization("ldca", h, theta0, _cfg(optimizer="gd", max_steps=5))
    assert np.array_equal(trace.theta, gd_trace.theta)


@pytest.mark.parametrize("inversion", [qgt.PseudoInverse(), qgt.Tikhonov()],
                         ids=["pinv", "tikhonov"])
def test_qng_runs_invert_their_metrics_without_the_checked_entry_point(monkeypatch, inversion):
    # the engine's metrics are finite and exactly symmetric: it calls the core directly
    def refused(*args, **kwargs):
        raise AssertionError("the engine called qgt.invert_metric")

    monkeypatch.setattr(qgt, "invert_metric", refused)
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="qng", max_steps=5, inversion=inversion)
    assert len(run_optimization("qgan", h, optimize.initial_parameters("qgan", cfg, 0), cfg)) == 6
    assert [len(t) for t in optimize.run_trials("ldca", h, cfg, 3)] == [6, 6, 6]


def test_initial_parameters_seeded_and_split():
    cfg = _cfg(seed=123)
    a = optimize.initial_parameters("qgan", cfg, 0)
    b = optimize.initial_parameters("qgan", cfg, 1)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, optimize.initial_parameters("qgan", cfg, 0))
    assert np.all((0 <= a) & (a < 2 * np.pi))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match=r"theta0 has shape \(5,\), expected \(4,\)"):
        run_optimization("hea", vqe.load_bundled("entangled"), np.zeros(5), _cfg())


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


_POLICIES = (qgt.PseudoInverse(), qgt.Tikhonov(), qgt.PseudoInverse(rcond=2.0))


def _engine_configs(**base):
    """GD, QNG under each metric mode, and the block and diag modes under Tikhonov and
    under a cutoff (rcond 2) that keeps no eigenvalue, so that every QNG update falls
    back to GD; the diag mode takes its own path, without the metric matrix."""
    return [_cfg(optimizer="gd", **base)] + [
        _cfg(optimizer="qng", metric_mode=mode, **base) for mode in qgt.METRIC_MODES
    ] + [_cfg(optimizer="qng", metric_mode=mode, inversion=inversion, **base)
         for mode in (qgt.BLOCK, qgt.DIAG) for inversion in _POLICIES[1:]]


@pytest.mark.parametrize("kind", ansatz.ANSATZE)
def test_single_evaluation_loop_matches_reference_bit_for_bit(kind):
    h = vqe.load_bundled("entangled")
    for cfg in _engine_configs(max_steps=30, tol=1e-9, seed=4):
        for trial in range(2):
            theta0 = optimize.initial_parameters(kind, cfg, trial)
            got = run_optimization(kind, h, theta0, cfg)
            want = _reference_trace(kind, h, theta0, cfg)
            assert len(got) == len(want)
            step, theta, e, err, c, ricci, gnorm, fallback = map(np.array, zip(*want))
            assert np.array_equal(step, np.arange(len(got)))
            assert np.array_equal(got.qng_fallback, fallback)
            assert np.array_equal(got.theta, theta)
            for column, value in ((got.energy, e), (got.energy_error, err),
                                  (got.concurrence, c), (got.ricci, ricci),
                                  (got.grad_norm, gnorm)):
                assert np.array_equal(column, value)


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
            for f in dataclasses.fields(optimize.Trace):
                assert np.array_equal(getattr(trace, f.name), getattr(single, f.name)), f.name
            stop_steps.add(len(trace))
    assert len(stop_steps) > 1  # rows of one batch stop at different steps


def _bits(values):
    """Float values as their IEEE bit patterns: -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("inversion", _POLICIES, ids=["pinv", "tikhonov", "rcond2"])
@pytest.mark.parametrize("kind,theta0", [("ldca", [-0.0, -0.0, 0.4, -0.0, 0.9]),
                                         ("hea", [-0.0, 0.3, -0.0, 0.7])])
def test_diag_runs_keep_the_sign_of_zero_angles(kind, theta0, inversion):
    # the metric-matrix product gave +0.0 for a zero direction, so theta - eta d kept -0.0;
    # an elementwise w^+ grad gives -0.0 there, which turned the angle into +0.0
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="qng", metric_mode="diag", inversion=inversion, max_steps=8,
               tol=1e-12)
    want = np.array([row[1] for row in _reference_trace(kind, h, theta0, cfg)])
    assert np.signbit(want[1]).any()  # a -0.0 start angle is still -0.0 after a step
    for got in (run_optimization(kind, h, theta0, cfg).theta,
                optimize._run_batch(kind, h, np.array([theta0] * 3), cfg)[1].theta):
        assert np.array_equal(_bits(got), _bits(want))


def _refuse(monkeypatch, owner, name):
    def refused(*args, **kwargs):
        raise AssertionError(f"the engine called {name}")
    monkeypatch.setattr(owner, name, refused)


@pytest.mark.parametrize("inversion", _POLICIES, ids=["pinv", "tikhonov", "rcond2"])
def test_diag_runs_never_build_or_decompose_a_metric_matrix(monkeypatch, inversion):
    h = vqe.load_bundled("entangled")
    ground = vqe.exact_ground(h)  # the run's one other eigh
    monkeypatch.setattr(optimize, "exact_ground", lambda hamiltonian: ground)
    for owner, name in ((qgt, "_invert"), (np.linalg, "eigh"), (np.linalg, "inv"),
                        (qgt, "fs_metric_from_state")):
        _refuse(monkeypatch, owner, name)
    cfg = _cfg(optimizer="qng", metric_mode="diag", inversion=inversion, max_steps=5,
               tol=1e-12)
    for kind in ansatz.ANSATZE:
        assert len(run_optimization(kind, h, optimize.initial_parameters(kind, cfg, 0),
                                    cfg)) == 6
        assert [len(t) for t in optimize.run_trials(kind, h, cfg, 3)] == [6, 6, 6]


@pytest.mark.parametrize("mode", [qgt.BLOCK, qgt.DENSE])
@pytest.mark.parametrize("inversion", _POLICIES, ids=["pinv", "tikhonov", "rcond2"])
def test_block_and_dense_runs_invert_one_metric_stack_per_update(monkeypatch, mode, inversion):
    calls = []
    original = qgt._invert

    def counted(g, policy):
        calls.append(len(g))
        return original(g, policy)

    monkeypatch.setattr(qgt, "_invert", counted)
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="qng", metric_mode=mode, inversion=inversion, max_steps=40, tol=1e-3,
               seed=6)
    trace = run_optimization("shea", h, optimize.initial_parameters("shea", cfg, 0), cfg)
    assert calls == [1] * (len(trace) - 1)
    calls.clear()
    traces = optimize.run_trials("ldca", h, cfg, 7)
    steps = max(map(len, traces))
    # one call per update, on the rows evaluated at that step, as for energy_and_gradient
    assert calls == [sum(len(t) > step for t in traces) for step in range(steps - 1)]


def test_one_state_evaluation_and_no_hamiltonian_build_per_step(monkeypatch):
    # the engine evaluates the ansatz through the unchecked core: it checks theta0 once,
    # in run_optimization, and bounds every update itself
    h = vqe.load_bundled("entangled")
    calls = {"evaluate_rows": 0, "state_and_jacobian": 0, "check_theta": 0, "other_maps": 0,
             "matrix": 0}

    def count(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(ansatz, "_evaluate_rows", "evaluate_rows")
    count(ansatz, "state_and_jacobian", "state_and_jacobian")
    count(ansatz, "_check_theta", "check_theta")
    count(ansatz, "prepare_state", "other_maps")
    count(ansatz, "state_jacobian", "other_maps")
    count(vqe, "pauli_sum", "matrix")
    for optimizer in ("gd", "qng"):
        calls.update(evaluate_rows=0, check_theta=0)
        cfg = _cfg(optimizer=optimizer, max_steps=20, tol=1e-12)
        trace = run_optimization("qgan-aug", h, optimize.initial_parameters("qgan-aug", cfg, 0),
                                 cfg)
        assert calls["evaluate_rows"] == len(trace) == 21
        assert calls["check_theta"] == 1  # theta0's
        # a batch evaluates the ansatz once per step for all of its rows
        calls.update(evaluate_rows=0, check_theta=0)
        traces = optimize.run_trials("ldca", h, _cfg(optimizer=optimizer, max_steps=40,
                                                     tol=1e-3, seed=6), 7)
        assert calls["evaluate_rows"] == max(len(t) for t in traces)
        assert min(len(t) for t in traces) < max(len(t) for t in traces)
        assert calls["check_theta"] == 0
    assert calls["state_and_jacobian"] == 0
    assert calls["other_maps"] == 0 and calls["matrix"] == 0


def test_energy_and_gradient_come_from_one_call_per_step_and_no_expectation(monkeypatch):
    # the loop took the gradient from one H psi and the energy from a second, checked one
    def refused(*args, **kwargs):
        raise AssertionError("the engine computed an energy through expectation")

    for owner, name in ((vqe, "energy"), (vqe, "expectation"), (simulator, "expectation")):
        monkeypatch.setattr(owner, name, refused)
    calls = []
    original = optimize.energy_and_gradient

    def counted(h, psi, jac):
        calls.append(len(psi))
        return original(h, psi, jac)

    monkeypatch.setattr(optimize, "energy_and_gradient", counted)
    h = vqe.load_bundled("entangled")
    for optimizer in ("gd", "qng"):
        calls.clear()
        traces = optimize.run_trials("ldca", h, _cfg(optimizer=optimizer, max_steps=40,
                                                     tol=1e-3, seed=6), 7)
        steps = max(map(len, traces))
        assert min(map(len, traces)) < steps
        # one call per step, on the rows still running at that step
        assert calls == [sum(len(t) > step for t in traces) for step in range(steps)]


def test_derived_columns_are_computed_once_per_run_whatever_the_steps(monkeypatch):
    # no update reads concurrence or R(C), so the engine derives them after its loop
    h = vqe.load_bundled("entangled")
    calls = {"concurrence": 0, "ricci_closed": 0}
    for name in calls:
        def wrapper(*args, _name=name, _fn=getattr(optimize, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(optimize, name, wrapper)
    for optimizer in ("gd", "qng"):
        for steps in (1, 30):
            cfg = _cfg(optimizer=optimizer, max_steps=steps, tol=1e-12)
            theta0 = optimize.initial_parameters("shea", cfg, 0)
            for run in (lambda: [run_optimization("shea", h, theta0, cfg)],
                        lambda: optimize.run_trials("shea", h, cfg, 5)):
                calls.update(concurrence=0, ricci_closed=0)
                assert max(map(len, run())) == steps + 1
                assert calls == {"concurrence": 1, "ricci_closed": 1}


def test_a_batch_above_numpy_elision_size_matches_one_trial_runs_bit_for_bit():
    # numpy may evaluate an expression in place from 256 KiB (16,384 complex values) on,
    # and the engine derives its columns over all of a batch's row-steps at once
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="gd", max_steps=200, tol=1e-12, seed=4)
    traces = optimize.run_trials("shea", h, cfg, 90)
    assert sum(map(len, traces)) > 16_384
    for k, trace in enumerate(traces):
        single = run_optimization("shea", h, optimize.initial_parameters("shea", cfg, k), cfg)
        for f in dataclasses.fields(optimize.Trace):
            assert np.array_equal(getattr(trace, f.name), getattr(single, f.name)), (k, f.name)


def test_trace_memory_follows_the_steps_run_not_max_steps():
    # a (B, max_steps + 1) buffer of even one bool column would take 10 MB here
    h = vqe.load_bundled("entangled")
    cfg = _cfg(optimizer="qng", max_steps=10**7, tol=1e-3, seed=2)
    theta0 = optimize.initial_parameters("ldca", cfg, 0)
    run_optimization("ldca", h, theta0, cfg)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        trace = run_optimization("ldca", h, theta0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) < 100
    assert peak < 1_000_000, peak
