"""Linearization, admissible sets, governors, and the governed rollout."""

import numpy as np
import pytest
from scipy.optimize import minimize

from flowpsm.control import (
    CgConfig,
    Constraint,
    ConstraintSchedule,
    ConstraintSet,
    LinearSSM,
    OInfApprox,
    build_oinf,
    cg_solve,
    least_distance_qp,
    linearize,
    ncg_rollout,
    station_predict,
    temperature_cap,
)
from flowpsm import control
from flowpsm.errors import NumericalError
from flowpsm.network import forward, init_params
from flowpsm.training import TrainConfig, input_layout, mlp_for_scenario, train
from flowpsm.transport import ConfigError

from oracles import srg_kappa


@pytest.fixture(scope="module")
def trained(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    params, _ = train(spec, dataset, tiny_scenario, scaling,
                      TrainConfig(epochs=5, batch_size=128, collocation_size=32, seed=2))
    return spec, params


def _toy_ssm(rng, q=3, p=2, rho=0.6):
    A = rng.standard_normal((q, q))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((q, p))
    x00 = rng.uniform(0.2, 0.8, q)
    v00 = rng.uniform(0.2, 0.8, p)
    y00 = x00 + 0.01 * rng.standard_normal(q)
    return LinearSSM(A=A, B=B, x00=x00, v00=v00, y00=y00)


def test_station_predict_matches_forward(trained, tiny_scenario, tiny_dataset):
    spec, params = trained
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    lay = input_layout(scenario)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.2, 0.8, lay.n_state)
    v = rng.uniform(0.2, 0.8, lay.n_controls)
    got = station_predict(spec, params, scenario, scaling, x, v)
    rows = np.zeros((lay.n_stations, lay.input_dim))
    rows[:, lay.z_col] = scaling.scale_z(np.asarray(scenario.sensor_stations))
    rows[:, lay.t_col] = 1.0
    rows[:, lay.v_cols] = v
    rows[:, lay.x0_cols] = x
    assert np.allclose(got, forward(spec, params, rows).T.ravel())


def test_linearize_matches_finite_differences(trained, tiny_scenario, tiny_dataset):
    spec, params = trained
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    lay = input_layout(scenario)
    rng = np.random.default_rng(3)
    x00 = rng.uniform(0.3, 0.7, lay.n_state)
    v00 = rng.uniform(0.3, 0.7, lay.n_controls)
    ssm = linearize(spec, params, scenario, scaling, x00, v00)
    f0 = station_predict(spec, params, scenario, scaling, x00, v00)
    assert np.allclose(ssm.y00, f0)
    h = 1e-6
    for j in range(lay.n_state):
        e = np.zeros(lay.n_state)
        e[j] = h
        fd = (station_predict(spec, params, scenario, scaling, x00 + e, v00)
              - station_predict(spec, params, scenario, scaling, x00 - e, v00)) / (2 * h)
        assert np.allclose(ssm.A[:, j], fd, atol=1e-6)
    for j in range(lay.n_controls):
        e = np.zeros(lay.n_controls)
        e[j] = h
        fd = (station_predict(spec, params, scenario, scaling, x00, v00 + e)
              - station_predict(spec, params, scenario, scaling, x00, v00 - e)) / (2 * h)
        assert np.allclose(ssm.B[:, j], fd, atol=1e-6)
    with pytest.raises(ConfigError):
        linearize(spec, params, scenario, scaling, x00[:-1], v00)


def test_linearize_makes_one_tangent_pass(trained, tiny_scenario, tiny_dataset, monkeypatch):
    spec, params = trained
    _, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    calls = []
    original = control.input_jacobian

    def counting(*args):
        calls.append(np.shape(args[3]))
        return original(*args)

    monkeypatch.setattr(control, "input_jacobian", counting)
    linearize(spec, params, tiny_scenario, scaling, np.full(lay.n_state, 0.5), np.full(lay.n_controls, 0.5))
    assert calls == [(lay.n_state + lay.n_controls, lay.input_dim)]


def test_temperature_cap_one_hot(tiny_scenario, tiny_dataset):
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    lay = input_layout(scenario)
    row = temperature_cap(scenario, scaling, 2, 880.0, name="cap")
    c = np.asarray(row.c)
    hot = 2 * lay.n_stations + 2
    assert c[hot] == 1.0
    assert np.count_nonzero(c) == 1
    assert row.d == pytest.approx(float(scaling.scale_field("T", 880.0)))
    with pytest.raises(ConfigError):
        temperature_cap(scenario, scaling, 99, 880.0)


def test_constraint_schedule_selection():
    a = ConstraintSet(rows=(Constraint(c=(1.0,), d=0.5, name="a"),))
    b = ConstraintSet(rows=(Constraint(c=(1.0,), d=0.7, name="b"),))
    sched = ConstraintSchedule(entries=((0, a), (10, b)))
    assert sched.active(0) is a
    assert sched.active(9) is a
    assert sched.active(10) is b
    assert sched.change_points() == {0, 10}
    assert ConstraintSchedule().active(5).n_rows == 0
    with pytest.raises(ConfigError):
        ConstraintSchedule(entries=((3, a),))
    with pytest.raises(ConfigError):
        ConstraintSchedule(entries=((0, a), (0, b)))
    with pytest.raises(ConfigError):
        ConstraintSet(rows=(Constraint(c=(np.nan,), d=0.0),))


def test_oinf_agrees_with_explicit_simulation(rng):
    ssm = _toy_ssm(rng)
    cset = ConstraintSet(rows=(
        Constraint(c=(1.0, 0.0, 0.0), d=1.0, name="x0"),
        Constraint(c=(0.0, -1.0, 0.5), d=0.8, name="mix"),
    ))
    horizon = 40
    oinf = build_oinf(ssm, cset, horizon=horizon, epsilon=1e-6)
    C, d = cset.stacked()

    def simulate_ok(dx, dv):
        x = ssm.x00 + dx
        v_const = dv
        for _ in range(horizon + 1):
            if np.any(C @ x > d + 1e-9):
                return False
            x = ssm.y00 + ssm.A @ (x - ssm.x00) + ssm.B @ v_const
        return True

    agree = 0
    for _ in range(300):
        dx = rng.uniform(-0.5, 0.5, 3)
        dv = rng.uniform(-0.5, 0.5, 2)
        member = oinf.contains(dx, dv)
        brute = simulate_ok(dx, dv)
        if member:
            # membership must imply constraint satisfaction along the horizon
            assert brute
        agree += member == brute
    # the epsilon-tightened steady row may exclude a thin boundary layer
    assert agree >= 290


def test_oinf_rejects_unstable_map(rng):
    ssm = _toy_ssm(rng, rho=1.05)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=1.0),))
    with pytest.raises(NumericalError):
        build_oinf(ssm, cset)
    with pytest.raises(ConfigError):
        build_oinf(_toy_ssm(rng), ConstraintSet())


def test_srg_kappa_is_maximal(rng):
    ssm = _toy_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.2, 0.0), d=0.9, name="x"),))
    oinf = build_oinf(ssm, cset, horizon=30, epsilon=1e-4)
    clipped = 0
    for _ in range(50):
        dx = rng.uniform(-0.05, 0.05, 3)
        dv_prev = rng.uniform(-0.05, 0.05, 2)
        if not oinf.contains(dx, dv_prev):
            continue
        dr = rng.uniform(-1.0, 1.0, 2)
        kappa = srg_kappa(oinf, oinf.x00 + dx, oinf.v00 + dv_prev, oinf.v00 + dr)
        assert 0.0 <= kappa <= 1.0
        if kappa < 1.0:
            clipped += 1
            # admissible set is convex, so feasible fractions form [0, kappa]
            assert oinf.contains(dx, dv_prev + kappa * (dr - dv_prev))
            assert not oinf.contains(dx, dv_prev + min(1.0, kappa + 1e-6) * (dr - dv_prev))
    assert clipped > 0


def test_least_distance_qp_single_constraint_closed_form(rng):
    # min ||v - r||^2 s.t. c.v <= d has the analytic projection solution
    for _ in range(20):
        p = 3
        r = rng.standard_normal(p)
        c = rng.standard_normal(p)
        d = rng.standard_normal() * 0.5
        E = 2.0 * np.eye(p)
        F = -2.0 * r
        v, status = least_distance_qp(E, F, c[None, :], np.array([d]))
        expected = r - max(0.0, (c @ r - d) / (c @ c)) * c
        assert status == "ok"
        assert np.allclose(v, expected, atol=1e-8)


def test_least_distance_qp_matches_slsqp_on_random_qps(rng):
    for _ in range(10):
        p = 4
        R = rng.standard_normal((p, p))
        E = R @ R.T + p * np.eye(p)
        F = rng.standard_normal(p)
        M = rng.standard_normal((6, p))
        gamma = rng.uniform(0.1, 1.0, 6)  # v=0 strictly feasible
        v, status = least_distance_qp(E, F, M, gamma)
        assert status == "ok"
        ref = minimize(
            lambda x: 0.5 * x @ E @ x + F @ x,
            np.zeros(p),
            constraints=[{"type": "ineq", "fun": lambda x, i=i: gamma[i] - M[i] @ x}
                         for i in range(6)],
            method="SLSQP",
            options={"ftol": 1e-12, "maxiter": 500},
        )
        assert np.allclose(v, ref.x, atol=1e-5)


def test_least_distance_qp_flags_infeasible():
    # x <= -1 and -x <= -1 cannot both hold
    E = 2.0 * np.eye(1)
    F = np.zeros(1)
    M = np.array([[1.0], [-1.0]])
    gamma = np.array([-1.0, -1.0])
    _, status = least_distance_qp(E, F, M, gamma)
    assert status == "infeasible"
    # an impossible constant row (0 <= -0.5) is infeasible outright
    M2 = np.zeros((1, 1))
    _, status2 = least_distance_qp(E, F, M2, np.array([-0.5]))
    assert status2 == "infeasible"


def test_least_distance_qp_nearly_parallel_rows():
    # v >= -0.0745131 and v >= -0.0745104: nearly parallel rows, as the
    # O-infinity rows C S_k B become for large k; the tighter one binds
    E = np.array([[2.0]])
    F = np.array([2.0])
    M = np.array([[-3.70], [-3.75]])
    gamma = np.array([3.70 * 0.0745131, 3.75 * 0.0745104])
    v, status = least_distance_qp(E, F, M, gamma)
    assert status == "ok"
    assert v[0] == pytest.approx(-0.0745104, abs=1e-12)


def test_cg_solve_returns_reference_when_admissible(rng):
    ssm = _toy_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=50.0),))  # slack
    oinf = build_oinf(ssm, cset, horizon=20, epsilon=1e-6)
    r = ssm.v00 + np.array([0.01, -0.02])
    v, status = cg_solve(oinf, ssm.x00, r, np.eye(2), ssm.v00)
    assert status == "at_reference"
    assert np.allclose(v, r)


def test_cg_config_validation():
    with pytest.raises(ConfigError):
        CgConfig(horizon=0)
    with pytest.raises(ConfigError):
        CgConfig(q_weight=(1.0, 0.0, 0.0, -1.0)).weight_matrix(2)
    assert np.allclose(CgConfig().weight_matrix(2), np.eye(2))


def test_nonsymmetric_q_weight_projects_like_its_symmetric_part(rng):
    # ||v - r||_Q^2 only sees the symmetric part of Q
    ssm = _toy_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=float(ssm.x00[0]) + 0.02, name="x"),))
    oinf = build_oinf(ssm, cset, horizon=20, epsilon=1e-6)
    Q_raw = np.array([[2.0, 1.5], [-0.5, 1.0]])
    Q_sym = 0.5 * (Q_raw + Q_raw.T)
    Q = CgConfig(q_weight=tuple(Q_raw.ravel())).weight_matrix(2)
    assert np.array_equal(Q, Q_sym)
    projected = 0
    for _ in range(40):
        r = ssm.v00 + rng.uniform(-1.0, 1.0, 2)
        v, status = cg_solve(oinf, ssm.x00, r, Q, ssm.v00)
        v_sym, status_sym = cg_solve(oinf, ssm.x00, r, Q_sym, ssm.v00)
        assert status == status_sym
        assert np.allclose(v, v_sym, rtol=0.0, atol=1e-12)
        projected += status == "ok"
    assert projected > 0


def test_ncg_rollout_passthrough_without_constraints(
    trained, tiny_scenario, tiny_dataset
):
    spec, params = trained
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    refs = np.tile([0.65, 850.0], (4, 1))
    refs[2] = [0.7, 860.0]
    log = ncg_rollout(spec, params, scenario, scaling, refs, ConstraintSchedule(),
                      environment="model")
    assert len(log.steps) == 4
    assert np.allclose([row["v"] for row in log.steps], refs)
    assert all(row["status"] == "no_constraints" for row in log.steps)
    assert log.relinearizations == 0


def test_ncg_rollout_validates_inputs(trained, tiny_scenario, tiny_dataset):
    spec, params = trained
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    with pytest.raises(ConfigError):
        ncg_rollout(spec, params, scenario, scaling, np.zeros((3, 5)),
                    ConstraintSchedule(), environment="model")
    with pytest.raises(ConfigError):
        ncg_rollout(spec, params, scenario, scaling, np.tile([0.65, 850.0], (3, 1)),
                    ConstraintSchedule(), environment="plant")
