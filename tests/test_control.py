"""Linearization, admissible sets, governors, and the governed rollout."""

import dataclasses
import warnings

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
    linearize,
    ncg_rollout,
    station_predict,
    temperature_cap,
)
from flowpsm import control, network
from flowpsm.errors import NumericalError
from flowpsm.network import forward, init_params
from flowpsm.training import TrainConfig, input_layout, mlp_for_scenario, train
from flowpsm.transport import ConfigError

from oracles import admits, oinf_rows_by_powers, srg_kappa


@pytest.fixture(scope="module")
def trained(tiny_scenario, tiny_dataset):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(8, 6, 4))
    params, _ = train(init_params(spec, 2), dataset, tiny_scenario, scaling,
                      TrainConfig(epochs=5, batch_size=128, collocation_size=32, seed=2))
    return params


def _toy_ssm(rng, q=3, p=2, rho=0.6):
    A = rng.standard_normal((q, q))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((q, p))
    x00 = rng.uniform(0.2, 0.8, q)
    v00 = rng.uniform(0.2, 0.8, p)
    y00 = x00 + 0.01 * rng.standard_normal(q)
    return LinearSSM(A=A, B=B, x00=x00, v00=v00, y00=y00)


def _factor(Q):
    """``cg_solve``'s weighting factor for the (p, p) weighting Q."""
    return CgConfig(q_weight=tuple(np.ravel(Q))).weight_factor(len(Q))


def test_station_predict_matches_forward(trained, tiny_scenario, tiny_dataset):
    params = trained
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    lay = input_layout(scenario)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.2, 0.8, lay.n_state)
    v = rng.uniform(0.2, 0.8, lay.n_controls)
    got = station_predict(params, scenario, scaling, x, v)
    rows = np.zeros((lay.n_stations, lay.input_dim))
    rows[:, lay.z_col] = scaling.scale_z(np.asarray(scenario.sensor_stations))
    rows[:, lay.t_col] = 1.0
    rows[:, lay.v_cols] = v
    rows[:, lay.x0_cols] = x
    assert np.allclose(got, forward(params, rows).T.ravel())


def test_linearize_matches_finite_differences(trained, tiny_scenario, tiny_dataset):
    params = trained
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    lay = input_layout(scenario)
    rng = np.random.default_rng(3)
    x00 = rng.uniform(0.3, 0.7, lay.n_state)
    v00 = rng.uniform(0.3, 0.7, lay.n_controls)
    ssm = linearize(params, scenario, scaling, x00, v00)
    f0 = station_predict(params, scenario, scaling, x00, v00)
    assert np.allclose(ssm.y00, f0)
    h = 1e-6
    for j in range(lay.n_state):
        e = np.zeros(lay.n_state)
        e[j] = h
        fd = (station_predict(params, scenario, scaling, x00 + e, v00)
              - station_predict(params, scenario, scaling, x00 - e, v00)) / (2 * h)
        assert np.allclose(ssm.A[:, j], fd, atol=1e-6)
    for j in range(lay.n_controls):
        e = np.zeros(lay.n_controls)
        e[j] = h
        fd = (station_predict(params, scenario, scaling, x00, v00 + e)
              - station_predict(params, scenario, scaling, x00, v00 - e)) / (2 * h)
        assert np.allclose(ssm.B[:, j], fd, atol=1e-6)
    with pytest.raises(ConfigError):
        linearize(params, scenario, scaling, x00[:-1], v00)


def test_linearize_runs_no_kernel_pass(trained, tiny_scenario, tiny_dataset, monkeypatch):
    # the Jacobian comes from input_jacobian's reverse sweep, not from tangent rows in the kernel
    params = trained
    _, scaling = tiny_dataset
    lay = input_layout(tiny_scenario)
    calls = []
    original = network.stacked_forward

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(network, "stacked_forward", counting)
    x00, v00 = np.full(lay.n_state, 0.5), np.full(lay.n_controls, 0.5)
    ssm = linearize(params, tiny_scenario, scaling, x00, v00)
    assert calls == []
    monkeypatch.undo()
    y = station_predict(params, tiny_scenario, scaling, x00, v00)
    assert ssm.y00.tobytes() == y.tobytes()


def test_temperature_cap_one_hot(tiny_scenario, tiny_dataset):
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    lay = input_layout(scenario)
    row = temperature_cap(scenario, scaling, station_index=2, cap_kelvin=880.0, name="cap")
    c = np.asarray(row.c)
    hot = 2 * lay.n_stations + 2
    assert c[hot] == 1.0
    assert np.count_nonzero(c) == 1
    assert row.d == pytest.approx(float(scaling.scale_field("T", 880.0)))
    with pytest.raises(ConfigError):
        temperature_cap(scenario, scaling, station_index=99, cap_kelvin=880.0)


def test_constraint_schedule_selection():
    a = ConstraintSet(rows=(Constraint(c=(1.0,), d=0.5, name="a"),))
    b = ConstraintSet(rows=(Constraint(c=(1.0,), d=0.7, name="b"),))
    sched = ConstraintSchedule(entries=((0, a), (10, b)))
    assert sched.active(0) is a
    assert sched.active(9) is a
    assert sched.active(10) is b
    assert ConstraintSchedule().active(5).n_rows == 0
    with pytest.raises(ConfigError):
        ConstraintSchedule(entries=((3, a),))
    with pytest.raises(ConfigError):
        ConstraintSchedule(entries=((0, a), (0, b)))
    ConstraintSchedule(entries=((0, a), (10, a)))  # a name may return in a later entry
    for names in (("a", "a"), ("", "")):  # given or left empty, a name repeats within one entry
        twice = ConstraintSet(rows=tuple(Constraint(c=(1.0,), d=0.5, name=nm) for nm in names))
        with pytest.raises(ConfigError, match=f"{names[0]!r} repeats"):
            ConstraintSchedule(entries=((0, twice),))
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
        member = admits(oinf, dx, dv)
        brute = simulate_ok(dx, dv)
        if member:
            # membership must imply constraint satisfaction along the horizon
            assert brute
        agree += member == brute
    # the epsilon-tightened steady row may exclude a thin boundary layer
    assert agree >= 290


@pytest.mark.parametrize("horizon", [1, 2, 7, 50, 64])
@pytest.mark.parametrize("n_rows", [1, 3])
def test_oinf_matches_the_per_power_rows(rng, horizon, n_rows):
    for rho in (0.3, 0.9, 0.99):
        ssm = _toy_ssm(rng, q=18, p=2, rho=rho)
        cset = ConstraintSet(rows=tuple(
            Constraint(c=tuple(rng.standard_normal(18)), d=float(rng.uniform(0.5, 1.5))) for _ in range(n_rows)
        ))
        oinf = build_oinf(ssm, cset, horizon=horizon, epsilon=0.01)
        for got, ref in zip((oinf.H_x, oinf.H_v, oinf.h), oinf_rows_by_powers(ssm, cset, horizon, 0.01)):
            assert got.shape == ref.shape == ((horizon + 2) * n_rows,) + ref.shape[1:]
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_oinf_rejects_unstable_map(rng):
    ssm = _toy_ssm(rng, rho=1.05)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=1.0),))
    with pytest.raises(NumericalError):
        build_oinf(ssm, cset, horizon=50, epsilon=0.01)
    with pytest.raises(ConfigError):
        build_oinf(_toy_ssm(rng), ConstraintSet(), horizon=50, epsilon=0.01)


def _count_eigenvalue_checks(monkeypatch) -> list:
    """Patch ``LinearSSM.spectral_radius`` to record each call; returns the record."""
    calls, radius = [], LinearSSM.spectral_radius.fget

    def counted(ssm):
        calls.append(ssm)
        return radius(ssm)

    monkeypatch.setattr(LinearSSM, "spectral_radius", property(counted))
    return calls


def _assert_rows_by_powers(oinf, ssm, cset, horizon, epsilon):
    for got, ref in zip((oinf.H_x, oinf.H_v, oinf.h), oinf_rows_by_powers(ssm, cset, horizon, epsilon)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_oinf_certifies_schur_from_the_last_power(rng, monkeypatch):
    # a normal Schur A: A^32 (horizon 50) is far below norm 1, so no eigenvalues are taken
    calls = _count_eigenvalue_checks(monkeypatch)
    ssm = _toy_ssm(rng, rho=0.6)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=1.0),))
    _assert_rows_by_powers(build_oinf(ssm, cset, horizon=50, epsilon=0.01), ssm, cset, 50, 0.01)
    assert calls == []


def test_oinf_falls_back_to_eigenvalues_for_a_non_normal_schur_matrix(rng, monkeypatch):
    # rho = 0.9, but the off-diagonal entry makes ||A^32||_F about 1.2e3: the certificate
    # fails, the eigenvalues admit A, and the rows are the per-power ones
    calls = _count_eigenvalue_checks(monkeypatch)
    A = 0.9 * np.eye(3)
    A[0, 2] = 1e3
    ssm = dataclasses.replace(_toy_ssm(rng), A=A)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=1.0), Constraint(c=(0.0, 1.0, -1.0), d=0.5)))
    assert np.linalg.norm(np.linalg.matrix_power(A, 32)) >= 1.0
    _assert_rows_by_powers(build_oinf(ssm, cset, horizon=50, epsilon=0.01), ssm, cset, 50, 0.01)
    assert calls == [ssm]


@pytest.mark.parametrize("rho", [1.0 + 1e-3, 1e12])
@pytest.mark.parametrize("horizon", [1, 50])
def test_oinf_rejects_a_non_schur_matrix_naming_rho_without_a_warning(rng, rho, horizon):
    # at 1e12 the doubling's powers overflow; that must stay silent, and the error names rho
    ssm = _toy_ssm(rng, rho=rho)
    named = f"{np.max(np.abs(np.linalg.eigvals(ssm.A))):.4f}"
    assert float(named) == pytest.approx(rho, rel=1e-6)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=rf"not Schur \(spectral radius {named}\)"):
            build_oinf(ssm, cset, horizon=horizon, epsilon=0.01)


def test_oinf_at_horizon_1_certifies_from_a_itself(rng, monkeypatch):
    # horizon 1 squares nothing, so b = 1 and the certificate is ||A||_F < 1
    calls = _count_eigenvalue_checks(monkeypatch)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=1.0),))
    small = _toy_ssm(rng, rho=0.6)
    small = dataclasses.replace(small, A=0.5 * small.A / np.linalg.norm(small.A))
    _assert_rows_by_powers(build_oinf(small, cset, horizon=1, epsilon=0.01), small, cset, 1, 0.01)
    assert calls == []
    large = dataclasses.replace(small, A=np.diag([0.95, 0.9, -0.9]))  # Schur, ||A||_F = 1.6
    _assert_rows_by_powers(build_oinf(large, cset, horizon=1, epsilon=0.01), large, cset, 1, 0.01)
    assert calls == [large]


def test_oinf_rejects_a_negative_epsilon(rng):
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=1.0),))
    with pytest.raises(ConfigError, match="epsilon"):
        build_oinf(_toy_ssm(rng), cset, horizon=10, epsilon=-1e-3)
    build_oinf(_toy_ssm(rng), cset, horizon=10, epsilon=0.0)


def test_oinf_rejects_non_finite_state_matrix(rng):
    ssm = _toy_ssm(rng)
    A = ssm.A.copy()
    A[1, 2] = np.nan
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=1.0),))
    with pytest.raises(NumericalError, match="non-finite"):
        build_oinf(dataclasses.replace(ssm, A=A), cset, horizon=50, epsilon=0.01)


def test_srg_kappa_is_maximal(rng):
    ssm = _toy_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.2, 0.0), d=0.9, name="x"),))
    oinf = build_oinf(ssm, cset, horizon=30, epsilon=1e-4)
    clipped = 0
    for _ in range(50):
        dx = rng.uniform(-0.05, 0.05, 3)
        dv_prev = rng.uniform(-0.05, 0.05, 2)
        if not admits(oinf, dx, dv_prev):
            continue
        dr = rng.uniform(-1.0, 1.0, 2)
        kappa = srg_kappa(oinf, oinf.x00 + dx, oinf.v00 + dv_prev, oinf.v00 + dr)
        assert 0.0 <= kappa <= 1.0
        if kappa < 1.0:
            clipped += 1
            # admissible set is convex, so feasible fractions form [0, kappa]
            assert admits(oinf, dx, dv_prev + kappa * (dr - dv_prev))
            assert not admits(oinf, dx, dv_prev + min(1.0, kappa + 1e-6) * (dr - dv_prev))
    assert clipped > 0


def _governor_qp(E, F, M, gamma):
    """min 0.5 v'Ev + F'v s.t. Mv <= gamma, solved by ``cg_solve``.

    It is the governor's projection, weighted by Q = E/2, of the free
    minimizer v_free = -E^{-1}F onto rows that read no state; an empty set
    returns v_free. Returns (v, status, v_free).
    """
    v_free = -np.linalg.solve(E, F)
    oinf = OInfApprox(H_x=np.zeros((M.shape[0], 1)), H_v=M, h=gamma, x00=np.zeros(1), v00=np.zeros(M.shape[1]))
    return (*cg_solve(oinf, oinf.x00, v_free, _factor(0.5 * E), v_free), v_free)


def _projected(M, gamma, v_free):
    """cg_solve's status of a feasible QP: a reference inside the rows to 1e-9 passes through."""
    return "at_reference" if np.all(M @ v_free <= gamma + 1e-9) else "ok"


def test_least_distance_qp_single_constraint_closed_form(rng):
    # min ||v - r||^2 s.t. c.v <= d has the analytic projection solution
    for _ in range(20):
        p = 3
        r = rng.standard_normal(p)
        c = rng.standard_normal(p)
        d = rng.standard_normal() * 0.5
        E = 2.0 * np.eye(p)
        F = -2.0 * r
        v, status, v_free = _governor_qp(E, F, c[None, :], np.array([d]))
        expected = r - max(0.0, (c @ r - d) / (c @ c)) * c
        assert status == _projected(c[None, :], np.array([d]), v_free)
        assert np.allclose(v, expected, atol=1e-8)


def test_least_distance_qp_matches_slsqp_on_random_qps(rng):
    for _ in range(10):
        p = 4
        R = rng.standard_normal((p, p))
        E = R @ R.T + p * np.eye(p)
        F = rng.standard_normal(p)
        M = rng.standard_normal((6, p))
        gamma = rng.uniform(0.1, 1.0, 6)  # v=0 strictly feasible
        v, status, v_free = _governor_qp(E, F, M, gamma)
        assert status == _projected(M, gamma, v_free)
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
    _, status, _ = _governor_qp(E, F, M, gamma)
    assert status == "fallback_infeasible"
    # an impossible constant row (0 <= -0.5) is infeasible outright
    M2 = np.zeros((1, 1))
    _, status2, _ = _governor_qp(E, F, M2, np.array([-0.5]))
    assert status2 == "fallback_infeasible"


def test_least_distance_qp_nearly_parallel_rows():
    # v >= -0.0745131 and v >= -0.0745104: nearly parallel rows, as the
    # O-infinity rows C S_k B become for large k; the tighter one binds
    E = np.array([[2.0]])
    F = np.array([2.0])
    M = np.array([[-3.70], [-3.75]])
    gamma = np.array([3.70 * 0.0745131, 3.75 * 0.0745104])
    v, status, _ = _governor_qp(E, F, M, gamma)
    assert status == "ok"
    assert v[0] == pytest.approx(-0.0745104, abs=1e-12)


def test_least_distance_qp_rejects_indefinite_weight():
    E = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1: Q = E/2 is indefinite
    M = np.array([[1.0, 0.0]])
    with pytest.raises(ConfigError, match="positive definite"):
        _governor_qp(E, np.zeros(2), M, np.array([-1.0]))


def test_spectral_radius_of_non_finite_matrix_is_numerical_error(rng):
    ssm = _toy_ssm(rng)
    A = ssm.A.copy()
    A[0, 0] = np.inf
    with pytest.raises(NumericalError, match="eigenvalues"):
        dataclasses.replace(ssm, A=A).spectral_radius


def test_cg_solve_returns_reference_when_admissible(rng):
    ssm = _toy_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=50.0),))  # slack
    oinf = build_oinf(ssm, cset, horizon=20, epsilon=1e-6)
    r = ssm.v00 + np.array([0.01, -0.02])
    v, status = cg_solve(oinf, ssm.x00, r, _factor(np.eye(2)), ssm.v00)
    assert status == "at_reference"
    assert np.allclose(v, r)


def test_cg_solve_passes_a_reference_within_1e9_of_the_set():
    # the smallest margin at the reference is exactly h[0]: -1e-9 passes as at_reference,
    # -2e-9 is projected onto the row
    for h0, want in ((-1e-9, "at_reference"), (-2e-9, "ok")):
        oinf = OInfApprox(H_x=np.zeros((2, 1)), H_v=np.eye(2), h=np.array([h0, 1.0]),
                          x00=np.zeros(1), v00=np.zeros(2))
        v, status = cg_solve(oinf, oinf.x00, np.zeros(2), _factor(np.eye(2)), np.ones(2))
        assert status == want
        if want == "at_reference":
            assert np.array_equal(v, np.zeros(2))
        else:
            assert v[0] == pytest.approx(h0, abs=1e-15) and v[1] == pytest.approx(0.0, abs=1e-15)


def test_cg_config_validation():
    with pytest.raises(ConfigError):
        CgConfig(horizon=0)
    with pytest.raises(ConfigError, match="epsilon"):
        CgConfig(epsilon=-1.0)
    with pytest.raises(ConfigError, match="positive definite"):
        CgConfig(q_weight=(1.0, 0.0, 0.0, -1.0)).weight_factor(2)
    with pytest.raises(ConfigError, match="2 x 2"):
        CgConfig(q_weight=(1.0, 0.0, 1.0)).weight_factor(2)
    # W = L^{-T} with 2Q = LL': the identity's is I / sqrt(2)
    assert np.allclose(CgConfig().weight_factor(2), np.eye(2) / np.sqrt(2.0))
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    W = _factor(Q)
    assert np.allclose(W.T @ (2.0 * Q) @ W, np.eye(2))


def test_nonsymmetric_q_weight_projects_like_its_symmetric_part(rng):
    # ||v - r||_Q^2 only sees the symmetric part of Q
    ssm = _toy_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.0), d=float(ssm.x00[0]) + 0.02, name="x"),))
    oinf = build_oinf(ssm, cset, horizon=20, epsilon=1e-6)
    Q_raw = np.array([[2.0, 1.5], [-0.5, 1.0]])
    Q_sym = 0.5 * (Q_raw + Q_raw.T)
    W, W_sym = _factor(Q_raw), np.linalg.inv(np.linalg.cholesky(2.0 * Q_sym)).T
    assert np.array_equal(W, W_sym)
    projected = 0
    for _ in range(40):
        r = ssm.v00 + rng.uniform(-1.0, 1.0, 2)
        v, status = cg_solve(oinf, ssm.x00, r, W, ssm.v00)
        v_sym, status_sym = cg_solve(oinf, ssm.x00, r, W_sym, ssm.v00)
        assert status == status_sym
        assert np.allclose(v, v_sym, rtol=0.0, atol=1e-12)
        projected += status == "ok"
    assert projected > 0


def test_ncg_rollout_passthrough_without_constraints(
    trained, tiny_scenario, tiny_dataset
):
    params = trained
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    refs = np.tile([0.65, 850.0], (4, 1))
    refs[2] = [0.7, 860.0]
    log = ncg_rollout(params, scenario, scaling, refs, ConstraintSchedule(),
                      environment="model")
    assert len(log.steps) == 4
    assert np.allclose([row["v"] for row in log.steps], refs)
    assert all(row["status"] == "no_constraints" for row in log.steps)
    assert log.relinearizations == 0


def test_ncg_rollout_validates_inputs(trained, tiny_scenario, tiny_dataset):
    params = trained
    scenario = tiny_scenario
    _, scaling = tiny_dataset
    with pytest.raises(ConfigError):
        ncg_rollout(params, scenario, scaling, np.zeros((3, 5)),
                    ConstraintSchedule(), environment="model")
    with pytest.raises(ConfigError):
        ncg_rollout(params, scenario, scaling, np.tile([0.65, 850.0], (3, 1)),
                    ConstraintSchedule(), environment="plant")


def test_governed_rollout_factors_its_weighting_once(trained, tiny_scenario, tiny_dataset, monkeypatch):
    # the weighting's Cholesky factor is formed once per rollout, however many
    # linearizations and projections the rollout runs: a reference ramp drives the
    # plant past the cap, and every step relinearizes and then projects
    _, scaling = tiny_dataset
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    cap = temperature_cap(tiny_scenario, scaling, station_index=3, cap_kelvin=850.0)
    schedule = ConstraintSchedule(entries=((0, ConstraintSet(rows=(cap,))),))
    refs = np.column_stack([np.full(12, 0.65), np.linspace(840.0, 880.0, 12)])
    log = ncg_rollout(trained, tiny_scenario, scaling, refs, schedule,
                      config=CgConfig(update_interval=1, q_weight=(2.0, 0.5, 0.5, 1.0)))
    projected = [row["status"] for row in log.steps if row["status"] != "at_reference"]
    assert log.relinearizations == 12 and len(projected) >= 4, projected
    assert calls == [(2, 2)]


def test_a_cap_back_after_a_gap_relinearizes_once_the_interval_has_passed(
    trained, tiny_scenario, tiny_dataset, monkeypatch
):
    # caps on steps 0-1, none on 2-6 and caps again from step 7, linearized every 5 steps:
    # step 7's admissible set comes from a linearization at step 7, not from step 0's
    _, scaling = tiny_dataset
    steps, linearized_at = [], []
    real_predict, real_linearize = control.station_predict, control.linearize

    def counting_predict(*args):
        steps.append(len(steps))
        return real_predict(*args)

    def recording_linearize(*args):
        linearized_at.append(len(steps))
        return real_linearize(*args)

    monkeypatch.setattr(control, "station_predict", counting_predict)
    monkeypatch.setattr(control, "linearize", recording_linearize)
    caps = ConstraintSet(rows=(temperature_cap(tiny_scenario, scaling, station_index=3, cap_kelvin=850.0),))
    schedule = ConstraintSchedule(entries=((0, caps), (2, ConstraintSet()), (7, caps)))
    log = ncg_rollout(trained, tiny_scenario, scaling, np.tile([0.65, 850.0], (10, 1)), schedule,
                      config=CgConfig(update_interval=5), environment="model")
    assert len(steps) == len(log.steps) == 10
    assert linearized_at == [0, 7] and log.relinearizations == 2
