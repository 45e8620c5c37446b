"""Property suites over randomized inputs for the core invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowpsm.control import (
    Constraint,
    ConstraintSet,
    LinearSSM,
    build_oinf,
    cg_solve,
    least_distance_qp,
)
from flowpsm.diagnostics import sample_conditions, signature
from flowpsm.network import init_params
from flowpsm.training import input_layout, logcosh_np, mlp_for_scenario

from oracles import srg_kappa

RELAXED = settings(max_examples=100, deadline=None)


# ---------- scaling round-trip ----------


@RELAXED
@given(data=st.data())
def test_scaling_round_trip(tiny_dataset, data):
    _, sc = tiny_dataset
    for name, lo, hi in (
        ("p", sc.p_min, sc.p_max), ("u", sc.u_min, sc.u_max), ("T", sc.T_min, sc.T_max),
    ):
        x = data.draw(st.floats(float(lo), float(hi)), label=f"{name} physical")
        back = sc.unscale_field(name, sc.scale_field(name, x))
        assert back == pytest.approx(x, rel=1e-9, abs=1e-9)
        s = data.draw(st.floats(0.0, 1.0), label=f"{name} scaled")
        assert sc.scale_field(name, sc.unscale_field(name, s)) == pytest.approx(s, abs=1e-9)
    z = data.draw(st.floats(0.0, float(sc.z_max)), label="z")
    assert sc.unscale_z(sc.scale_z(z)) == pytest.approx(z, rel=1e-10, abs=1e-10)
    t = data.draw(st.floats(0.0, float(sc.t_max)), label="t")
    assert sc.scale_t(t) * sc.t_max == pytest.approx(t, rel=1e-10, abs=1e-10)
    v = np.array(
        [data.draw(st.floats(float(lo), float(hi)), label="v") for lo, hi in zip(sc.v_min, sc.v_max)]
    )
    assert sc.unscale_v(sc.scale_v(v)) == pytest.approx(v, rel=1e-9, abs=1e-9)


# ---------- dataset pairing ----------


@RELAXED
@given(data=st.data())
def test_every_lookahead_row_has_an_anchor_row(tiny_dataset, data):
    # rows at t = delta_t must reuse a (v, x0) pair that also appears at t = 0
    ds, _ = tiny_dataset
    ahead = np.flatnonzero(ds.t == ds.delta_t)
    i = data.draw(st.sampled_from(list(ahead)), label="lookahead row")
    anchors = np.flatnonzero(ds.t == 0.0)
    same_v = np.all(ds.v[anchors] == ds.v[i], axis=1)
    same_x0 = np.all(ds.x0[anchors] == ds.x0[i], axis=1)
    assert np.any(same_v & same_x0)


@RELAXED
@given(data=st.data())
def test_anchor_rows_echo_their_own_state(tiny_dataset, tiny_scenario, data):
    # a t = 0 row's target is the station entry of its own x0 block
    ds, _ = tiny_dataset
    lay = input_layout(tiny_scenario)
    anchors = np.flatnonzero(ds.t == 0.0)
    i = data.draw(st.sampled_from(list(anchors)), label="anchor row")
    j = np.flatnonzero(np.isclose(np.asarray(tiny_scenario.sensor_stations), ds.z[i]))[0]
    expected = ds.x0[i].reshape(3, lay.n_stations)[:, j]
    assert np.array_equal(ds.targets[i], expected)


# ---------- Log-Cosh ----------


@RELAXED
@given(x=st.floats(-1e6, 1e6, allow_nan=False))
def test_logcosh_symmetry_zero_and_bounds(x):
    fx = logcosh_np(np.array([x]))[0]
    fmx = logcosh_np(np.array([-x]))[0]
    assert fx == pytest.approx(fmx, rel=1e-12, abs=1e-300)
    assert fx >= 0.0
    assert np.isfinite(fx)
    # quadratic near zero, linear minus log 2 far away
    if abs(x) > 30.0:
        assert fx == pytest.approx(abs(x) - np.log(2.0), rel=1e-12)
    if abs(x) < 1e-4:
        assert fx == pytest.approx(0.5 * x * x, abs=1e-12)


def test_logcosh_is_exactly_zero_at_zero():
    assert logcosh_np(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


# ---------- SRG ratio test vs grid scan ----------


def _stable_ssm(rng, q=3, p=2, rho=0.55):
    A = rng.standard_normal((q, q))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((q, p))
    x00 = rng.uniform(0.3, 0.7, q)
    v00 = rng.uniform(0.3, 0.7, p)
    return LinearSSM(A=A, B=B, x00=x00, v00=v00, y00=x00 + 0.005 * rng.standard_normal(q))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_srg_bisection_matches_grid_scan(seed):
    rng = np.random.default_rng(seed)
    ssm = _stable_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.4, -0.2), d=0.9, name="mix"),))
    oinf = build_oinf(ssm, cset, horizon=30, epsilon=1e-4)
    dx = rng.uniform(-0.03, 0.03, 3)
    dv_prev = rng.uniform(-0.03, 0.03, 2)
    if not oinf.contains(dx, dv_prev):
        return
    dr = rng.uniform(-1.5, 1.5, 2)
    kappa = srg_kappa(oinf, oinf.x00 + dx, oinf.v00 + dv_prev, oinf.v00 + dr)
    grid = np.linspace(0.0, 1.0, 10001)
    feasible = np.array(
        [oinf.contains(dx, dv_prev + g * (dr - dv_prev)) for g in grid]
    )
    kappa_grid = grid[np.flatnonzero(feasible)[-1]] if feasible.any() else 0.0
    assert kappa == pytest.approx(kappa_grid, abs=1.01e-4)  # grid resolution


# ---------- QP projection closed form ----------


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_qp_single_constraint_is_euclidean_projection(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    r = rng.standard_normal(p)
    c = rng.standard_normal(p)
    if np.linalg.norm(c) < 1e-6:
        return
    d = float(rng.standard_normal())
    v, status = least_distance_qp(2.0 * np.eye(p), -2.0 * r, c[None, :], np.array([d]))
    assert status == "ok"
    expected = r - max(0.0, (c @ r - d) / (c @ c)) * c
    assert np.allclose(v, expected, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_qp_argmin_invariant_under_q_scaling(seed):
    rng = np.random.default_rng(seed)
    ssm = _stable_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.3), d=0.8, name="x"),))
    oinf = build_oinf(ssm, cset, horizon=25, epsilon=1e-4)
    r = oinf.v00 + rng.uniform(-1.0, 1.0, 2)
    v1, s1 = cg_solve(oinf, oinf.x00, r, np.eye(2), oinf.v00)
    v2, s2 = cg_solve(oinf, oinf.x00, r, 7.5 * np.eye(2), oinf.v00)
    assert s1 == s2
    if s1 == "fallback_infeasible":
        return  # an empty admissible set is empty under either weighting
    assert not s1.startswith("fallback")
    assert np.allclose(v1, v2, atol=1e-9)


def _enumerated_projection(M, gamma, dr, Q):
    """argmin ||v - dr||_Q^2 s.t. M v <= gamma for two inputs, by active sets.

    The minimizer is the free point, the projection onto one row, or the
    vertex of two rows, so it is the cheapest feasible candidate.
    """
    Q_inv = np.linalg.inv(Q)
    candidates = [dr]
    for m, g in zip(M, gamma):
        if m @ m > 0:  # the k = 0 rows do not involve v
            candidates.append(dr - Q_inv @ m * (m @ dr - g) / (m @ Q_inv @ m))
    for i, j in itertools.combinations(range(M.shape[0]), 2):
        pair = M[[i, j]]
        if abs(np.linalg.det(pair)) > 1e-12:
            candidates.append(np.linalg.solve(pair, gamma[[i, j]]))
    feasible = [v for v in candidates if np.all(M @ v <= gamma + 1e-9)]
    if not feasible:
        return None
    return min(feasible, key=lambda v: (v - dr) @ Q @ (v - dr))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=113)  # nearly coincident O-infinity rows
def test_two_input_projection_matches_active_set_enumeration(seed):
    rng = np.random.default_rng(seed)
    ssm = _stable_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.0, 0.3), d=0.8, name="x"),))
    oinf = build_oinf(ssm, cset, horizon=25, epsilon=1e-4)
    r = oinf.v00 + rng.uniform(-1.0, 1.0, 2)
    R = rng.standard_normal((2, 2))
    gamma = oinf.h  # the state sits at x00
    for Q in (np.eye(2), R @ R.T + 0.5 * np.eye(2)):
        v, status = cg_solve(oinf, oinf.x00, r, Q, oinf.v00)
        expected = _enumerated_projection(oinf.H_v, gamma, r - oinf.v00, Q)
        if expected is None:
            assert status == "fallback_infeasible"
            continue
        assert status in ("ok", "at_reference")
        assert np.allclose(v, oinf.v00 + expected, rtol=0.0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cg_never_does_worse_than_holding_the_input(seed):
    # the governed input is at least as close to the reference as v_prev is
    rng = np.random.default_rng(seed)
    ssm = _stable_ssm(rng)
    cset = ConstraintSet(rows=(Constraint(c=(0.8, 0.2, 0.0), d=0.85, name="x"),))
    oinf = build_oinf(ssm, cset, horizon=25, epsilon=1e-4)
    if not oinf.contains(np.zeros(3), np.zeros(2)):
        return
    r = oinf.v00 + rng.uniform(-1.2, 1.2, 2)
    Q = np.eye(2)
    v, status = cg_solve(oinf, oinf.x00, r, Q, oinf.v00)
    assert not status.startswith("fallback")
    held = oinf.v00 - r
    moved = v - r
    assert moved @ Q @ moved <= held @ Q @ held + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=796)  # nearly parallel O-infinity rows
def test_scalar_governor_matches_projection_for_one_input(seed):
    # with a single control channel the step-fraction endpoint and the
    # projected input coincide: both clamp r to the feasible interval
    rng = np.random.default_rng(seed)
    ssm = _stable_ssm(rng, q=3, p=1)
    cset = ConstraintSet(rows=(Constraint(c=(1.0, 0.5, 0.0), d=0.95, name="x"),))
    oinf = build_oinf(ssm, cset, horizon=25, epsilon=1e-4)
    if not oinf.contains(np.zeros(3), np.zeros(1)):
        return
    r = oinf.v00 + rng.uniform(-1.5, 1.5, 1)
    kappa = srg_kappa(oinf, oinf.x00, oinf.v00, r)
    endpoint = oinf.v00 + kappa * (r - oinf.v00)
    v, status = cg_solve(oinf, oinf.x00, r, np.eye(1), oinf.v00)
    assert not status.startswith("fallback")
    assert np.allclose(v, endpoint, atol=1e-9)


# ---------- signature of identical models ----------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_signature_of_model_with_itself_vanishes(tiny_scenario, tiny_dataset, seed):
    dataset, scaling = tiny_dataset
    spec = mlp_for_scenario(tiny_scenario, widths=(6, 5, 4))
    params = init_params(spec, seed=seed)
    v, x0 = sample_conditions(dataset, tiny_scenario, scaling, 2, seed=seed)
    sig = signature(spec, params, params, tiny_scenario, scaling, v, x0)
    assert np.all(sig.difference == 0.0)
    assert np.all(sig.scaled == 0.0)
