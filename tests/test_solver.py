"""Reference solver: steady states, stepping, records, trajectories."""

from dataclasses import replace

import numpy as np
import pytest

from flowpsm import solver
from flowpsm.errors import NumericalError
from flowpsm.solver import (
    FieldState,
    InputTrajectory,
    SolverConfig,
    generate_trajectories,
    inject_degradation,
    run_experiment,
    run_experiments,
    sensor_readout,
    steady_state,
    step,
    step_with_audit,
)
from flowpsm.transport import (
    ConfigError,
    build_grid,
    density,
    heated_channel_preset,
    loop_preset,
    scenario_fingerprint,
)

from conftest import tiny_channel


@pytest.fixture(scope="module")
def scenario():
    return tiny_channel()


@pytest.fixture(scope="module")
def steady(scenario):
    return steady_state(scenario, np.array([0.65, 844.65]))


def test_steady_state_energy_balance(scenario, steady):
    # analytic outlet rise: q''' * L_heated / (rho(T_in) * u_in * cp)
    q = scenario.segments[1].heat_source
    rho = density(scenario.fluid, 844.65)
    expected = q * 0.5 / (rho * 0.65 * scenario.fluid.cp)
    rise = steady.T[-1] - steady.T[0]
    assert rise == pytest.approx(expected, rel=0.05)
    # temperature rises only across the heated middle segment
    third = steady.T.size // 3
    assert np.ptp(steady.T[:third]) < 0.05 * rise
    assert np.ptp(steady.T[-third:]) < 0.05 * rise


def test_steady_state_mass_flux_uniform(scenario, steady):
    flux = density(scenario.fluid, steady.T) * steady.u
    assert np.ptp(flux) / np.mean(flux) < 1e-3


def test_adiabatic_steady_state_is_isothermal(scenario):
    cold = scenario.__class__(**{**scenario.__dict__,
                                 "segments": tuple(
                                     s.__class__(**{**s.__dict__, "heat_source": 0.0})
                                     for s in scenario.segments)})
    state = steady_state(cold, np.array([0.6, 850.0]))
    assert np.allclose(state.T, 850.0, atol=1e-6)
    assert np.allclose(state.u, 0.6, atol=1e-9)


def test_step_is_deterministic_and_respects_zoh(scenario, steady):
    cfg = SolverConfig()
    v = np.array([0.7, 860.0])
    a = step(steady, v, scenario, cfg)
    b = step(steady, v, scenario, cfg)
    assert np.array_equal(a.T, b.T) and np.array_equal(a.p, b.p)
    # re-stepping a converged state with the same inputs stays put
    held = step(steady, np.array([0.65, 844.65]), scenario, cfg)
    assert np.max(np.abs(held.T - steady.T)) < 1e-6


def test_step_rejects_courant_violation(scenario, steady):
    with pytest.raises(NumericalError):
        step(steady, np.array([0.65, 844.65]), scenario, SolverConfig(substep=2.5))


def test_step_reports_nonconvergence(scenario, steady):
    with pytest.raises(NumericalError):
        step(steady, np.array([0.7, 880.0]), scenario,
             SolverConfig(substep=0.05, tol=1e-14, max_iters=1))


def test_solver_config_validation(scenario, steady):
    with pytest.raises(ConfigError):
        step(steady, np.array([0.65, 844.65]), scenario, SolverConfig(substep=0.4))
    with pytest.raises(ConfigError):
        step(steady, np.array([0.65, 844.65]), scenario, SolverConfig(substep=-0.1))


def _mid(sc):
    """Control vector at the midpoint of every input range."""
    return np.array([(lo + hi) / 2.0 for lo, hi in sc.input_ranges])


def _loop_with(changes: dict):
    """The loop preset with per-segment field overrides {index: {field: value}}."""
    sc = loop_preset()
    segs = list(sc.segments)
    for i, fields in changes.items():
        segs[i] = replace(segs[i], **fields)
    return replace(sc, segments=tuple(segs))


def _loop_pinned_mid_heater_leg():
    """The loop preset pinned at cell 37 (not the bench's cell 0) at a nonzero pressure."""
    return replace(loop_preset(), reference_cell=37, reference_pressure=2.0e3)


def test_steady_state_rejects_bad_inputs(scenario):
    with pytest.raises(ConfigError):
        steady_state(scenario, np.array([0.65]))  # wrong control count
    with pytest.raises(ConfigError):
        steady_state(scenario, np.array([0.9, 844.65]))  # u_in beyond the extended range
    with pytest.raises(ConfigError):
        steady_state(loop_preset(), np.array([50.0e6, 3000.0]))  # pump head beyond it


def test_steady_state_without_a_steady_state_raises(scenario):
    # the cooler removes only 90% of the heat: the loop's enthalpy grows forever
    leaky = _loop_with({4: {"source_scale": -0.9}})
    with pytest.raises(NumericalError, match="do not cancel"):
        steady_state(leaky, _mid(leaky))
    # a pump head range centred on zero: no forward mass flux balances it
    idle = replace(loop_preset(), input_ranges=((45.0e6, 55.0e6), (-100.0, 100.0)))
    with pytest.raises(NumericalError, match="pump head"):
        steady_state(idle, _mid(idle))
    # a heater hot enough to push the outlet past the closure's vertex
    hot = replace(scenario, segments=tuple(
        replace(s, heat_source=1.0e4 * s.heat_source) for s in scenario.segments))
    with pytest.raises(NumericalError, match="invertible"):
        steady_state(hot, np.array([0.65, 844.65]))


STEADY_SCALES = {"p": 1.0e3, "u": 1.0, "T": 100.0}  # Pa, m/s, K


@pytest.mark.parametrize("name", ["channel", "loop", "loop_x10_friction", "loop_gravity", "loop_ref37"])
@pytest.mark.parametrize("where", ["low", "mid", "high"])
def test_steady_state_is_a_fixed_point_of_step(name, where):
    sc = {
        "channel": heated_channel_preset,
        "loop": loop_preset,
        "loop_x10_friction": lambda: inject_degradation(loop_preset(), 3, 10.0),
        # heater leg rising, cooler leg falling: buoyancy helps the pump
        "loop_gravity": lambda: _loop_with({1: {"gravity_component": -9.81},
                                            4: {"gravity_component": 9.81}}),
        "loop_ref37": _loop_pinned_mid_heater_leg,
    }[name]()
    lo, hi = (np.array([r[k] for r in sc.input_ranges]) for k in (0, 1))
    v = {"low": lo, "mid": 0.5 * (lo + hi), "high": hi}[where]
    start = steady_state(sc, v)
    assert start.u_face is not None
    moved = step(start, v, sc)
    for f, scale in STEADY_SCALES.items():
        assert np.max(np.abs(getattr(moved, f) - getattr(start, f))) <= 1e-8 * scale, f


@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
def test_loop_steady_state_keeps_reference_enthalpy(where):
    sc = inject_degradation(loop_preset(), 3, 10.0)
    lo, hi = (np.array([r[k] for r in sc.input_ranges]) for k in (0, 1))
    state = steady_state(sc, lo + where * (hi - lo))
    dz = build_grid(sc).dz
    enthalpy = float(np.sum(density(sc.fluid, state.T) * state.T * dz))
    T_ref = sc.reference_temperature
    reference = float(density(sc.fluid, T_ref)) * T_ref * float(np.sum(dz))
    assert abs(enthalpy - reference) <= 1e-12 * reference
    assert state.p[sc.reference_cell] == sc.reference_pressure
    assert np.ptp(state.T) > 10.0  # a real heater/cooler profile, not the uniform start


def test_run_experiment_record_invariants(scenario):
    trajs = generate_trajectories(7, scenario, 1)
    traj = trajs[0]
    start = steady_state(scenario, traj.value(0.0))
    rec = run_experiment(scenario, traj, start)
    K = round(scenario.episode_duration / scenario.delta_t)
    assert rec.n_steps == K
    assert np.allclose(np.diff(rec.times), scenario.delta_t)
    assert rec.p.shape == (K + 1, build_grid(scenario).n_cells)
    assert rec.scenario_hash == scenario_fingerprint(scenario)
    # v rows are the trajectory sampled at interval left endpoints
    for k in range(K):
        assert np.allclose(rec.v[k], traj.value(k * scenario.delta_t))
    # sensors are the interpolated fields at the stations
    for k in (0, K // 2, K):
        for f, name in enumerate(("p", "u", "T")):
            grid_vals = getattr(rec, name)[k]
            expected = np.interp(rec.station_z, rec.grid_z, grid_vals)
            assert np.allclose(rec.sensors[k, f], expected)


def test_run_experiment_is_deterministic(scenario):
    traj = generate_trajectories(11, scenario, 1)[0]
    start = steady_state(scenario, traj.value(0.0))
    a = run_experiment(scenario, traj, start)
    b = run_experiment(scenario, traj, start)
    assert np.array_equal(a.T, b.T)
    assert np.array_equal(a.sensors, b.sensors)


def test_generate_trajectories_contract(scenario):
    trajs = generate_trajectories(5, scenario, 4)
    again = generate_trajectories(5, scenario, 4)
    assert len(trajs) == 4
    tt = np.linspace(0.0, scenario.episode_duration, 300)
    for tj, tj2 in zip(trajs, again):
        vals = np.array([tj.value(t) for t in tt])
        vals2 = np.array([tj2.value(t) for t in tt])
        assert np.array_equal(vals, vals2)  # bit-identical on repeat
        for j, (lo, hi) in enumerate(scenario.input_ranges):
            assert np.all(vals[:, j] >= lo - 1e-12)
            assert np.all(vals[:, j] <= hi + 1e-12)
    # different seeds and different experiments differ
    other = generate_trajectories(6, scenario, 4)
    assert not np.allclose(
        [tj.value(50.0) for tj in trajs], [tj.value(50.0) for tj in other]
    )
    with pytest.raises(ConfigError):
        generate_trajectories(5, scenario, 0)


def test_trajectory_knots_validate():
    with pytest.raises(ConfigError):
        InputTrajectory(
            channels=("a",),
            knot_times=(np.array([1.0, 2.0]),),  # must start at 0
            knot_values=(np.array([0.0, 1.0]),),
        )
    with pytest.raises(ConfigError):
        InputTrajectory(
            channels=("a",),
            knot_times=(np.array([0.0, 2.0, 1.0]),),
            knot_values=(np.array([0.0, 1.0, 2.0]),),
        )


def test_sensor_readout_interpolates():
    grid_z = np.linspace(0.05, 0.95, 10)
    state = FieldState(grid_z=grid_z, p=np.arange(10.0), u=np.ones(10), T=800 + np.arange(10.0))
    out = sensor_readout(state, np.array([0.05, 0.5, 0.95]))
    assert out.shape == (3, 3)
    assert np.allclose(out[0], np.interp([0.05, 0.5, 0.95], grid_z, state.p))
    assert np.allclose(out[2], np.interp([0.05, 0.5, 0.95], grid_z, state.T))


def test_inject_degradation(scenario):
    worse = inject_degradation(scenario, 1, 10.0)
    assert worse.segments[1].friction_factor == pytest.approx(
        10.0 * scenario.segments[1].friction_factor
    )
    assert worse.segments[0].friction_factor == scenario.segments[0].friction_factor
    assert scenario_fingerprint(worse) != scenario_fingerprint(scenario)
    with pytest.raises(ConfigError):
        inject_degradation(scenario, 99, 10.0)
    with pytest.raises(ConfigError):
        inject_degradation(scenario, 0, 0.0)


@pytest.mark.parametrize("preset", [heated_channel_preset, loop_preset])
def test_step_matches_step_with_audit(preset):
    sc = preset()
    lo = np.array([r[0] for r in sc.input_ranges])
    state = steady_state(sc, lo)
    v = _mid(sc)
    plain = step(state, v, sc)
    audited, audit = step_with_audit(state, v, sc)
    assert audit
    for f in ("p", "u", "T", "u_face"):
        assert np.array_equal(getattr(plain, f), getattr(audited, f)), f


@pytest.mark.parametrize("preset", [heated_channel_preset, loop_preset, _loop_pinned_mid_heater_leg])
def test_step_with_audit_closes_mass_and_enthalpy(preset):
    sc = preset()
    # start steady at the low end of the ranges and step at mid inputs, so
    # the audit sees a real transient
    state = start = steady_state(sc, np.array([r[0] for r in sc.input_ranges]))
    v = _mid(sc)
    grid = build_grid(sc)
    area = sc.segments[0].flow_area
    for _ in range(3):
        state, audit = step_with_audit(state, v, sc)
        mass = float(np.sum(density(sc.fluid, state.T) * grid.dz)) * area
        enthalpy = float(np.sum(density(sc.fluid, state.T) * state.T * grid.dz)) * area * sc.fluid.cp
        assert audit["mass_total"] == pytest.approx(mass, rel=1e-12)
        # one identity on both rigs: the loop's cyclic fluxes telescope and
        # its sources cancel; the channel has no pinned cell
        mass_gap = audit["mass_change"] - (audit["mass_boundary"] + audit["pinned_mass_change"])
        enthalpy_gap = audit["enthalpy_change"] - (audit["enthalpy_boundary"] + audit["enthalpy_source"])
        assert abs(mass_gap) <= 1e-12 * mass
        assert abs(enthalpy_gap) <= 1e-12 * enthalpy
    assert np.max(np.abs(state.u - start.u)) > 0.05  # the audit saw a real transient


def _dense_loop_substep(sc, p_c, T_c, u_f, v, dt, cfg):
    """One loop substep with the pinned-cyclic pressure system assembled as a
    dense matrix and solved by LU: the solver's former path, kept as an oracle."""
    plan = solver._plan(sc)
    a, b, cp = sc.fluid.rho_a, sc.fluid.rho_b, sc.fluid.cp
    dz = plan.grid.dz
    n = dz.size
    idx = np.arange(n)
    left = np.roll(idx, 1)
    rho_c = density(sc.fluid, T_c)
    h = rho_c * T_c
    phi = np.empty(n + 1)
    phi[:n] = u_f[:n] * np.where(u_f[:n] >= 0.0, h[left], h)
    phi[n] = phi[0]
    h_new = h - (dt / dz) * (phi[1:] - phi[:-1]) + dt * (plan.q_fixed + plan.q_ctrl @ v) / cp
    T_new = (a - np.sqrt(a * a - 4.0 * b * h_new)) / (2.0 * b)
    rho_new = a - b * T_new
    pos = u_f[:n] >= 0.0
    rho_f = np.append(np.where(pos, rho_new[left], rho_new), 0.0)
    rho_f[n] = rho_f[0]
    adv = np.empty(n + 1)
    adv[:n] = u_f[:n] * np.where(pos, (u_f[:n] - u_f[left]) / dz[left], (u_f[1:] - u_f[:n]) / dz)
    adv[n] = adv[0]
    m_i = -dz * (rho_new - rho_c) / dt
    dp_pump = v[sc.channel_index("dp_pump")]
    re = sc.reference_cell
    u_k = u_f.copy()
    for _ in range(cfg.max_iters):
        D = rho_f * (1.0 / dt + plan.fric * np.abs(u_k) / 2.0)
        uhat = rho_f * (u_f / dt - adv + plan.grav) / D
        e = 1.0 / (plan.dzf * D)
        el, er = rho_f[:n] * e[:n], rho_f[1:] * e[1:]
        rhs = m_i - rho_f[1:] * uhat[1:] + rho_f[:n] * uhat[:n]
        A = np.diag(el + er)
        A[idx, idx - 1] -= el
        A[idx, (idx + 1) % n] -= er
        rhs[0] += el[0] * dp_pump
        rhs[n - 1] -= er[n - 1] * dp_pump
        A[re, :] = 0.0
        A[re, re] = 1.0
        rhs[re] = sc.reference_pressure
        p = np.linalg.solve(A, rhs)
        dpf = np.append(p - p[left], 0.0)
        dpf[0] -= dp_pump
        dpf[n] = dpf[0]
        u_next = uhat - e * dpf
        u_next[n] = u_next[0]
        du = np.max(np.abs(u_next - u_k))
        u_k = u_next
        if du < cfg.tol * max(1.0, np.max(np.abs(u_k))):
            return p, T_new, u_k
    raise AssertionError("oracle Picard iteration did not converge")


def test_pinned_loop_substep_matches_dense_oracle():
    sc = _loop_pinned_mid_heater_leg()
    lo = np.array([r[0] for r in sc.input_ranges])
    hi = np.array([r[1] for r in sc.input_ranges])
    state = step(steady_state(sc, lo), hi, sc)  # mid-transient fields
    cfg = SolverConfig()
    plan = solver._plan(sc)
    fields = (state.p, state.T, state.u_face)
    p, T, u_f = (x[0] for x in solver._substep(plan, sc, *(x[None] for x in fields), hi[None],
                                                cfg.substep, cfg, None))
    p_ref, T_ref, u_ref = _dense_loop_substep(sc, *fields, hi, cfg.substep, cfg)
    assert p[sc.reference_cell] == sc.reference_pressure
    assert np.max(np.abs(p - p_ref)) <= 1e-12 * STEADY_SCALES["p"]
    assert np.max(np.abs(u_f - u_ref)) <= 1e-12 * STEADY_SCALES["u"]
    assert np.max(np.abs(T - T_ref)) <= 1e-12 * STEADY_SCALES["T"]
    assert np.max(np.abs(u_f - state.u_face)) > 1e-6  # the substep moved the flow


def _short(sc, steps: int = 3):
    return replace(sc, episode_duration=steps * sc.delta_t)


@pytest.mark.parametrize("preset", [heated_channel_preset, loop_preset])
def test_run_experiments_matches_single_episodes(preset, monkeypatch):
    sc = _short(preset())
    lo = np.array([r[0] for r in sc.input_ranges])
    # a held steady state converges in one Picard sweep per substep, the
    # random schedules need more
    hold = InputTrajectory(channels=sc.control_channels,
                           knot_times=tuple(np.zeros(1) for _ in lo),
                           knot_values=tuple(np.array([x]) for x in lo))
    trajs = [hold] + generate_trajectories(3, sc, 2)
    starts = [steady_state(sc, tj.value(0.0)) for tj in trajs]

    sweeps = []
    solve = solver._solve_tridiagonal

    def counted(*args):
        sweeps[-1] += 1
        return solve(*args)

    monkeypatch.setattr(solver, "_solve_tridiagonal", counted)
    alone = []
    for tj, st in zip(trajs, starts):
        sweeps.append(0)
        alone.append(run_experiment(sc, tj, st))
    assert len(set(sweeps)) == len(sweeps)  # every episode needs its own sweep count
    together = run_experiments(sc, trajs, starts)
    for a, b in zip(alone, together):
        for f in ("times", "p", "u", "T", "v", "sensors", "station_z", "grid_z"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), f
        assert a.scenario_hash == b.scenario_hash


def test_run_experiments_names_the_failing_episode(scenario):
    sc = _short(scenario)
    trajs = generate_trajectories(9, sc, 3)
    starts = [steady_state(sc, tj.value(0.0)) for tj in trajs]
    starts[1] = replace(starts[1], u_face=10.0 * starts[1].u_face)  # Courant number about 3
    with pytest.raises(NumericalError, match=r"Courant .* in episode 1\b"):
        run_experiments(sc, trajs, starts)
    with pytest.raises(ConfigError):
        run_experiments(sc, trajs, starts[:2])


@pytest.mark.parametrize("preset", [heated_channel_preset, loop_preset])
@pytest.mark.parametrize("field", ["p", "T", "u_face"])
def test_non_finite_start_state_raises_numerical_error(preset, field):
    sc = preset()
    v = _mid(sc)
    start = steady_state(sc, v)
    bad = getattr(start, field).copy()
    bad[3] = np.nan
    with pytest.raises(NumericalError, match=rf"non-finite {field} in the start state of episode 0"):
        step(replace(start, **{field: bad}), v, sc)
    trajs = generate_trajectories(4, _short(sc, 1), 2)
    starts = [start, replace(start, **{field: bad})]
    with pytest.raises(NumericalError, match=rf"non-finite {field} .* episode 1"):
        run_experiments(_short(sc, 1), trajs, starts)


def test_non_finite_inputs_are_rejected(scenario, steady):
    with pytest.raises(ConfigError):
        step(steady, np.array([np.nan, 844.65]), scenario)
