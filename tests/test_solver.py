"""Reference solver: steady states, stepping, records, trajectories."""

import math
from dataclasses import replace

import numpy as np
import pytest

from flowpsm import solver
from flowpsm.errors import NumericalError
from flowpsm.solver import (
    FieldState,
    SolverConfig,
    generate_trajectories,
    inject_degradation,
    run_experiments,
    sensor_readout,
    steady_state,
    step,
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


def _loop_x10_friction():
    return inject_degradation(loop_preset(), segment_index=3, friction_multiplier=10.0)


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


@pytest.mark.parametrize("make", [loop_preset, _loop_x10_friction], ids=["nominal", "x10_friction"])
def test_loop_mass_flux_is_brentq_bit_for_bit(monkeypatch, make):
    # _brentq ports the reference Brent root finder step for step, so G is the
    # same float on a grid of heater powers and pump heads spanning the slack
    from scipy.optimize import brentq

    roots = []
    own = solver._brentq

    def both(f, xa, xb, *args):
        G = own(f, xa, xb, *args)
        roots.append((G, brentq(f, xa, xb)))
        return G

    monkeypatch.setattr(solver, "_brentq", both)
    sc = make()
    lo, hi = (np.array([r[k] for r in sc.input_ranges]) for k in (0, 1))
    for q in np.linspace(-0.1, 1.1, 7):
        for dp in np.linspace(-0.1, 1.1, 9):
            steady_state(sc, lo + np.array([q, dp]) * (hi - lo))
    assert len(roots) == 63
    assert all(G == ref for G, ref in roots)


def test_brentq_is_the_reference_root_on_curved_functions():
    # the loop residual is nearly linear, so its roots take 3-4 steps; cubics
    # with a sine ripple exercise the extrapolation and bisection branches too
    from scipy.optimize import brentq

    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        c = rng.uniform(-5.0, 5.0, 4)
        a, b = -rng.uniform(0.0, 100.0), rng.uniform(1e-3, 300.0)

        def f(x):
            return c[0] * (x - c[1]) ** 3 + c[2] * (x - c[1]) + c[3] * math.sin(x)

        fa, fb = f(a), f(b)
        if (fa < 0.0) == (fb < 0.0):
            continue
        assert solver._brentq(f, a, b, fa, fb, "test") == brentq(f, a, b)
        checked += 1
    assert checked > 100


STEADY_SCALES = {"p": 1.0e3, "u": 1.0, "T": 100.0}  # Pa, m/s, K


def _constant_density(preset):
    """The preset with rho_b = 0, where the energy update's T is h / rho_a."""
    sc = preset()
    return replace(sc, fluid=replace(sc.fluid, rho_b=0.0))


@pytest.mark.parametrize("name", ["channel", "loop", "loop_x10_friction", "loop_gravity", "loop_ref37",
                                  "channel_rho_b_0", "loop_rho_b_0"])
@pytest.mark.parametrize("where", ["low", "mid", "high"])
def test_steady_state_is_a_fixed_point_of_step(name, where):
    sc = {
        "channel": heated_channel_preset,
        "loop": loop_preset,
        "loop_x10_friction": _loop_x10_friction,
        # heater leg rising, cooler leg falling: buoyancy helps the pump
        "loop_gravity": lambda: _loop_with({1: {"gravity_component": -9.81},
                                            4: {"gravity_component": 9.81}}),
        "loop_ref37": _loop_pinned_mid_heater_leg,
        "channel_rho_b_0": lambda: _constant_density(heated_channel_preset),
        "loop_rho_b_0": lambda: _constant_density(loop_preset),
    }[name]()
    lo, hi = (np.array([r[k] for r in sc.input_ranges]) for k in (0, 1))
    v = {"low": lo, "mid": 0.5 * (lo + hi), "high": hi}[where]
    start = steady_state(sc, v)
    moved = step(start, v, sc)
    for f, scale in STEADY_SCALES.items():
        assert np.max(np.abs(getattr(moved, f) - getattr(start, f))) <= 1e-8 * scale, f


@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
def test_loop_steady_state_keeps_reference_enthalpy(where):
    sc = inject_degradation(loop_preset(), segment_index=3, friction_multiplier=10.0)
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
    inputs = generate_trajectories(7, scenario, 1)
    start = steady_state(scenario, inputs[0, 0])
    rec = run_experiments(scenario, inputs, [start])[0]
    K = round(scenario.episode_duration / scenario.delta_t)
    assert rec.n_steps == K
    assert np.allclose(np.diff(rec.times), scenario.delta_t)
    assert rec.p.shape == (K + 1, build_grid(scenario).n_cells)
    assert rec.scenario_hash == scenario_fingerprint(scenario)
    # v rows are the held inputs, one per control time
    assert np.array_equal(rec.v, inputs[0])
    # sensors are the interpolated fields at the stations
    for k in (0, K // 2, K):
        for f, name in enumerate(("p", "u", "T")):
            grid_vals = getattr(rec, name)[k]
            expected = np.interp(rec.station_z, rec.grid_z, grid_vals)
            assert np.allclose(rec.sensors[k, f], expected)


def test_run_experiment_is_deterministic(scenario):
    inputs = generate_trajectories(11, scenario, 1)
    start = steady_state(scenario, inputs[0, 0])
    a = run_experiments(scenario, inputs, [start])[0]
    b = run_experiments(scenario, inputs, [start])[0]
    assert np.array_equal(a.T, b.T)
    assert np.array_equal(a.sensors, b.sensors)


def test_generate_trajectories_contract(scenario):
    inputs = generate_trajectories(5, scenario, 4)
    K = round(scenario.episode_duration / scenario.delta_t)
    assert inputs.shape == (4, K + 1, scenario.n_controls)
    assert np.array_equal(inputs, generate_trajectories(5, scenario, 4))  # bit-identical on repeat
    for j, (lo, hi) in enumerate(scenario.input_ranges):
        assert np.all(inputs[..., j] >= lo - 1e-12)
        assert np.all(inputs[..., j] <= hi + 1e-12)
    # the inputs move at the control cadence, and experiments differ
    assert np.all(np.abs(np.diff(inputs, axis=1)).max(axis=1) > 0.0)
    assert not np.allclose(inputs[0], inputs[1])
    # experiment k is drawn from its own stream: a larger corpus starts with the smaller one
    assert np.array_equal(generate_trajectories(5, scenario, 2), inputs[:2])
    # different seeds differ
    assert not np.allclose(inputs, generate_trajectories(6, scenario, 4))
    with pytest.raises(ConfigError):
        generate_trajectories(5, scenario, 0)


def test_run_experiments_takes_inputs_shaped_by_its_starts(scenario):
    sc = _short(scenario)
    inputs = generate_trajectories(3, sc, 2)
    starts = [steady_state(sc, v) for v in inputs[:, 0]]
    run_experiments(sc, inputs, starts)
    bad = {
        "one episode short": inputs[:1],
        "a control time short": inputs[:, :-1],
        "a control short": inputs[..., :1],
        "no episode axis": inputs[0],
    }
    for why, x in bad.items():
        with pytest.raises(ConfigError, match=r"inputs of shape \(E, K\+1, m\)"):
            run_experiments(sc, x, starts)
    with pytest.raises(ConfigError, match="at least one start state"):
        run_experiments(sc, inputs[:0], [])


def test_sensor_readout_interpolates():
    grid_z = np.linspace(0.05, 0.95, 10)
    state = FieldState(grid_z=grid_z, p=np.arange(10.0), T=800 + np.arange(10.0), u_face=np.arange(11.0))
    out = sensor_readout(state, np.array([0.05, 0.5, 0.95]))
    assert out.shape == (3, 3)
    assert np.allclose(out[0], np.interp([0.05, 0.5, 0.95], grid_z, state.p))
    assert np.allclose(out[1], [0.5, 5.0, 9.5])  # the face velocities' center averages
    assert np.allclose(out[2], np.interp([0.05, 0.5, 0.95], grid_z, state.T))


def test_inject_degradation(scenario):
    worse = inject_degradation(scenario, segment_index=1, friction_multiplier=10.0)
    assert worse.segments[1].friction_factor == pytest.approx(
        10.0 * scenario.segments[1].friction_factor
    )
    assert worse.segments[0].friction_factor == scenario.segments[0].friction_factor
    assert scenario_fingerprint(worse) != scenario_fingerprint(scenario)
    with pytest.raises(ConfigError):
        inject_degradation(scenario, segment_index=99, friction_multiplier=10.0)
    with pytest.raises(ConfigError):
        inject_degradation(scenario, segment_index=0, friction_multiplier=0.0)


@pytest.mark.parametrize("preset", [heated_channel_preset, loop_preset])
def test_one_substep_steps_chain_into_one_step(preset):
    # 100 steps of one substep each give the fields of one 100-substep step, bit for bit
    sc = preset()
    v, cfg = _mid(sc), SolverConfig()
    state = start = _low_steady(sc)
    substep_sc = replace(sc, delta_t=cfg.substep)
    for _ in range(cfg.n_substeps(sc.delta_t)):
        state = step(state, v, substep_sc, cfg)
    whole = step(start, v, sc, cfg)
    for f in ("p", "u", "T", "u_face"):
        assert np.array_equal(getattr(state, f), getattr(whole, f)), f


def _loop_x1000_friction():
    return _loop_with({i: {"friction_factor": 1000.0 * seg.friction_factor}
                       for i, seg in enumerate(loop_preset().segments)})


def _low_steady(sc):
    return steady_state(sc, np.array([r[0] for r in sc.input_ranges]))


def _tripled_reversal(sc):
    """Three times the negated steady velocities at the mid inputs.

    Under heavy friction the all-forward momentum quadratic has no real
    root here, so the loop's mass flux must come from the breakpoint search.
    """
    steady = steady_state(sc, _mid(sc))
    return replace(steady, u_face=-3.0 * steady.u_face)


def _substep_gap(sc, v, old: FieldState, new: FieldState) -> np.ndarray:
    """How far one substep's mass and enthalpy changes miss what its boundary and sources add.

    ``new`` is ``old`` stepped over a delta_t of one substep, and the gap is
    recomputed from the two states alone. Every cell but the loop's pinned
    one keeps continuity exactly, so the mass change is the net inflow into
    the other cells plus the pinned cell's own change. That inflow is the new
    face velocity times the new density upwind by the old face signs, at the
    channel's ends or at the loop's two faces of the pinned cell. The
    enthalpy change is the net inflow of h = rho T, upwind at the old
    velocities (on the loop, faces 0 and n are one face), plus the source.
    Both are per unit flow area: kg and J.
    """
    grid, fluid = build_grid(sc), sc.fluid
    n = grid.n_cells
    u_old = old.u_face.copy()
    rho_old, rho_new = density(fluid, old.T), density(fluid, new.T)
    h_old, h_new = rho_old * old.T, rho_new * new.T
    if sc.kind == "loop":  # cyclic ghosts
        rho_pad, h_pad = (np.r_[x[-1], x, x[0]] for x in (rho_new, h_old))
        faces, pinned = ((sc.reference_cell + 1) % n, sc.reference_cell), sc.reference_cell
    else:  # T_in is the inlet's ghost, and the outlet does not reverse
        u_in, T_in = (v[sc.channel_index(c)] for c in ("u_in", "T_in"))
        u_old[0] = u_in  # a step starts the inlet face at u_in
        rho_in = float(density(fluid, T_in))
        rho_pad, h_pad = np.r_[rho_in, rho_new, rho_new[-1]], np.r_[rho_in * T_in, h_old, h_old[-1]]
        faces, pinned = (0, n), None

    def upwind(x, j):  # face j sits between padded cells j and j + 1
        return x[j] if u_old[j] >= 0.0 else x[j + 1]

    mass_in = sc.delta_t * (upwind(rho_pad, faces[0]) * new.u_face[faces[0]]
                            - upwind(rho_pad, faces[1]) * new.u_face[faces[1]])
    if pinned is not None:
        mass_in += grid.dz[pinned] * (rho_new[pinned] - rho_old[pinned])
    heat = np.array([seg.heat_source + (0.0 if seg.volumetric_source_id is None else
                                        seg.source_scale * v[sc.channel_index(seg.volumetric_source_id)])
                     for seg in (sc.segments[i] for i in grid.segment_of_cell)])
    enthalpy_in = sc.delta_t * (fluid.cp * (u_old[0] * upwind(h_pad, 0) - u_old[n] * upwind(h_pad, n))
                                + heat @ grid.dz)
    return np.array([(rho_new - rho_old) @ grid.dz - mass_in, fluid.cp * (h_new - h_old) @ grid.dz - enthalpy_in])


@pytest.mark.parametrize("preset, initial", [
    (heated_channel_preset, _low_steady),
    (loop_preset, _low_steady),
    (_loop_pinned_mid_heater_leg, _low_steady),
    (_loop_x1000_friction, _tripled_reversal),
], ids=["heated_channel_preset", "loop_preset", "_loop_pinned_mid_heater_leg", "loop_x1000_friction_reversed"])
def test_step_with_audit_closes_mass_and_enthalpy(preset, initial):
    # the step, audited from outside one substep at a time: each substep is
    # a step of one substep, and test_one_substep_steps_chain_into_one_step
    # shows that their chain is the whole step
    sc = preset()
    # step at mid inputs from a start away from their steady state, so the
    # audit sees a real transient
    state = start = initial(sc)
    v, cfg = _mid(sc), SolverConfig()
    substep_sc = replace(sc, delta_t=cfg.substep)
    dz = build_grid(sc).dz
    for _ in range(3):
        gap = np.zeros(2)
        for _ in range(cfg.n_substeps(sc.delta_t)):
            new = step(state, v, substep_sc, cfg)
            gap += _substep_gap(substep_sc, v, state, new)
            state = new
        rho = density(sc.fluid, state.T)
        mass, enthalpy = rho @ dz, sc.fluid.cp * (rho * state.T) @ dz
        assert abs(gap[0]) <= 1e-12 * mass
        assert abs(gap[1]) <= 1e-12 * enthalpy
    assert np.max(np.abs(state.u - start.u)) > 0.05  # the audit saw a real transient


ORACLE_TOL = 1e-13  # relative velocity change per Picard sweep
ORACLE_MAX_ITERS = 100


def _dense_loop_substep(sc, p_c, T_c, u_f, v, dt):
    """One loop substep with the pinned-cyclic pressure system assembled as a
    dense matrix, solved by LU inside a Picard loop on the friction
    coefficient: an independent oracle for the solver's direct path."""
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
    for _ in range(ORACLE_MAX_ITERS):
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
        if du < ORACLE_TOL * max(1.0, np.max(np.abs(u_k))):
            return p, T_new, u_k
    raise AssertionError("oracle Picard iteration did not converge")


def test_pinned_loop_substep_matches_dense_oracle():
    sc = _loop_pinned_mid_heater_leg()
    lo = np.array([r[0] for r in sc.input_ranges])
    hi = np.array([r[1] for r in sc.input_ranges])
    state = step(steady_state(sc, lo), hi, sc)  # mid-transient fields
    dt = SolverConfig().substep
    fields = (state.p, state.T, state.u_face)
    p, T, u_f = _solver_substep(sc, *fields, hi, dt)
    _assert_matches_oracle((p, T, u_f), _dense_loop_substep(sc, *fields, hi, dt))
    assert p[sc.reference_cell] == sc.reference_pressure
    assert np.max(np.abs(u_f - state.u_face)) > 1e-6  # the substep moved the flow


def _solver_substep(sc, p, T, u_f, v, dt):
    """The solver's substep of one episode: an advance over a delta_t of one substep."""
    fields = (p, T, u_f, v)
    return tuple(x[0] for x in solver._advance(solver._plan(sc), replace(sc, delta_t=dt),
                                               *(x[None] for x in fields), SolverConfig(dt)))


def _assert_matches_oracle(got, ref):
    for name, x, x_ref in zip(("p", "T", "u"), got, ref):
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * STEADY_SCALES[name], name


def _reversed_loop_start(sc, start: str) -> FieldState:
    """The steady state at the mid inputs with some or all of its faces run backward.

    The negated steady state runs backward against the pump, slows, and
    turns forward; the straddling start has faces of both signs.
    """
    steady = steady_state(sc, _mid(sc))
    u_f = {"negated_steady": -steady.u_face, "straddling": steady.u_face - np.mean(steady.u_face)}[start]
    return replace(steady, u_face=u_f)


@pytest.mark.parametrize("start", ["negated_steady", "straddling"])
def test_reversed_loop_faces_match_dense_oracle(start):
    sc = _loop_pinned_mid_heater_leg()
    v = _mid(sc)
    state = _reversed_loop_start(sc, start)
    p, T, u_f = state.p, state.T, state.u_face
    dt = SolverConfig().substep
    n_reversed = [int(np.sum(u_f < 0.0))]
    while n_reversed[-1] > 0 and len(n_reversed) <= 200:  # one substep at a time
        ref = _dense_loop_substep(sc, p, T, u_f, v, dt)
        p, T, u_f = _solver_substep(sc, p, T, u_f, v, dt)
        _assert_matches_oracle((p, T, u_f), ref)
        n_reversed.append(int(np.sum(u_f < 0.0)))
    assert n_reversed[-1] == 0, "the loop flow never turned forward"
    assert any(0 < k < u_f.size for k in n_reversed)  # faces of both signs
    if start == "negated_steady":
        assert u_f.size in n_reversed[1:]  # solved with every face reversed


def _channel_slice_substep(sc, p_c, T_c, u_f, v, dt):
    """One channel substep written with the channel's own slices at the inlet,
    interior and outlet faces: an independent oracle for the solver's stencil,
    which pads the cells and faces with ghosts shared with the loop."""
    plan = solver._plan(sc)
    a, b, cp = sc.fluid.rho_a, sc.fluid.rho_b, sc.fluid.cp
    dz = plan.grid.dz
    n = dz.size
    T_in = v[sc.channel_index("T_in")]
    rho_in = a - b * T_in
    rho_c = density(sc.fluid, T_c)
    h = rho_c * T_c
    fwd = u_f[1:n] >= 0.0
    phi = np.empty(n + 1)
    phi[1:n] = u_f[1:n] * np.where(fwd, h[:-1], h[1:])
    phi[0] = u_f[0] * (rho_in * T_in if u_f[0] >= 0.0 else h[0])
    phi[n] = u_f[n] * h[-1]  # the outlet does not reverse
    h_new = h - (dt / dz) * (phi[1:] - phi[:-1]) + dt * (plan.q_fixed + plan.q_ctrl @ v) / cp
    T_new = (a - np.sqrt(a * a - 4.0 * b * h_new)) / (2.0 * b)
    rho_new = a - b * T_new
    rho_f = np.empty(n + 1)
    rho_f[1:n] = np.where(fwd, rho_new[:-1], rho_new[1:])
    rho_f[0] = rho_in if u_f[0] >= 0.0 else rho_new[0]
    rho_f[n] = rho_new[-1]
    adv = np.zeros(n + 1)  # none through the inlet, nor through a reversed outlet
    adv[1:n] = u_f[1:n] * np.where(fwd, (u_f[1:n] - u_f[:-2]) / dz[:-1], (u_f[2:] - u_f[1:n]) / dz[1:])
    if u_f[n] >= 0.0:
        adv[n] = u_f[n] * (u_f[n] - u_f[n - 1]) / dz[-1]
    m_i = -dz * (rho_new - rho_c) / dt
    num = rho_f * (u_f / dt - adv + plan.grav)
    flux = rho_f[0] * u_f[0] + np.r_[0.0, np.cumsum(m_i)]
    u_new = flux / rho_f
    dpf = plan.dzf * (num - (1.0 / dt + plan.fric / 2.0 * np.abs(u_new)) * flux)
    u_new[0] = u_f[0]  # Dirichlet inlet
    return sc.outlet_pressure - np.cumsum(dpf[:0:-1])[::-1], T_new, u_new


def test_straddling_channel_faces_match_slice_oracle():
    # the interior faces run both ways and the outlet face backward; after
    # the first substep continuity turns the flow forward
    sc = heated_channel_preset()
    v = _mid(sc)
    steady = steady_state(sc, v)
    u_f = steady.u_face * np.r_[1.0, np.linspace(1.0, -1.0, steady.u_face.size - 1)]
    assert 0 < np.sum(u_f[1:-1] < 0.0) < u_f.size - 2 and u_f[0] > 0.0 > u_f[-1]
    p, T = steady.p, steady.T
    dt = SolverConfig().substep
    for _ in range(5):  # one substep at a time
        ref = _channel_slice_substep(sc, p, T, u_f, v, dt)
        p, T, u_f = _solver_substep(sc, p, T, u_f, v, dt)
        _assert_matches_oracle((p, T, u_f), ref)
        assert u_f[0] == v[sc.channel_index("u_in")]
    assert np.all(u_f > 0.0)


def test_loop_face_n_is_face_0():
    # the loop's faces 0 and n are one face: a carried u_face steps as if
    # its face-n entry were the face-0 one
    sc = loop_preset()
    v = _mid(sc)
    start = step(steady_state(sc, v), np.array([r[1] for r in sc.input_ranges]), sc)
    u_open = start.u_face.copy()
    u_open[-1] *= 1.5
    closed, opened = step(start, v, sc), step(replace(start, u_face=u_open), v, sc)
    for f in ("p", "u_face", "T"):
        assert np.array_equal(getattr(closed, f), getattr(opened, f)), f


def _short(sc, steps: int = 3):
    return replace(sc, episode_duration=steps * sc.delta_t)


def _hold(sc, values) -> np.ndarray:
    """One episode's inputs, (1, K+1, m), held at ``values`` throughout."""
    return np.tile(np.asarray(values, dtype=float), (1, round(sc.episode_duration / sc.delta_t) + 1, 1))


def _assert_batch_matches_single_episodes(sc, inputs, starts):
    alone = [run_experiments(sc, inputs[e : e + 1], [st])[0] for e, st in enumerate(starts)]
    together = run_experiments(sc, inputs, starts)
    for a, b in zip(alone, together):
        for f in ("times", "p", "u", "T", "v", "sensors", "station_z", "grid_z"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), f
        assert a.scenario_hash == b.scenario_hash


@pytest.mark.parametrize("preset", [heated_channel_preset, loop_preset, _loop_x10_friction])
def test_run_experiments_matches_single_episodes(preset):
    sc = _short(preset())
    inputs = np.concatenate([_hold(sc, [r[0] for r in sc.input_ranges]), generate_trajectories(3, sc, 2)])
    _assert_batch_matches_single_episodes(sc, inputs, [steady_state(sc, v) for v in inputs[:, 0]])


@pytest.mark.parametrize("start", ["negated_steady", "straddling"])
def test_run_experiments_mixes_reversed_and_forward_loop_episodes(start):
    # episode 1 runs backward while episodes 0 and 2 run forward, so one
    # substep picks each face's upwind side and, for the loop's mass flux,
    # searches the breakpoints of episode 1 only; once episode 1 turns
    # forward the batch takes the all-forward shortcut
    sc = _short(_loop_pinned_mid_heater_leg())
    drawn = generate_trajectories(3, sc, 2)
    inputs = np.concatenate([drawn[:1], _hold(sc, _mid(sc)), drawn[1:]])
    starts = [steady_state(sc, v) for v in inputs[:, 0]]
    starts[1] = _reversed_loop_start(sc, start)
    assert np.any(starts[1].u_face < 0.0) and all(np.all(starts[e].u_face > 0.0) for e in (0, 2))
    _assert_batch_matches_single_episodes(sc, inputs, starts)
    assert np.all(run_experiments(sc, inputs[1:2], starts[1:2])[0].u[-1] > 0.0)


def test_run_experiments_names_the_failing_episode(scenario):
    sc = _short(scenario)
    inputs = generate_trajectories(9, sc, 3)
    starts = [steady_state(sc, v) for v in inputs[:, 0]]
    starts[1] = replace(starts[1], u_face=10.0 * starts[1].u_face)  # Courant number about 3
    with pytest.raises(NumericalError, match=r"Courant .* in episode 1\b"):
        run_experiments(sc, inputs, starts)
    with pytest.raises(ConfigError):
        run_experiments(sc, inputs, starts[:2])


def _below_the_vertex(fluid, T):
    """T just below the closure's vertex rho_a / (2 rho_b), which the heated cells pass in one substep."""
    return np.full_like(T, fluid.rho_a / (2.0 * fluid.rho_b) - 2.0)


def _overflowing_cell(fluid, T):
    """T with one cell so cold that h = rho T overflows."""
    return np.where(np.arange(T.size) == 3, -1e200, T)


@pytest.mark.parametrize("message, broken_T", [
    ("energy update left the closure's invertible range", _below_the_vertex),
    ("non-finite fields after substep", _overflowing_cell),
], ids=["closure", "non_finite"])
def test_substep_failures_name_the_episode(scenario, message, broken_T):
    sc = _short(scenario)
    inputs = generate_trajectories(9, sc, 3)
    starts = [steady_state(sc, v) for v in inputs[:, 0]]
    starts[1] = replace(starts[1], T=broken_T(sc.fluid, starts[1].T))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=rf"{message} in episode 1$"):
            run_experiments(sc, inputs, starts)


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
    inputs = generate_trajectories(4, _short(sc, 1), 2)
    starts = [start, replace(start, **{field: bad})]
    with pytest.raises(NumericalError, match=rf"non-finite {field} .* episode 1"):
        run_experiments(_short(sc, 1), inputs, starts)


def test_non_finite_inputs_are_rejected(scenario, steady):
    with pytest.raises(ConfigError):
        step(steady, np.array([np.nan, 844.65]), scenario)
