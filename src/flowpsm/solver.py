"""Reference 1D finite-volume solver: steady states and transient stepping.

Solves the three transport PDEs (mass, momentum, energy) for the heated
channel and loop rigs. Serves three roles: training/test data generator,
environment for governor rollouts, and fault injector for the diagnostics
study.

Transient scheme (first-order, semi-implicit, staggered):

* scalars (p, T) on cell centers, velocity on faces;
* per substep, the energy equation advances conservatively in h = rho*T with
  explicit upwind fluxes (old velocities), and T is recovered by inverting
  the quadratic closure h = (rho_a - rho_b*T)*T (smaller root);
* momentum is semi-implicit: explicit upwind advection, friction linearized
  about the current Picard iterate, implicit pressure gradient (the loop's
  pump head is a momentum source on its wrap face); substituting the
  face-velocity update into continuity yields one tridiagonal pressure
  system on both rigs, solved by LAPACK ``?gtsv``. Its rows sum to zero, so
  it is solved for p minus a datum (the channel's outlet pressure, the
  loop's reference pressure). On the loop the pinned reference cell drops
  out, and the other cells, taken in cyclic order from the one after it,
  leave a tridiagonal system without a corner.

The loop's static pressure boundary at z_set acts as a pressurizer: its cell
is pinned to the reference (gage zero) pressure and exchanges the tiny
thermal-expansion makeup flow; every other cell satisfies discrete
continuity exactly.

Stepping carries a leading episode axis. Each Picard sweep stacks the
episodes' pressure systems into one block-tridiagonal solve, and each
episode stops iterating at its own convergence, so an episode stepped in a
batch is bit-identical to the same episode stepped alone.
``run_experiments`` steps a whole corpus this way; ``run_experiment``,
``step`` and ``step_with_audit`` are batches of one.

Steady states are the scheme's fixed points, solved directly (every 1/dt
term cancels there): closed form for the heated channel, and for the loop a
scalar root in the mass flux at the total enthalpy that stepping conserves.

Controls are zero-order held over each delta_t step: ``step`` takes one
constant control vector and advances the full interval in substeps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import NumericalError
from .transport import (
    ConfigError,
    FieldState,
    Grid,
    ScenarioConfig,
    build_grid,
    density,
    scenario_fingerprint,
)

__all__ = [
    "SolverConfig",
    "InputTrajectory",
    "SimulationRecord",
    "generate_trajectories",
    "steady_state",
    "step",
    "step_with_audit",
    "run_experiment",
    "run_experiments",
    "inject_degradation",
    "sensor_readout",
]

# control rollouts may exceed training ranges by this fraction of the span
RANGE_SLACK = 0.10


@dataclass(frozen=True)
class SolverConfig:
    """Inner-step numerics: substep size, Picard tolerance and iteration cap."""

    substep: float = 0.05  # s
    tol: float = 1e-10  # relative velocity change per Picard sweep
    max_iters: int = 40

    def __post_init__(self) -> None:
        if not self.substep > 0:
            raise ConfigError("substep must be positive")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")

    def n_substeps(self, delta_t: float) -> int:
        if self.substep > delta_t + 1e-12:
            raise ConfigError("substep must be <= delta_t")
        n = round(delta_t / self.substep)
        if abs(n * self.substep - delta_t) > 1e-9 * delta_t:
            raise ConfigError("substep must divide delta_t")
        return n


@dataclass(frozen=True)
class InputTrajectory:
    """Piecewise-linear control time series, one knot set per channel."""

    channels: tuple[str, ...]
    knot_times: tuple[np.ndarray, ...]  # per channel, strictly increasing from 0
    knot_values: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for name, t, v in zip(self.channels, self.knot_times, self.knot_values):
            if t.size != v.size or t.size < 1:
                raise ConfigError(f"channel {name!r}: knot arrays must align")
            if t[0] != 0.0:
                raise ConfigError(f"channel {name!r}: knots must start at 0")
            if t.size > 1 and not np.all(np.diff(t) > 0):
                raise ConfigError(f"channel {name!r}: knot times must increase")

    def value(self, t: float) -> np.ndarray:
        """Control vector at time t (held constant beyond the last knot)."""
        return np.array(
            [np.interp(t, kt, kv) for kt, kv in zip(self.knot_times, self.knot_values)]
        )


@dataclass(frozen=True)
class SimulationRecord:
    """One experiment: full fields, controls, and sensor readouts per delta_t."""

    scenario_hash: str
    times: np.ndarray  # (K+1,)
    grid_z: np.ndarray  # (n,)
    p: np.ndarray  # (K+1, n)
    u: np.ndarray
    T: np.ndarray
    v: np.ndarray  # (K+1, n_controls); row k applied over [t_k, t_{k+1})
    station_z: np.ndarray  # (s,)
    sensors: np.ndarray  # (K+1, 3, s) field-major (p, u, T)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


# ===================== per-scenario solve plan =====================


@dataclass(frozen=True)
class _Plan:
    grid: Grid
    dzf: np.ndarray  # face control-volume widths
    fric: np.ndarray  # (f/D_h) per face
    half_fric: np.ndarray  # fric / 2
    grav: np.ndarray  # gravity component per face
    cell_fric: np.ndarray  # (f/D_h) per cell
    cell_grav: np.ndarray  # gravity component per cell
    q_fixed: np.ndarray  # W/m^3 per cell
    q_ctrl: np.ndarray  # (n_cells, n_controls) source coupling matrix
    is_loop: bool
    ref_cell: int
    perm: np.ndarray  # loop cells but ref_cell, in cyclic order from ref_cell + 1
    left: np.ndarray  # cyclic left neighbour of each cell
    min_dz: float
    v_lo: np.ndarray
    v_hi: np.ndarray


@functools.lru_cache(maxsize=32)
def _plan(scenario: ScenarioConfig) -> _Plan:
    areas = {s.flow_area for s in scenario.segments}
    if len(areas) != 1:
        raise ConfigError("solver requires a uniform flow_area across segments")
    grid = build_grid(scenario)
    n = grid.n_cells
    seg = grid.segment_of_cell
    cell_fric = np.array(
        [scenario.segments[s].friction_factor / scenario.segments[s].hydraulic_diameter for s in seg]
    )
    cell_grav = np.array([scenario.segments[s].gravity_component for s in seg])
    q_fixed = np.array([scenario.segments[s].heat_source for s in seg])
    q_ctrl = np.zeros((n, scenario.n_controls))
    for i, s in enumerate(seg):
        sid = scenario.segments[s].volumetric_source_id
        if sid is not None:
            q_ctrl[i, scenario.channel_index(sid)] = scenario.segments[s].source_scale

    dz = grid.dz
    is_loop = scenario.kind == "loop"
    # face j sits between cells j-1 and j: cyclic on the loop, where faces 0
    # and n coincide; the channel's end faces see only their own cell
    w = np.concatenate(([dz[-1] if is_loop else 0.0], dz, [dz[0] if is_loop else 0.0]))

    def faces(c: np.ndarray) -> np.ndarray:
        ce = np.concatenate(([c[-1]], c, [c[0]]))
        f = (w[:-1] * ce[:-1] + w[1:] * ce[1:]) / (w[:-1] + w[1:])
        if not is_loop:
            f[0], f[-1] = c[0], c[-1]
        return f

    dzf, fric, grav = 0.5 * (w[:-1] + w[1:]), faces(cell_fric), faces(cell_grav)

    return _Plan(
        grid=grid,
        dzf=dzf,
        fric=fric,
        half_fric=fric / 2.0,
        grav=grav,
        cell_fric=cell_fric,
        cell_grav=cell_grav,
        q_fixed=q_fixed,
        q_ctrl=q_ctrl,
        is_loop=is_loop,
        ref_cell=scenario.reference_cell,
        perm=(scenario.reference_cell + 1 + np.arange(n - 1)) % n,
        left=np.roll(np.arange(n), 1),
        min_dz=float(np.min(dz)),
        v_lo=np.array([r[0] for r in scenario.input_ranges]),
        v_hi=np.array([r[1] for r in scenario.input_ranges]),
    )


def _check_inputs(plan: _Plan, inputs) -> np.ndarray:
    """The control vector(s) as an array, checked for length and extended range.

    ``inputs`` is one control vector or a stack of them, one per row. A NaN
    is outside every range.
    """
    v = np.asarray(inputs, dtype=float)
    if v.shape[-1:] != plan.v_lo.shape:
        raise ConfigError(f"expected {plan.v_lo.size} control inputs")
    span = plan.v_hi - plan.v_lo
    lo = plan.v_lo - RANGE_SLACK * span
    hi = plan.v_hi + RANGE_SLACK * span
    if not np.all((v >= lo - 1e-12) & (v <= hi + 1e-12)):
        raise ConfigError(f"control inputs {v} outside the extended range [{lo}, {hi}]")
    return v


def _face_velocities(plan: _Plan, state: FieldState) -> np.ndarray:
    """Staggered velocities: reuse the carried array or interpolate centers."""
    if state.grid_z.size != plan.grid.n_cells:
        raise ConfigError("state is not on the scenario grid")
    if state.u_face is not None:
        uf = np.array(state.u_face, dtype=float)
        if uf.size != plan.grid.n_cells + 1:
            raise ConfigError("u_face length must be n_cells + 1")
    elif plan.is_loop:
        uf = 0.5 * (np.roll(state.u, 1) + state.u)
        uf = np.append(uf, uf[0])
    else:
        uf = np.interp(plan.grid.faces, plan.grid.centers, state.u)  # ends take the end cells
    return uf


def _first(bad: np.ndarray) -> int:
    """Index of the first episode flagged in a boolean (E,) array."""
    return int(np.argmax(bad))


# ===================== pressure solve =====================


_GTSV = scipy.linalg.get_lapack_funcs("gtsv", dtype=np.float64)


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve E tridiagonal systems of k rows in one LAPACK ``?gtsv`` call.

    All four arrays are (E, k): row i of each system reads
    sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i]. The systems are
    stacked end to end with sub[:, 0] and sup[:, -1] set to zero in place,
    so elimination never mixes two episodes and each block's solution is
    the one it has when solved alone. The arrays are used as workspace.
    """
    E, k = diag.shape
    sub[:, 0] = 0.0
    sup[:, -1] = 0.0
    _, _, _, x, info = _GTSV(sub.ravel()[1:], diag.ravel(), sup.ravel()[:-1], rhs.ravel(), 1, 1, 1, 1)
    if info != 0:
        raise NumericalError(
            f"pressure system is singular (LAPACK gtsv info {info}) in episode {(abs(info) - 1) // k}"
        )
    return x.reshape(E, k)


# ===================== single substep =====================


def _substep(
    plan: _Plan,
    scenario: ScenarioConfig,
    p_c: np.ndarray,
    T_c: np.ndarray,
    u_f: np.ndarray,
    v: np.ndarray,
    dt: float,
    cfg: SolverConfig,
    audit: dict | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One substep of E episodes: p_c, T_c (E, n), u_f (E, n + 1), v (E, m)."""
    fluid = scenario.fluid
    a, b, cp = fluid.rho_a, fluid.rho_b, fluid.cp
    grid = plan.grid
    n = grid.n_cells
    dz = grid.dz
    is_loop = plan.is_loop
    E = p_c.shape[0]

    courant = np.abs(u_f).max(axis=1) * dt / plan.min_dz
    if (courant > 1.0).any():
        ep = _first(courant > 1.0)
        raise NumericalError(
            f"advective Courant number {courant[ep]:.3f} > 1 at substep {dt} s in episode {ep}; "
            "reduce the substep or the velocity range"
        )

    rho_c = density(fluid, T_c)
    h = rho_c * T_c

    if not is_loop:
        T_in = v[:, scenario.channel_index("T_in")]
        rho_in = a - b * T_in
        h_in = rho_in * T_in

    # --- energy: conservative upwind fluxes of h = rho*T with old velocities ---
    phi = np.empty((E, n + 1))
    if is_loop:
        left = plan.left
        h_upw = np.where(u_f[:, :n] >= 0.0, h.take(left, axis=1), h)
        phi[:, :n] = u_f[:, :n] * h_upw
        phi[:, n] = phi[:, 0]
    else:
        phi[:, 1:n] = u_f[:, 1:n] * np.where(u_f[:, 1:n] >= 0.0, h[:, :-1], h[:, 1:])
        phi[:, 0] = u_f[:, 0] * np.where(u_f[:, 0] >= 0.0, h_in, h[:, 0])
        phi[:, n] = u_f[:, n] * h[:, -1]  # outflow (flow does not reverse at the outlet)

    q_cell = plan.q_fixed + v @ plan.q_ctrl.T
    h_new = h - (dt / dz) * (phi[:, 1:] - phi[:, :-1]) + dt * q_cell / cp
    if b > 0.0:
        disc = a * a - 4.0 * b * h_new
        if (disc <= 0.0).any():
            ep = _first((disc <= 0.0).any(axis=1))
            raise NumericalError(f"energy update left the closure's invertible range in episode {ep}")
        T_new = (a - np.sqrt(disc)) / (2.0 * b)
    else:
        T_new = h_new / a
    rho_new = a - b * T_new

    # --- momentum + continuity (Picard on the friction coefficient) ---
    # upwind directions and face densities are frozen at the old velocity signs
    rho_f = np.empty((E, n + 1))
    if is_loop:
        sign_pos = u_f[:, :n] >= 0.0
        rho_f[:, :n] = np.where(sign_pos, rho_new.take(left, axis=1), rho_new)
        rho_f[:, n] = rho_f[:, 0]
        # explicit upwind advection du/dz at each face
        adv = np.empty((E, n + 1))
        grad_left = (u_f[:, :n] - u_f.take(left, axis=1)) / dz[left]  # cell between faces j-1, j
        grad_right = (u_f[:, 1:] - u_f[:, :n]) / dz  # cell between faces j, j+1
        adv[:, :n] = u_f[:, :n] * np.where(sign_pos, grad_left, grad_right)
        adv[:, n] = adv[:, 0]
    else:
        rho_f[:, 1:n] = np.where(u_f[:, 1:n] >= 0.0, rho_new[:, :-1], rho_new[:, 1:])
        rho_f[:, 0] = np.where(u_f[:, 0] >= 0.0, rho_in, rho_new[:, 0])
        rho_f[:, n] = rho_new[:, -1]
        adv = np.zeros((E, n + 1))
        gl = (u_f[:, 1:n] - u_f[:, : n - 1]) / dz[:-1]
        gr = (u_f[:, 2:] - u_f[:, 1:n]) / dz[1:]
        adv[:, 1:n] = u_f[:, 1:n] * np.where(u_f[:, 1:n] >= 0.0, gl, gr)
        adv[:, n] = np.where(u_f[:, n] >= 0.0, u_f[:, n] * (u_f[:, n] - u_f[:, n - 1]) / dz[-1], 0.0)

    m_i = -dz * (rho_new - rho_c) / dt  # continuity source per cell
    num = rho_f * (u_f / dt - adv + plan.grav)
    if is_loop:
        # the pump head acts on the wrap face (face 0, which is face n)
        num[:, 0] += v[:, scenario.channel_index("dp_pump")] / plan.dzf[0]
        num[:, n] = num[:, 0]
        datum, perm = scenario.reference_pressure, plan.perm
    else:
        datum = scenario.outlet_pressure
        inflow = rho_f[:, 0] * u_f[:, 0]

    # Every row of the pressure system below has zero sum, so it is solved
    # for p - datum: the pinned loop cell and the channel's outlet then add
    # nothing to the right-hand side. Each episode iterates until its own
    # velocity change is below tol; a converged episode keeps its u_k and
    # p_new while the others go on.
    u_k = u_f.copy()
    p_new = p_c - datum
    active = np.ones(E, dtype=bool)
    for _ in range(cfg.max_iters):
        D = rho_f * (1.0 / dt + plan.half_fric * np.abs(u_k))
        uhat = num / D
        e = 1.0 / (plan.dzf * D)

        # substituting u_j = uhat_j - e_j * dp_j into continuity gives a
        # pressure system; el/er are the left/right face coupling weights
        coupling = rho_f * e
        el, er = coupling[:, :n], coupling[:, 1:]
        flux = rho_f * uhat
        if not is_loop:
            # face 0 carries the fixed inlet velocity (no pressure coupling)
            el[:, 0] = 0.0
            flux[:, 0] = inflow
        rhs = m_i - flux[:, 1:] + flux[:, :n]
        dpf = np.empty((E, n + 1))
        if is_loop:
            # cyclic continuity with cell ref_cell pinned: the other cells,
            # taken in cyclic order from ref_cell + 1, form a tridiagonal system
            p = np.zeros((E, n))
            p[:, perm] = _solve_tridiagonal(
                -el.take(perm, axis=1), (el + er).take(perm, axis=1), -er.take(perm, axis=1),
                rhs.take(perm, axis=1))
            dpf[:, :n] = p - p.take(plan.left, axis=1)
            dpf[:, n] = dpf[:, 0]
        else:
            p = _solve_tridiagonal(-el, el + er, -er, rhs)
            dpf[:, 0] = 0.0
            dpf[:, 1:n] = p[:, 1:] - p[:, :-1]
            dpf[:, n] = -p[:, -1]

        u_next = uhat - e * dpf
        if not is_loop:
            u_next[:, 0] = u_f[:, 0]  # Dirichlet inlet
        else:
            u_next[:, n] = u_next[:, 0]
        du = np.abs(u_next - u_k).max(axis=1)
        if active.all():
            u_k, p_new = u_next, p
        else:
            u_k = np.where(active[:, None], u_next, u_k)
            p_new = np.where(active[:, None], p, p_new)
        active &= ~(du < cfg.tol * np.maximum(1.0, np.abs(u_k).max(axis=1)))
        if not active.any():
            break
    else:
        ep = _first(active)
        raise NumericalError(
            f"momentum Picard iteration did not converge in episode {ep} (last change {du[ep]:.3e})"
        )
    p_new = p_new + datum

    if not (np.isfinite(p_new).all() and np.isfinite(u_k).all() and np.isfinite(T_new).all()):
        bad = ~(np.isfinite(p_new).all(axis=1) & np.isfinite(u_k).all(axis=1)
                & np.isfinite(T_new).all(axis=1))
        raise NumericalError(f"non-finite fields after substep in episode {_first(bad)}")

    if audit is not None:
        # a single episode; mass_change = mass_boundary + pinned_mass_change
        # on both rigs: every cell but the loop's pinned one satisfies
        # continuity exactly, so the boundary term is the net inflow into
        # those cells (on the loop, what the pinned cell passes to its
        # neighbours), and the pinned cell's own change is reported apart
        rho_c, rho_new, h, h_new, rho_f, u_k1, phi, q_cell = (
            x[0] for x in (rho_c, rho_new, h, h_new, rho_f, u_k, phi, q_cell))
        area = scenario.segments[0].flow_area
        mass_old = float(np.sum(rho_c * dz)) * area
        mass_new = float(np.sum(rho_new * dz)) * area
        if is_loop:
            re = plan.ref_cell
            jl, jr = re, (re + 1) % n
            bnd = (rho_f[jr] * u_k1[jr] - rho_f[jl] * u_k1[jl]) * area * dt
            pinned = dz[re] * (rho_new[re] - rho_c[re]) * area
            enth_bnd = 0.0  # cyclic fluxes telescope away
        else:
            bnd = (rho_f[0] * u_k1[0] - rho_f[n] * u_k1[n]) * area * dt
            pinned = 0.0
            enth_bnd = (phi[0] - phi[n]) * area * cp * dt
        enth_old = float(np.sum(h * dz)) * area * cp
        enth_new = float(np.sum(h_new * dz)) * area * cp
        src = float(np.sum(q_cell * dz)) * area * dt
        audit["mass_change"] = audit.get("mass_change", 0.0) + (mass_new - mass_old)
        audit["mass_boundary"] = audit.get("mass_boundary", 0.0) + bnd
        audit["pinned_mass_change"] = audit.get("pinned_mass_change", 0.0) + pinned
        audit["mass_total"] = mass_new
        audit["enthalpy_change"] = audit.get("enthalpy_change", 0.0) + (enth_new - enth_old)
        audit["enthalpy_boundary"] = audit.get("enthalpy_boundary", 0.0) + enth_bnd
        audit["enthalpy_source"] = audit.get("enthalpy_source", 0.0) + src
        audit["max_courant"] = max(audit.get("max_courant", 0.0), float(courant[0]))

    return p_new, T_new, u_k


# ===================== public stepping API =====================


def _advance(
    plan: _Plan,
    scenario: ScenarioConfig,
    p: np.ndarray,
    T: np.ndarray,
    u_f: np.ndarray,
    v: np.ndarray,
    solver_config: SolverConfig,
    audit: dict | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance E episodes one delta_t under constant controls v (E, m).

    p and T are (E, n) and u_f is (E, n + 1); the channel's inlet face takes
    each episode's u_in. Non-finite start fields raise NumericalError.
    """
    n_sub = solver_config.n_substeps(scenario.delta_t)
    if not plan.is_loop:
        u_f = u_f.copy()
        u_f[:, 0] = v[:, scenario.channel_index("u_in")]
    for name, x in (("p", p), ("T", T), ("u_face", u_f)):
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            raise NumericalError(f"non-finite {name} in the start state of episode {_first(bad)}")
    dt = solver_config.substep
    for _ in range(n_sub):
        p, T, u_f = _substep(plan, scenario, p, T, u_f, v, dt, solver_config, audit)
    return p, T, u_f


def _step_one(state: FieldState, inputs, scenario: ScenarioConfig, solver_config: SolverConfig,
              audit: dict | None) -> FieldState:
    """``_advance`` of a single state, as a batch of one episode."""
    plan = _plan(scenario)
    v = _check_inputs(plan, inputs)
    u_f = _face_velocities(plan, state)
    fields = (np.asarray(state.p, dtype=float), np.asarray(state.T, dtype=float), u_f)
    p, T, u_f = (x[0] for x in _advance(plan, scenario, *(x[None] for x in fields), v[None],
                                        solver_config, audit))
    return FieldState(grid_z=plan.grid.centers, p=p, u=0.5 * (u_f[:-1] + u_f[1:]), T=T, u_face=u_f)


def step_with_audit(
    state: FieldState,
    inputs,
    scenario: ScenarioConfig,
    solver_config: SolverConfig = SolverConfig(),
) -> tuple[FieldState, dict]:
    """Advance one delta_t with constant controls; also return balance audits.

    The audit dict accumulates over the substeps: total mass/enthalpy change,
    the net boundary inflow of mass and enthalpy, the loop's pinned-cell mass
    change (so that mass_change = mass_boundary + pinned_mass_change on both
    rigs), the applied source integral, and the peak Courant number.
    """
    audit: dict = {}
    return _step_one(state, inputs, scenario, solver_config, audit), audit


def step(
    state: FieldState,
    inputs,
    scenario: ScenarioConfig,
    solver_config: SolverConfig = SolverConfig(),
) -> FieldState:
    """Advance the state one delta_t interval under constant controls."""
    return _step_one(state, inputs, scenario, solver_config, None)


# ===================== steady state =====================


def _closure_checked(fluid, T: np.ndarray, where: str) -> np.ndarray:
    """T, if it sits below the closure's vertex, where h = rho(T) T inverts back to T."""
    if fluid.rho_b > 0.0 and not np.all(T < fluid.rho_a / (2.0 * fluid.rho_b)):
        raise NumericalError(
            f"{where}: steady T up to {np.max(T):.6g} K is beyond the closure's invertible range"
        )
    return T


def _steady_faces(plan: _Plan, fluid, T_up: np.ndarray, G: float) -> tuple[np.ndarray, np.ndarray]:
    """u_face and face dp at mass flux G > 0, T_up being each face's upwind T.

    At a fixed point momentum reduces to dp_j = -dzf_j rho_j (f_j |u_j| u_j / 2 + adv_j - g_j).
    """
    rho_f = density(fluid, T_up)
    u_f = G / rho_f
    adv = np.zeros_like(u_f)  # the channel's face 0 is the inlet
    adv[1:] = u_f[1:] * (u_f[1:] - u_f[:-1]) / plan.grid.dz
    if plan.is_loop:
        adv[0] = adv[-1]
    return u_f, -plan.dzf * rho_f * (plan.fric * np.abs(u_f) * u_f / 2.0 + adv - plan.grav)


def _loop_state(plan: _Plan, scenario: ScenarioConfig, v: np.ndarray, heat: np.ndarray):
    """Loop fixed point (T, u_face, face dp): T = T_bar + d(G), G from the pump head.

    d is the zero-mean part of cumsum(q dz) / (c_p G). Pinning sum(rho(T) T dz)
    at rho(T_ref) T_ref L gives b T_bar^2 - a T_bar + h_ref + b var(d) = 0
    (smaller root); G is the root of sum(-dp_j) = dp_pump.
    """
    fluid, dz = scenario.fluid, plan.grid.dz
    a, b, length = fluid.rho_a, fluid.rho_b, float(np.sum(dz))
    if abs(np.sum(heat)) > 1e-12 * np.sum(np.abs(heat)):
        raise NumericalError(
            f"loop heat sources do not cancel (net {np.sum(heat):.6e} W/m^2); no steady state exists"
        )
    s = np.cumsum(heat) / fluid.cp
    rho_ref = float(density(fluid, scenario.reference_temperature))
    h_ref = rho_ref * scenario.reference_temperature
    dp_pump = float(v[scenario.channel_index("dp_pump")])

    def state(G: float):
        d = s / G
        d -= float(d @ dz) / length
        k = h_ref + b * float((d * d) @ dz) / length
        T = 2.0 * k / (a + np.sqrt(max(a * a - 4.0 * b * k, 0.0))) + d  # exact at b = 0
        T = _closure_checked(fluid, T, f"loop at G = {G:.6g} kg/m^2/s, pump head {dp_pump} Pa")
        return (T, *_steady_faces(plan, fluid, np.concatenate(([T[-1]], T)), G))

    def residual(G: float) -> float:
        return -float(np.sum(state(G)[2][:-1])) - dp_pump

    # expand a bracket from the isothermal friction balance
    drag = float(plan.fric[:-1] @ plan.dzf[:-1]) / (2.0 * rho_ref)
    lo = hi = np.sqrt(abs(dp_pump) / drag) if drag > 0.0 and dp_pump != 0.0 else rho_ref
    for _ in range(200):
        r_lo, r_hi = residual(lo), residual(hi)
        if r_lo <= 0.0 <= r_hi:
            return state(scipy.optimize.brentq(residual, lo, hi))
        lo, hi = (lo / 2.0 if r_lo > 0.0 else lo), (hi * 2.0 if r_hi < 0.0 else hi)
    raise NumericalError(
        f"no loop mass flux in [{lo:.3e}, {hi:.3e}] kg/m^2/s balances the pump head {dp_pump} Pa"
    )


def steady_state(scenario: ScenarioConfig, inputs) -> FieldState:
    """Fixed point of ``step`` at constant inputs, solved directly; carries ``u_face``.

    Heated channel, closed form: G = rho(T_in) u_in, T_i = T_in +
    sum_{j<=i} q_j dz_j / (G c_p), u_j = G / rho(upwind T), p summed back from
    the outlet. Loop: T_i = theta(G) + s_i / G, theta pinning sum(rho(T) T dz)
    at the uniform ``reference_temperature`` state's value (stepping conserves
    it), G the pump-head root, p summed from the pinned ``reference_cell``.

    Raises ConfigError for a wrong-length or out-of-range input, and
    NumericalError when no steady state exists: loop sources that do not
    cancel, no G > 0 balancing the pump head, T beyond the closure's
    invertible range, or non-finite fields.
    """
    plan = _plan(scenario)
    v = _check_inputs(plan, inputs)
    fluid = scenario.fluid
    heat = (plan.q_fixed + plan.q_ctrl @ v) * plan.grid.dz
    if plan.is_loop:
        T, u_f, dpf = _loop_state(plan, scenario, v, heat)
        p = np.concatenate(([0.0], np.cumsum(dpf[1:-1])))
        p += scenario.reference_pressure - p[plan.ref_cell]
    else:
        u_in, T_in = (float(v[scenario.channel_index(c)]) for c in ("u_in", "T_in"))
        G = float(density(fluid, T_in)) * u_in
        if not G > 0.0:
            raise NumericalError(f"heated channel has no steady state at inlet mass flux {G} kg/m^2/s")
        T = _closure_checked(fluid, T_in + np.cumsum(heat) / (G * fluid.cp), "heated channel")
        u_f, dpf = _steady_faces(plan, fluid, np.concatenate(([T_in], T)), G)
        u_f[0] = u_in
        p = scenario.outlet_pressure - np.cumsum(dpf[:0:-1])[::-1]
    if not all(np.all(np.isfinite(x)) for x in (p, u_f, T)):
        raise NumericalError(f"non-finite steady fields at inputs {v}")
    return FieldState(grid_z=plan.grid.centers, p=p, u=0.5 * (u_f[:-1] + u_f[1:]), T=T, u_face=u_f)


# ===================== experiments =====================


def sensor_readout(state: FieldState, stations) -> np.ndarray:
    """(3, s) array of (p, u, T) linearly interpolated at the station positions."""
    stations = np.asarray(stations, dtype=float)
    return np.stack([np.interp(stations, state.grid_z, f) for f in (state.p, state.u, state.T)])


def run_experiments(
    scenario: ScenarioConfig,
    trajectories,
    starts,
    solver_config: SolverConfig = SolverConfig(),
) -> list[SimulationRecord]:
    """Step a corpus of episodes together, one record per (trajectory, start state).

    The episodes advance in lockstep, each with its own Picard convergence
    and one stacked pressure solve per sweep, so every record is
    bit-identical to stepping its episode alone. The control vector applied
    over [t_k, t_{k+1}) is the trajectory value at the interval's left
    endpoint (zero-order hold at the control cadence). Numerical failures
    name the episode by its index in ``trajectories``.
    """
    trajectories, starts = list(trajectories), list(starts)
    if not trajectories or len(trajectories) != len(starts):
        raise ConfigError("need one initial state per trajectory, and at least one")
    plan = _plan(scenario)
    stations = np.asarray(scenario.sensor_stations, dtype=float)
    K = round(scenario.episode_duration / scenario.delta_t)
    E, n = len(trajectories), plan.grid.n_cells

    times = np.arange(K + 1) * scenario.delta_t
    v = np.array([[traj.value(float(t)) for t in times] for traj in trajectories])  # (E, K+1, m)
    p = np.empty((E, K + 1, n))
    u = np.empty((E, K + 1, n))
    T = np.empty((E, K + 1, n))
    sensors = np.empty((E, K + 1, 3, stations.size))

    u_f = np.array([_face_velocities(plan, state) for state in starts])
    for e, state in enumerate(starts):
        p[e, 0], u[e, 0], T[e, 0] = state.p, state.u, state.T
    for k in range(K):
        p_k, T_k, u_f = _advance(plan, scenario, p[:, k], T[:, k], u_f, _check_inputs(plan, v[:, k]),
                                 solver_config, None)
        p[:, k + 1], u[:, k + 1], T[:, k + 1] = p_k, 0.5 * (u_f[:, :-1] + u_f[:, 1:]), T_k
    for e, state in enumerate(starts):
        sensors[e, 0] = sensor_readout(state, stations)
        for k in range(1, K + 1):
            sensors[e, k] = sensor_readout(
                FieldState(grid_z=plan.grid.centers, p=p[e, k], u=u[e, k], T=T[e, k]), stations)

    return [
        SimulationRecord(
            scenario_hash=scenario_fingerprint(scenario),
            times=times.copy(),
            grid_z=plan.grid.centers.copy(),
            p=p[e],
            u=u[e],
            T=T[e],
            v=v[e],
            station_z=stations.copy(),
            sensors=sensors[e],
        )
        for e in range(E)
    ]


def run_experiment(
    scenario: ScenarioConfig,
    trajectory: InputTrajectory,
    start: FieldState,
    solver_config: SolverConfig = SolverConfig(),
) -> SimulationRecord:
    """``run_experiments`` of a single episode."""
    return run_experiments(scenario, [trajectory], [start], solver_config)[0]


# ===================== trajectory generation =====================


def generate_trajectories(
    seed: int, scenario: ScenarioConfig, n_experiments: int
) -> list[InputTrajectory]:
    """Random hold/ramp control schedules, one independent stream per experiment.

    Each channel alternates holds of random duration with linear ramps of
    random rate, clipped to the configured ranges. Successive ramp targets
    random-walk from the current level rather than resampling the whole
    range: the inputs keep moving at the control cadence (so snapshots never
    pin down the next sample by themselves) while per-step changes stay
    moderate, which keeps the plant close to the quasi-steady manifold that
    one-step predictions can actually resolve. Episode starts are uniform
    over the range so a corpus still covers the full operating box.
    Experiment k draws from default_rng((seed, k)), so corpora are
    reproducible and experiments are independent.
    """
    if n_experiments < 1:
        raise ConfigError("n_experiments must be >= 1")
    duration = scenario.episode_duration
    dt = scenario.delta_t
    out = []
    for k in range(n_experiments):
        rng = np.random.default_rng((seed, k))
        knot_times = []
        knot_values = []
        for lo, hi in scenario.input_ranges:
            # per-episode move scale, fraction of the channel range
            delta = float(rng.uniform(0.05, 0.15)) * (hi - lo)
            t_list = [0.0]
            v_list = [float(rng.uniform(lo, hi))]
            t = 0.0
            while t < duration:
                if rng.uniform() < 0.15:
                    hold = float(rng.uniform(2.0, 4.0)) * dt  # occasional long rest
                else:
                    hold = float(rng.uniform(0.3, 1.5)) * dt
                t_hold = min(t + hold, duration)
                if t_hold > t:
                    t_list.append(t_hold)
                    v_list.append(v_list[-1])
                    t = t_hold
                if t >= duration:
                    break
                ramp = float(rng.uniform(0.8, 2.0)) * dt
                target = v_list[-1] + float(rng.uniform(-delta, delta))
                t_ramp = min(t + ramp, duration)
                frac = (t_ramp - t) / ramp
                value = v_list[-1] + frac * (target - v_list[-1])
                t_list.append(t_ramp)
                v_list.append(float(np.clip(value, lo, hi)))
                t = t_ramp
            knot_times.append(np.asarray(t_list))
            knot_values.append(np.asarray(v_list))
        out.append(
            InputTrajectory(
                channels=scenario.control_channels,
                knot_times=tuple(knot_times),
                knot_values=tuple(knot_values),
            )
        )
    return out


# ===================== fault injection =====================


def inject_degradation(
    scenario: ScenarioConfig, segment_index: int, friction_multiplier: float
) -> ScenarioConfig:
    """Copy of the scenario with one segment's friction factor scaled."""
    if not 0 <= segment_index < len(scenario.segments):
        raise ConfigError(f"segment index {segment_index} out of range")
    if friction_multiplier <= 0:
        raise ConfigError("friction multiplier must be positive")
    segs = list(scenario.segments)
    old = segs[segment_index]
    segs[segment_index] = replace(
        old, friction_factor=old.friction_factor * friction_multiplier
    )
    return replace(scenario, segments=tuple(segs))
