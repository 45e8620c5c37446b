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
* continuity then fixes every face's mass flux from one value, since the
  pipe has one flow area: the inlet flux on the channel, and on the loop the
  flux G leaving the pinned cell (Patankar's continuity-pressure coupling in
  its 1D limit);
* momentum is semi-implicit: explicit upwind advection, implicit friction
  and pressure gradient (the loop's pump head is a momentum source on its
  wrap face). With the face fluxes known, each face's momentum balance gives
  its pressure drop, and p is their running sum: back from the outlet on the
  channel, and on the loop onward from the pinned cell. The loop's G is the
  root of the loop momentum integral (the drops sum to zero around the
  loop), a strictly increasing piecewise quadratic in G, solved in closed
  form.

Both rigs run one substep; they differ only in the plan (``_plan``) and in
their boundary inputs. The plan holds the upwind stencil, whose cells carry
one ghost at each end (the loop's wrap around; the channel's are T_in at the
inlet and the last cell at the non-reversing outlet), and the paths of the
two running sums. The boundary inputs are the channel's u_in and T_in, and
the loop's pump head with its root in G.

The loop's static pressure boundary at z_set acts as a pressurizer: its cell
is pinned to the reference (gage zero) pressure and exchanges the tiny
thermal-expansion makeup flow; every other cell satisfies discrete
continuity exactly.

Stepping carries a leading episode axis. Every per-episode operation of a
substep is row-wise (sums and cumulative sums along the grid), so an episode
stepped in a batch is bit-identical to the same episode stepped alone.
``run_experiments`` steps a whole corpus this way, from an (E, K+1, m) array
of held inputs, and ``step`` is a batch of one. Every state carries its face
velocities (``u_face``), from which its center velocities follow.

Steady states are the scheme's fixed points, solved directly (every 1/dt
term cancels there): closed form for the heated channel, and for the loop a
scalar root in the mass flux at the total enthalpy that stepping conserves.

Controls are zero-order held over each delta_t step: ``step`` takes one
constant control vector and advances the full interval in substeps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

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
    "SimulationRecord",
    "generate_trajectories",
    "steady_state",
    "step",
    "run_experiments",
    "inject_degradation",
    "sensor_readout",
]

# control rollouts may exceed training ranges by this fraction of the span
RANGE_SLACK = 0.10


@dataclass(frozen=True)
class SolverConfig:
    """Inner-step numerics: the substep size."""

    substep: float = 0.05  # s

    def __post_init__(self) -> None:
        if not self.substep > 0:
            raise ConfigError("substep must be positive")

    def n_substeps(self, delta_t: float) -> int:
        if self.substep > delta_t + 1e-12:
            raise ConfigError("substep must be <= delta_t")
        n = round(delta_t / self.substep)
        if abs(n * self.substep - delta_t) > 1e-9 * delta_t:
            raise ConfigError("substep must divide delta_t")
        return n


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
    """Per-scenario tables. The rigs differ only in the stencil and paths below
    and in their boundary inputs."""

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
    bc: tuple[int, ...]  # control columns of the boundary inputs: (u_in, T_in), or (dp_pump,)
    # cells padded by a ghost at each end, as columns of [cells | controls]:
    # face j's upwind cell is cells[j] forward and cells[j + 1] backward
    cells: np.ndarray
    faces: np.ndarray  # faces padded alike: advection at face j reads faces[j] and faces[j + 2]
    dz_pad: np.ndarray  # widths between consecutive padded faces
    flux_path: tuple  # (cells, face positions): face fluxes are the start face's plus running sources
    p_path: tuple  # (faces, cell positions): p is p_datum plus p_sign times the running face drops
    p_sign: float
    p_datum: float
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
    names = ("dp_pump",) if is_loop else ("u_in", "T_in")
    missing = [c for c in names if c not in scenario.control_channels]
    if missing:
        raise ConfigError(f"a {scenario.kind} scenario needs the control channels {missing}")
    bc = tuple(scenario.channel_index(c) for c in names)
    # face j sits between cells j-1 and j
    idx = np.arange(n)
    if is_loop:  # cyclic: faces 0 and n coincide; continuity and p run onward from the pinned cell
        start = (scenario.reference_cell + 1) % n  # the face leaving the pinned cell
        w = np.r_[dz[-1], dz, dz[0]]
        cells, faces = np.r_[n - 1, idx, 0], np.r_[n - 1, idx, n, 1]
        path = (start + idx[:-1]) % n
        flux_path, p_path = (path, (np.arange(n + 1) - start) % n), (path, (idx + 1 - start) % n)
        p_sign, p_datum = 1.0, scenario.reference_pressure
    else:  # the end faces see only their own cell and advect nothing; the inlet's ghost
        # is T_in, the outlet's the last cell (its flow does not reverse); p runs back
        # from the outlet
        w = np.r_[0.0, dz, 0.0]
        cells, faces = np.r_[n + bc[1], idx, n - 1], np.r_[0, idx, n, n]
        flux_path, p_path = (idx, np.arange(n + 1)), (idx[::-1] + 1, n - idx)
        p_sign, p_datum = -1.0, scenario.outlet_pressure

    def at_faces(c: np.ndarray) -> np.ndarray:
        ce = np.concatenate(([c[-1]], c, [c[0]]))
        f = (w[:-1] * ce[:-1] + w[1:] * ce[1:]) / (w[:-1] + w[1:])
        if not is_loop:
            f[0], f[-1] = c[0], c[-1]
        return f

    fric = at_faces(cell_fric)
    return _Plan(
        grid=grid, dzf=0.5 * (w[:-1] + w[1:]), fric=fric, half_fric=fric / 2.0, grav=at_faces(cell_grav),
        cell_fric=cell_fric, cell_grav=cell_grav, q_fixed=q_fixed, q_ctrl=q_ctrl,
        is_loop=is_loop, ref_cell=scenario.reference_cell, bc=bc,
        cells=cells, faces=faces, dz_pad=np.r_[dz[-1], dz, dz[0]],
        flux_path=flux_path, p_path=p_path, p_sign=p_sign, p_datum=p_datum,
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
    """A copy of the state's staggered velocities."""
    if state.grid_z.size != plan.grid.n_cells:
        raise ConfigError("state is not on the scenario grid")
    uf = np.array(state.u_face, dtype=float)
    if plan.is_loop:
        uf[-1] = uf[0]  # face n is face 0
    return uf


def _first(bad: np.ndarray) -> int:
    """Index of the first episode flagged in a boolean (E,) array."""
    return int(np.argmax(bad))


# ===================== loop mass flux =====================


def _rising_root(a: np.ndarray, a_sum: float, d: np.ndarray, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per row, the G at which sum_j [a_j (G + c_j) + d_j (G + c_j)^2] = rhs while rising.

    a is (k,) with sum a_sum, and d, c are (E, k) and rhs is (E,); d_j is
    face j's friction weight, negated where the face runs backward. The
    quadratic A2 G^2 + A1 G + A0 rises (2 A2 G + A1 = sqrt(disc)) at this
    root, taken in the form without cancellation.
    """
    dc = d * c
    A2 = d.sum(axis=1)
    A1 = a_sum + 2.0 * dc.sum(axis=1)
    A0 = (a * c).sum(axis=1) + (dc * c).sum(axis=1) - rhs
    disc = A1 * A1 - 4.0 * A2 * A0
    if disc.min() >= 0.0 and A1.min() > 0.0:  # every row takes the first form, with no 0/0
        return 2.0 * A0 / (-A1 - np.sqrt(disc))
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN is caught as non-finite
        s = np.sqrt(disc)
        return np.where(A1 > 0.0, 2.0 * A0 / (-A1 - s), (s - A1) / (2.0 * A2))


def _loop_mass_flux(dzf: np.ndarray, a: np.ndarray, a_sum: float, wf: np.ndarray, rho_f: np.ndarray,
                    num: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The mass flux G (E,) leaving the pinned cell, face j carrying G + c_j.

    rho_f, num and c are (E, n), one column per loop face; dzf, a = dzf / dt
    (with sum a_sum) and wf = dzf f / 2 are the faces' fixed weights. G is
    the root of the loop momentum integral r(G) = sum_j dzf_j [(G + c_j)/dt
    + f_j |G + c_j| (G + c_j) / (2 rho_j)] - sum_j dzf_j num_j, where the
    face pressure drops sum to zero. r rises strictly and is quadratic
    between the breakpoints G = -c_j. With every face forward at the
    all-forward quadratic's root, that root is G. Otherwise the sign of r at
    each breakpoint tells which faces run forward at the root, and the
    quadratic of that piece gives G.
    """
    w = wf / rho_f
    rhs = (dzf * num).sum(axis=1)
    G = _rising_root(a, a_sum, w, c, rhs)
    x = G[:, None] + c
    if not x.min() >= 0.0:  # a face runs backward, or the all-forward quadratic has no real root
        back = ~(x >= 0.0).all(axis=1)  # NaN rows included
        if back.any():
            wb, cb = w[back], c[back]
            x = cb[:, None, :] - cb[:, :, None]  # x[e, k, j] = G + c_j at G = -c_k
            r = (a * x + wb[:, None, :] * np.abs(x) * x).sum(axis=2) - rhs[back, None]
            G[back] = _rising_root(a, a_sum, np.where(r <= 0.0, 1.0, -1.0) * wb, cb, rhs[back])
    return G


# ===================== substeps =====================


def _upwind(x: np.ndarray, forward: np.ndarray | None) -> np.ndarray:
    """Per face j, column j of the padded x where the flow runs forward, else column j + 1.

    ``forward`` is None when every face runs forward.
    """
    return x[:, :-1] if forward is None else np.where(forward, x[:, :-1], x[:, 1:])


def _running(x: np.ndarray, path: tuple, acc: np.ndarray) -> np.ndarray:
    """Running sums of x's columns in the path's order, read at its positions (0: the empty sum).

    acc is (E, len(order) + 1) scratch whose column 0 is zero and stays so.
    """
    order, pos = path
    x.take(order, axis=1).cumsum(axis=1, out=acc[:, 1:])
    return acc.take(pos, axis=1)


# ===================== public stepping API =====================


def _advance(plan: _Plan, scenario: ScenarioConfig, p: np.ndarray, T: np.ndarray, u_f: np.ndarray,
             v: np.ndarray, solver_config: SolverConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance E episodes one delta_t under constant controls v (E, m), substep by substep.

    p and T are (E, n) and u_f is (E, n + 1); the channel's inlet face takes
    each episode's u_in. Non-finite start fields raise NumericalError, and so
    does a substep whose Courant number exceeds 1, whose energy update leaves
    the closure's invertible range, or whose fields are not finite, naming
    the episode.

    What the controls and the substep fix is formed once, before the first
    substep: the source and pump terms, dt/dz and the loop's face weights.
    Each substep starts from the padded T and rho the last one left, and
    writes into scratch arrays that live only for this call.
    """
    n_sub = solver_config.n_substeps(scenario.delta_t)
    if not plan.is_loop:
        u_f = u_f.copy()
        u_f[:, 0] = v[:, plan.bc[0]]
    for name, x in (("p", p), ("T", T), ("u_face", u_f)):
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            raise NumericalError(f"non-finite {name} in the start state of episode {_first(bad)}")

    fluid = scenario.fluid
    a, b, cp = fluid.rho_a, fluid.rho_b, fluid.cp
    dt = solver_config.substep
    n, E = plan.grid.n_cells, T.shape[0]
    dt_dz, neg_dz = dt / plan.grid.dz, -plan.grid.dz
    q_cell = plan.q_fixed + v @ plan.q_ctrl.T
    source = dt * q_cell / cp
    if plan.is_loop:
        pump = v[:, plan.bc[0]] / plan.dzf[0]  # the pump head acts on the wrap face
        dzf = plan.dzf[:n]
        a_loop = dzf / dt
        loop_weights = (dzf, a_loop, a_loop.sum(), dzf * plan.half_fric[:n])
    # T on the ghost-padded cells, as columns of [T | v]: the channel's inlet ghost takes T_in
    T_v = np.empty((E, n + v.shape[1]))
    T_v[:, n:] = v
    T_v[:, :n] = T
    T_pad = T_v.take(plan.cells, axis=1)
    rho_pad = density(fluid, T_pad)
    u_pad = np.empty((E, plan.faces.size))
    flux_acc = np.zeros((E, plan.flux_path[0].size + 1))
    p_acc = np.zeros((E, plan.p_path[0].size + 1))

    for _ in range(n_sub):
        lo, hi = u_f.min(), u_f.max()
        if max(hi, -lo) * dt / plan.min_dz > 1.0:
            courant = np.abs(u_f).max(axis=1) * dt / plan.min_dz
            ep = _first(courant > 1.0)
            raise NumericalError(
                f"advective Courant number {courant[ep]:.3f} > 1 at substep {dt} s in episode {ep}; "
                "reduce the substep or the velocity range"
            )
        # upwind directions and face values are frozen at the old velocity signs
        forward = None if lo >= 0.0 else u_f >= 0.0

        # --- energy: conservative upwind fluxes of h = rho*T with old velocities ---
        h_pad = rho_pad * T_pad
        phi = u_f * _upwind(h_pad, forward)
        h_new = h_pad[:, 1:-1] - dt_dz * (phi[:, 1:] - phi[:, :-1]) + source
        if b > 0.0:
            disc = a * a - 4.0 * b * h_new
            if not disc.min() > 0.0:  # a NaN is left to the finite check
                bad = (disc <= 0.0).any(axis=1)
                if bad.any():
                    raise NumericalError(
                        f"energy update left the closure's invertible range in episode {_first(bad)}")
            T_new = (a - np.sqrt(disc)) / (2.0 * b)
        else:
            T_new = h_new / a
        rho_c = rho_pad[:, 1:-1]
        T_v[:, :n] = T_new
        T_v.take(plan.cells, axis=1, out=T_pad, mode="clip")  # indices in range: "clip" skips a buffered copy
        rho_pad = a - b * T_pad
        rho_new = rho_pad[:, 1:-1]

        # --- momentum + continuity ---
        rho_f = _upwind(rho_pad, forward)
        u_f.take(plan.faces, axis=1, out=u_pad, mode="clip")
        adv = u_f * _upwind((u_pad[:, 1:] - u_pad[:, :-1]) / plan.dz_pad, forward)  # explicit upwind u du/dz
        num = rho_f * (u_f / dt - adv + plan.grav)
        m_i = neg_dz * (rho_new - rho_c) / dt  # continuity source per cell

        # continuity fixes every face's mass flux from the start face's; each
        # face's momentum balance then gives its pressure drop
        c = _running(m_i, plan.flux_path, flux_acc)
        if plan.is_loop:  # G is the flux leaving the pinned cell
            num[:, 0] += pump
            start = _loop_mass_flux(*loop_weights, rho_f[:, :n], num[:, :n], c[:, :n])
        else:
            start = rho_f[:, 0] * u_f[:, 0]  # the inflow
        flux = start[:, None] + c
        u_new = flux / rho_f
        dpf = plan.dzf * (num - (1.0 / dt + plan.half_fric * np.abs(u_new)) * flux)
        if not plan.is_loop:
            u_new[:, 0] = u_f[:, 0]  # Dirichlet inlet
        p_new = plan.p_datum + plan.p_sign * _running(dpf, plan.p_path, p_acc)

        if not math.isfinite(p_new.sum() + u_new.sum() + T_new.sum()):  # a NaN or infinity (or a sum's overflow)
            bad = ~(np.isfinite(p_new).all(axis=1) & np.isfinite(u_new).all(axis=1)
                    & np.isfinite(T_new).all(axis=1))
            if bad.any():
                raise NumericalError(f"non-finite fields after substep in episode {_first(bad)}")
        u_f = u_new
    return p_new, T_new, u_f


def step(
    state: FieldState,
    inputs,
    scenario: ScenarioConfig,
    solver_config: SolverConfig = SolverConfig(),
) -> FieldState:
    """Advance the state one delta_t interval under constant controls, as a batch of one episode."""
    plan = _plan(scenario)
    v = _check_inputs(plan, inputs)
    u_f = _face_velocities(plan, state)
    fields = (np.asarray(state.p, dtype=float), np.asarray(state.T, dtype=float), u_f)
    p, T, u_f = (x[0] for x in _advance(plan, scenario, *(x[None] for x in fields), v[None], solver_config))
    return FieldState(grid_z=plan.grid.centers, p=p, T=T, u_face=u_f)


# ===================== steady state =====================


def _closure_checked(fluid, T: np.ndarray, where: str) -> np.ndarray:
    """T, if it sits below the closure's vertex, where h = rho(T) T inverts back to T."""
    if fluid.rho_b > 0.0 and not np.all(T < fluid.rho_a / (2.0 * fluid.rho_b)):
        raise NumericalError(
            f"{where}: steady T up to {np.max(T):.6g} K is beyond the closure's invertible range"
        )
    return T


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float, where: str,
            maxiter: int = 100) -> float:
    """Root of f between xpre and xcur, where f takes the values fpre and fcur of opposite signs.

    Brent's method (Brent 1973, ch. 4) with xtol = 2e-12 and rtol = 4 eps:
    inverse quadratic or secant steps, bisecting whenever a step would not
    shrink the bracket fast enough. The update order is the classic C
    ``brentq``'s, so the root is the same float. Raises NumericalError, led
    by ``where``, when ``maxiter`` iterations do not converge.
    """
    xtol, rtol = 2e-12, 4.0 * np.finfo(float).eps
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise NumericalError(f"{where}: Brent's method did not converge in {maxiter} iterations "
                         f"(last iterate {xcur:.6e})")


def _steady_faces(plan: _Plan, fluid, T: np.ndarray, v: np.ndarray, G: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """u_face and face dp at mass flux G > 0, cell T and inputs v; the flow runs forward.

    At a fixed point momentum reduces to dp_j = -dzf_j rho_j (f_j |u_j| u_j / 2 + adv_j - g_j).
    """
    rho_f = density(fluid, np.concatenate((T, v)).take(plan.cells[:-1]))
    u_f = G / rho_f
    adv = u_f * (u_f - u_f.take(plan.faces[:-2])) / plan.dz_pad[:-1]
    return u_f, -plan.dzf * rho_f * (plan.fric * np.abs(u_f) * u_f / 2.0 + adv - plan.grav)


def _loop_flow(plan: _Plan, scenario: ScenarioConfig, v: np.ndarray, heat: np.ndarray):
    """Loop fixed point (G, T): T = T_bar + d(G), G from the pump head.

    d is the zero-mean part of cumsum(q dz) / (c_p G). Pinning sum(rho(T) T dz)
    at rho(T_ref) T_ref L gives b T_bar^2 - a T_bar + h_ref + b var(d) = 0
    (smaller root); G is the root of sum(-dp_j) = dp_pump, bracketed from the
    isothermal friction balance and found by Brent's method (Brent 1973).
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
    dp_pump = float(v[plan.bc[0]])

    def temperature(G: float) -> np.ndarray:
        d = s / G
        d -= float(d @ dz) / length
        k = h_ref + b * float((d * d) @ dz) / length
        T = 2.0 * k / (a + np.sqrt(max(a * a - 4.0 * b * k, 0.0))) + d  # exact at b = 0
        return _closure_checked(fluid, T, f"loop at G = {G:.6g} kg/m^2/s, pump head {dp_pump} Pa")

    def residual(G: float) -> float:
        return -float(np.sum(_steady_faces(plan, fluid, temperature(G), v, G)[1][:-1])) - dp_pump

    # expand a bracket from the isothermal friction balance
    drag = float(plan.fric[:-1] @ plan.dzf[:-1]) / (2.0 * rho_ref)
    lo = hi = np.sqrt(abs(dp_pump) / drag) if drag > 0.0 and dp_pump != 0.0 else rho_ref
    for _ in range(200):
        r_lo, r_hi = residual(lo), residual(hi)
        if r_lo <= 0.0 <= r_hi:
            G = _brentq(residual, float(lo), float(hi), r_lo, r_hi,
                        f"loop mass flux in [{lo:.3e}, {hi:.3e}] kg/m^2/s at pump head {dp_pump} Pa")
            return G, temperature(G)
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
    it), G the pump-head root, p summed onward from the pinned ``reference_cell``.

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
        G, T = _loop_flow(plan, scenario, v, heat)
        u_f, dpf = _steady_faces(plan, fluid, T, v, G)
        dpf[0] += v[plan.bc[0]]  # the pump head
    else:
        u_in, T_in = (float(v[i]) for i in plan.bc)
        G = float(density(fluid, T_in)) * u_in
        if not G > 0.0:
            raise NumericalError(f"heated channel has no steady state at inlet mass flux {G} kg/m^2/s")
        T = _closure_checked(fluid, T_in + np.cumsum(heat) / (G * fluid.cp), "heated channel")
        u_f, dpf = _steady_faces(plan, fluid, T, v, G)
        u_f[0] = u_in
    acc = np.zeros((1, plan.p_path[0].size + 1))
    p = plan.p_datum + plan.p_sign * _running(dpf[None], plan.p_path, acc)[0]
    if not all(np.all(np.isfinite(x)) for x in (p, u_f, T)):
        raise NumericalError(f"non-finite steady fields at inputs {v}")
    return FieldState(grid_z=plan.grid.centers, p=p, T=T, u_face=u_f)


# ===================== experiments =====================


def sensor_readout(state: FieldState, stations) -> np.ndarray:
    """(3, s) array of (p, u, T) linearly interpolated at the station positions."""
    stations = np.asarray(stations, dtype=float)
    return np.stack([np.interp(stations, state.grid_z, f) for f in (state.p, state.u, state.T)])


def run_experiments(
    scenario: ScenarioConfig,
    inputs,
    starts,
    solver_config: SolverConfig = SolverConfig(),
) -> list[SimulationRecord]:
    """Step a corpus of episodes together, one record per start state.

    ``inputs`` is (E, K+1, m) for the E ``starts``: episode e's control
    vector at each control time t_k, held over [t_k, t_{k+1}) (zero-order
    hold at the control cadence), as ``generate_trajectories`` draws them.
    The episodes advance in lockstep as one batch, and every record is
    bit-identical to stepping its episode alone. Numerical failures name the
    episode by its index in ``starts``.
    """
    starts = list(starts)
    plan = _plan(scenario)
    stations = np.asarray(scenario.sensor_stations, dtype=float)
    K = round(scenario.episode_duration / scenario.delta_t)
    E, n, z = len(starts), plan.grid.n_cells, plan.grid.centers
    v = np.asarray(inputs, dtype=float)
    if E < 1 or v.shape != (E, K + 1, plan.v_lo.size):
        raise ConfigError(f"need at least one start state and inputs of shape (E, K+1, m) = "
                          f"({E}, {K + 1}, {plan.v_lo.size}) for them, got {v.shape}")

    p = np.empty((E, K + 1, n))
    u = np.empty((E, K + 1, n))
    T = np.empty((E, K + 1, n))
    sensors = np.empty((E, K + 1, 3, stations.size))

    u_f = np.array([_face_velocities(plan, state) for state in starts])
    for e, state in enumerate(starts):
        p[e, 0], u[e, 0], T[e, 0] = state.p, state.u, state.T
    for k in range(K):
        p_k, T_k, u_f = _advance(plan, scenario, p[:, k], T[:, k], u_f, _check_inputs(plan, v[:, k]),
                                 solver_config)
        p[:, k + 1], u[:, k + 1], T[:, k + 1] = p_k, 0.5 * (u_f[:, :-1] + u_f[:, 1:]), T_k
    for e in range(E):
        for k in range(K + 1):
            sensors[e, k] = [np.interp(stations, z, f[e, k]) for f in (p, u, T)]

    times = np.arange(K + 1) * scenario.delta_t
    return [
        SimulationRecord(
            scenario_hash=scenario_fingerprint(scenario),
            times=times.copy(),
            grid_z=z.copy(),
            p=p[e],
            u=u[e],
            T=T[e],
            v=v[e],
            station_z=stations.copy(),
            sensors=sensors[e],
        )
        for e in range(E)
    ]


# ===================== trajectory generation =====================


def generate_trajectories(seed: int, scenario: ScenarioConfig, n_experiments: int) -> np.ndarray:
    """Random hold/ramp control schedules, held at the control times: (n_experiments, K+1, m).

    Each channel's schedule is piecewise linear between knots, and row k of
    an experiment is its value at t_k = k delta_t, the input that
    ``run_experiments`` holds over [t_k, t_{k+1}). Each channel alternates
    holds of random duration with linear ramps of random rate, clipped to the
    configured ranges. Successive ramp targets
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
    times = np.arange(round(duration / dt) + 1) * dt
    out = np.empty((n_experiments, times.size, scenario.n_controls))
    for k in range(n_experiments):
        rng = np.random.default_rng((seed, k))
        for j, (lo, hi) in enumerate(scenario.input_ranges):
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
            out[k, :, j] = np.interp(times, t_list, v_list)
    return out


# ===================== fault injection =====================


def inject_degradation(
    scenario: ScenarioConfig, *, segment_index: int, friction_multiplier: float
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
