"""Constraint governors on top of a linearized one-step surrogate.

The trained network F(z*, t* = 1, v*, x0*) evaluated at the sensor stations
is a discrete-time state map x_{k+1} = f(x_k, v_k) on the scaled sensor
state (q = 3 * n_stations entries, fields-major). ``linearize`` extracts
its Jacobians A, B about an operating point by forward-mode directional
derivatives, keeping the zeroth-order term f(x00, v00), so the affine
prediction is exact at the linearization point.

``build_oinf`` stacks the output-constraint half-spaces propagated over a
finite horizon plus a tightened steady-state row, in the delta coordinates
(x - x00, v - v00). The command governor projects the reference onto them
exactly, as a least-distance problem solved by one non-negative
least-squares call.
``ncg_rollout`` runs the governed loop against the reference solver (or the
model itself), re-linearizing on a fixed cadence and on every
constraint-schedule change.

All governor math runs in scaled units; rollout logs report physical ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .errors import NumericalError
from .network import MlpSpec, ParamStore, forward, input_jacobian
from .solver import SolverConfig, sensor_readout, steady_state, step
from .training import input_layout, query_rows, scale_sensors
from .transport import ConfigError, ScalingSpec, ScenarioConfig, scenario_fingerprint

__all__ = [
    "LinearSSM",
    "Constraint",
    "ConstraintSet",
    "ConstraintSchedule",
    "OInfApprox",
    "CgConfig",
    "temperature_cap",
    "station_predict",
    "linearize",
    "build_oinf",
    "cg_solve",
    "least_distance_qp",
    "ncg_rollout",
]


# ===================== one-step state map =====================


def station_predict(
    spec: MlpSpec, params: ParamStore, scenario: ScenarioConfig, scaling: ScalingSpec,
    x: np.ndarray, v: np.ndarray,
) -> np.ndarray:
    """One-step state map: scaled sensor state and input -> next scaled state."""
    rows = query_rows(input_layout(scenario), scaling.scale_z(scenario.sensor_stations), 1.0, v, x)
    return forward(spec, params, rows).T.ravel()  # (s, 3) -> fields-major (q,)


@dataclass(frozen=True)
class LinearSSM:
    """Affine one-step model x_{k+1} = y00 + A (x_k - x00) + B (v_k - v00)."""

    A: np.ndarray  # (q, q)
    B: np.ndarray  # (q, p)
    x00: np.ndarray  # (q,) linearization state, scaled
    v00: np.ndarray  # (p,) linearization input, scaled
    y00: np.ndarray  # (q,) the map's own output at (x00, v00)

    @property
    def offset(self) -> np.ndarray:
        """Constant drift a0 = y00 - x00 of the delta-coordinate dynamics."""
        return self.y00 - self.x00

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


def linearize(
    spec: MlpSpec, params: ParamStore, scenario: ScenarioConfig, scaling: ScalingSpec,
    x00: np.ndarray, v00: np.ndarray,
) -> LinearSSM:
    """Jacobians of the one-step state map via directional derivatives.

    Column j of A is the output tangent along the j-th x0 input axis (and
    likewise B along the control axes), evaluated at the station rows; one
    stacked tangent pass gives all q + p columns.
    """
    lay = input_layout(scenario)
    x00 = np.asarray(x00, dtype=float)
    v00 = np.asarray(v00, dtype=float)
    if x00.shape != (lay.n_state,) or v00.shape != (lay.n_controls,):
        raise ConfigError("linearization point does not match the scenario layout")
    rows = query_rows(lay, scaling.scale_z(scenario.sensor_stations), 1.0, v00, x00)
    y00 = forward(spec, params, rows).T.ravel()
    q = lay.n_state
    axes = np.eye(lay.input_dim)[np.r_[lay.x0_cols, lay.v_cols]]
    # (q+p, s, 3) tangents -> fields-major columns, as y00 is laid out
    J = input_jacobian(spec, params, rows, axes).transpose(0, 2, 1).reshape(axes.shape[0], -1).T
    A, B = J[:, :q], J[:, q:]
    return LinearSSM(A=A, B=B, x00=x00.copy(), v00=v00.copy(), y00=y00)


# ===================== constraints =====================


@dataclass(frozen=True)
class Constraint:
    """One half-space c . x* <= d on the scaled sensor state."""

    c: tuple  # (q,) coefficients
    d: float
    name: str = ""


@dataclass(frozen=True)
class ConstraintSet:
    rows: tuple = ()

    def __post_init__(self) -> None:
        for r in self.rows:
            if not np.all(np.isfinite(r.c)) or not np.isfinite(r.d):
                raise ConfigError("constraint coefficients must be finite")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        C = np.array([r.c for r in self.rows], dtype=float)
        d = np.array([r.d for r in self.rows], dtype=float)
        return C, d


@dataclass(frozen=True)
class ConstraintSchedule:
    """Piecewise-constant constraint sets: (start_step, set) entries."""

    entries: tuple = ()  # ((step, ConstraintSet), ...) steps strictly increasing from 0

    def __post_init__(self) -> None:
        steps = [s for s, _ in self.entries]
        if steps and (steps[0] != 0 or any(b <= a for a, b in zip(steps, steps[1:]))):
            raise ConfigError("schedule steps must increase strictly from 0")

    def active(self, k: int) -> ConstraintSet:
        current = ConstraintSet()
        for start, cset in self.entries:
            if k >= start:
                current = cset
        return current

    def change_points(self) -> set:
        return {s for s, _ in self.entries}


def temperature_cap(
    scenario: ScenarioConfig, scaling: ScalingSpec, station_index: int, cap_kelvin: float,
    name: str = "T_cap",
) -> Constraint:
    """Upper bound on the temperature at one sensor station."""
    lay = input_layout(scenario)
    if not 0 <= station_index < lay.n_stations:
        raise ConfigError("station index out of range")
    c = np.zeros(lay.n_state)
    c[2 * lay.n_stations + station_index] = 1.0  # T block is fields-major third
    return Constraint(c=tuple(c), d=float(scaling.scale_field("T", cap_kelvin)), name=name)


# ===================== admissible set =====================


@dataclass(frozen=True)
class OInfApprox:
    """Half-spaces H_x (x - x00) + H_v (v - v00) <= h, horizon + steady rows."""

    H_x: np.ndarray  # (R, q)
    H_v: np.ndarray  # (R, p)
    h: np.ndarray  # (R,)
    horizon: int
    epsilon: float
    x00: np.ndarray
    v00: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.h.size

    def margins(self, delta_x: np.ndarray, delta_v: np.ndarray) -> np.ndarray:
        return self.h - self.H_x @ delta_x - self.H_v @ delta_v

    def contains(self, delta_x: np.ndarray, delta_v: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(np.all(self.margins(delta_x, delta_v) >= -tol))


def build_oinf(ssm: LinearSSM, constraints: ConstraintSet, horizon: int = 50,
               epsilon: float = 0.01) -> OInfApprox:
    """Finite-horizon output-admissibility rows plus a tightened steady row.

    Row block k (0..T) forces c . x_k <= d when v is held constant, with
    x_k = x00 + A^k dx + S_k (a0 + B dv), S_k = sum_{j<k} A^j. The steady
    block tightens d by epsilon * ||c|| so the horizon truncation is safe.
    """
    if constraints.n_rows == 0:
        raise ConfigError("admissible set needs at least one constraint row")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    rho = ssm.spectral_radius
    if rho >= 1.0:
        raise NumericalError(f"state matrix is not Schur (spectral radius {rho:.4f})")
    C, d = constraints.stacked()
    q = ssm.A.shape[0]
    a0 = ssm.offset
    d_tilde = d - C @ ssm.x00

    Hx_blocks, Hv_blocks, h_blocks = [], [], []
    Ak = np.eye(q)
    Sk = np.zeros((q, q))
    for _ in range(horizon + 1):
        Hx_blocks.append(C @ Ak)
        Hv_blocks.append(C @ Sk @ ssm.B)
        h_blocks.append(d_tilde - C @ Sk @ a0)
        Sk = Sk + Ak
        Ak = ssm.A @ Ak
    # steady state: x_ss = x00 + (I - A)^{-1} (a0 + B dv)
    I_minus_A = np.eye(q) - ssm.A
    try:
        G = np.linalg.solve(I_minus_A, np.column_stack([a0, ssm.B]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("I - A is singular; steady-state row unavailable") from exc
    g0, Gb = G[:, 0], G[:, 1:]
    Hx_blocks.append(np.zeros_like(C))
    Hv_blocks.append(C @ Gb)
    h_blocks.append(d_tilde - C @ g0 - epsilon * np.linalg.norm(C, axis=1))
    return OInfApprox(
        H_x=np.vstack(Hx_blocks),
        H_v=np.vstack(Hv_blocks),
        h=np.concatenate(h_blocks),
        horizon=horizon,
        epsilon=epsilon,
        x00=ssm.x00.copy(),
        v00=ssm.v00.copy(),
    )


# ===================== governors =====================


def least_distance_qp(E: np.ndarray, F: np.ndarray, M: np.ndarray, gamma: np.ndarray
                      ) -> tuple[np.ndarray, str]:
    """min 0.5 v'Ev + F'v  s.t.  Mv <= gamma, solved exactly.

    With E = LL' and x = L'(v - v_free), v_free = -E^{-1}F, the problem is
    the least-distance problem min ||x|| s.t. Gx <= g (G = M L^{-T},
    g = gamma - M v_free), which one non-negative least-squares call solves
    (Lawson & Hanson 1974, ch. 23). A zero residual means no x satisfies
    the rows. Returns the minimizer with status ok | infeasible.
    """
    L = np.linalg.cholesky(E)
    v_free = -np.linalg.solve(E, F)
    g = gamma - M @ v_free
    if np.all(g >= 0.0):
        return v_free, "ok"
    G = np.linalg.solve(L, M.T).T  # M L^{-T}
    n = v_free.size
    A = -np.vstack([G.T, g])
    e = np.zeros(n + 1)
    e[n] = 1.0
    u, _ = nnls(A, e)
    r = A @ u - e  # ||r||^2 = -r[n] = 1 / (1 + ||x||^2) at the solution
    if -r[n] <= np.finfo(float).eps:
        return v_free, "infeasible"
    v = v_free + np.linalg.solve(L.T, -r[:n] / r[n])
    if np.any(M @ v > gamma + 1e-6):
        return v, "infeasible"
    return v, "ok"


def cg_solve(oinf: OInfApprox, x_k: np.ndarray, r_k: np.ndarray, Q: np.ndarray,
             v_prev: np.ndarray) -> tuple[np.ndarray, str]:
    """Command governor: project r_k onto the admissible inputs at x_k.

    Solves min ||v - r_k||_Q^2 over the O-infinity rows with the state
    fixed. A reference inside the set to 1e-9 passes through as
    at_reference; an empty admissible set falls back to v_prev with
    status fallback_infeasible.
    """
    dx = np.asarray(x_k, dtype=float) - oinf.x00
    dr = np.asarray(r_k, dtype=float) - oinf.v00
    if oinf.contains(dx, dr):
        return np.asarray(r_k, dtype=float), "at_reference"
    E = 2.0 * Q
    F = -2.0 * (Q @ dr)
    gamma = oinf.h - oinf.H_x @ dx
    dv, status = least_distance_qp(E, F, oinf.H_v, gamma)
    if status != "ok":
        return np.asarray(v_prev, dtype=float), f"fallback_{status}"
    return oinf.v00 + dv, "ok"


# ===================== governed rollout =====================


@dataclass(frozen=True)
class CgConfig:
    horizon: int = 50  # O-infinity horizon T
    epsilon: float = 0.01  # steady-state tightening, scaled units
    update_interval: int = 10  # re-linearization cadence gamma, steps
    q_weight: tuple | None = None  # row-major (p, p) weighting; identity if None

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.update_interval < 1:
            raise ConfigError("horizon and update_interval must be >= 1")

    def weight_matrix(self, p: int) -> np.ndarray:
        if self.q_weight is None:
            return np.eye(p)
        Q = np.asarray(self.q_weight, dtype=float).reshape(p, p)
        Q = 0.5 * (Q + Q.T)  # the symmetric part weighs ||v - r||_Q^2 the same
        if np.linalg.eigvalsh(Q).min() <= 0:
            raise ConfigError("Q weighting must be positive definite")
        return Q


@dataclass
class RolloutLog:
    """Per-step governor record plus the simulated state history."""

    steps: list = field(default_factory=list)  # dicts for formats.write_rollout_log
    states: list = field(default_factory=list)  # FieldState per step end
    output_names: list = field(default_factory=list)  # constraint row names
    relinearizations: int = 0


def ncg_rollout(
    spec: MlpSpec,
    params: ParamStore,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    references: np.ndarray,
    schedule: ConstraintSchedule,
    config: CgConfig = CgConfig(),
    solver_config: SolverConfig = SolverConfig(),
    environment: str = "solver",
) -> RolloutLog:
    """Run the governed control loop along a physical reference trajectory.

    references is (K, p) in physical units. Each step: refresh the
    linearization every ``update_interval`` steps (and rebuild the admissible
    set whenever the linearization or the active constraint set changed),
    filter r_k through the command governor, and apply the result to the
    environment: the reference solver, or the model itself when
    ``environment='model'``. With an empty schedule the governor is
    transparent and v_k = r_k throughout.
    """
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    lay = input_layout(scenario)
    if refs.shape[1] != lay.n_controls:
        raise ConfigError("reference trajectory width does not match the control count")
    if environment not in ("solver", "model"):
        raise ConfigError(f"unknown environment {environment!r}")
    Q = config.weight_matrix(lay.n_controls)
    state = steady_state(scenario, refs[0])
    stations = np.asarray(scenario.sensor_stations)

    def observe(st) -> np.ndarray:
        return scale_sensors(scaling, sensor_readout(st, stations))

    x_k = observe(state)
    v_prev = scaling.scale_v(refs[0])
    log = RolloutLog()
    active = schedule.active(0)
    oinf = None
    ssm = None
    names = []
    for _, cset in schedule.entries:
        for row in cset.rows:
            if row.name not in names:
                names.append(row.name)
    log.output_names = names  # consumed by the CSV writer

    for k in range(refs.shape[0]):
        r_scaled = scaling.scale_v(refs[k])
        relin_due = ssm is None or (k % config.update_interval == 0)
        cset_k = schedule.active(k)
        constraints_changed = k in schedule.change_points()
        if cset_k.n_rows > 0 and (relin_due or constraints_changed or oinf is None):
            # linearization refresh first, then the constraint update
            if relin_due:
                ssm = linearize(spec, params, scenario, scaling, x_k, v_prev)
                log.relinearizations += 1
            oinf = build_oinf(ssm, cset_k, horizon=config.horizon, epsilon=config.epsilon)
            active = cset_k
        if cset_k.n_rows == 0:
            v_scaled, status = r_scaled, "no_constraints"
            oinf = None
            active = cset_k
        else:
            v_scaled, status = cg_solve(oinf, x_k, r_scaled, Q, v_prev)
        v_phys = scaling.unscale_v(v_scaled)

        if environment == "solver":
            state = step(state, v_phys, scenario, solver_config)
            x_k = observe(state)
            log.states.append(state)
        else:
            x_k = station_predict(spec, params, scenario, scaling, x_k, v_scaled)

        outputs, bounds = [], []
        by_name = {row.name: row for row in active.rows}
        for nm in names:
            row = by_name.get(nm)
            if row is None:
                outputs.append(float("nan"))
                bounds.append(None)
            else:
                outputs.append(float(np.dot(row.c, x_k)))
                bounds.append(row.d)
        log.steps.append(
            {"step": k, "r": refs[k].copy(), "v": v_phys, "status": status,
             "outputs": outputs, "bounds": bounds}
        )
        v_prev = v_scaled
    return log
