"""Constraint governors on top of a linearized one-step surrogate.

The trained network F(z*, t* = 1, v*, x0*) evaluated at the sensor stations
is a discrete-time state map x_{k+1} = f(x_k, v_k) on the scaled sensor
state (q = 3 * n_stations entries, fields-major). ``linearize`` extracts
its Jacobians A, B about an operating point, keeping the zeroth-order term
f(x00, v00), so the affine prediction is exact at the linearization point.
``network.input_jacobian`` gives both: one value pass for f(x00, v00) and
one reverse sweep over the 3 outputs of each station row for the rows of
A and B, the network's input Jacobian at its x0 and v columns.

``build_oinf`` stacks the output-constraint half-spaces propagated over a
finite horizon plus a tightened steady-state row, in the delta coordinates
(x - x00, v - v00). It works on the r constraint rows only: the rows C A^k
stack by doubling ([C; CA] times A^2 gives [C; CA; CA^2; CA^3], about
log2 T matmuls), and the input and drift terms C S_k B, C S_k a0 are block
cumulative sums of (C A^j)[B a0]. The command governor projects the
reference onto the half-spaces exactly, as a least-distance problem solved
by one non-negative least-squares call.
``ncg_rollout`` runs the governed loop against the reference solver (or the
model itself), re-linearizing on a fixed cadence and on every
constraint-schedule change.

All governor math runs in scaled units; rollout logs report physical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .network import ParamStore, forward, input_jacobian
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
    "ncg_rollout",
]


# ===================== one-step state map =====================


def station_predict(
    params: ParamStore, scenario: ScenarioConfig, scaling: ScalingSpec, x: np.ndarray, v: np.ndarray,
) -> np.ndarray:
    """One-step state map: scaled sensor state and input -> next scaled state."""
    rows = query_rows(input_layout(scenario), scaling.scale_z(scenario.sensor_stations), 1.0, v, x)
    return forward(params, rows).T.ravel()  # (s, 3) -> fields-major (q,)


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
        try:
            eig = np.linalg.eigvals(self.A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigenvalues of the {self.A.shape[0]}-state matrix A: {exc}") from exc
        return float(np.max(np.abs(eig)))


def linearize(
    params: ParamStore, scenario: ScenarioConfig, scaling: ScalingSpec, x00: np.ndarray, v00: np.ndarray,
) -> LinearSSM:
    """Jacobians of the one-step state map from the network's input Jacobian at the station rows.

    Row f*s + j of A is station j's field f differentiated along the x0
    inputs, and of B along the control inputs, as ``station_predict`` lays
    its output out. ``input_jacobian`` gives y00 from its value pass and
    every row from its one reverse sweep.
    """
    lay = input_layout(scenario)
    x00 = np.asarray(x00, dtype=float)
    v00 = np.asarray(v00, dtype=float)
    if x00.shape != (lay.n_state,) or v00.shape != (lay.n_controls,):
        raise ConfigError("linearization point does not match the scenario layout")
    rows = query_rows(lay, scaling.scale_z(scenario.sensor_stations), 1.0, v00, x00)
    y, J = input_jacobian(params, rows)
    J = J.reshape(lay.n_state, lay.input_dim)  # (3, s, input_dim) -> one fields-major row per output
    return LinearSSM(A=J[:, lay.x0_cols], B=J[:, lay.v_cols], x00=x00.copy(), v00=v00.copy(), y00=y.T.ravel())


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
    """Piecewise-constant constraint sets: (start_step, set) entries.

    The rollout log keys each row by its name, so the rows of one entry need
    distinct names; an entry after it may reuse a name to change that bound.
    """

    entries: tuple = ()  # ((step, ConstraintSet), ...) steps strictly increasing from 0

    def __post_init__(self) -> None:
        steps = [s for s, _ in self.entries]
        if steps and (steps[0] != 0 or any(b <= a for a, b in zip(steps, steps[1:]))):
            raise ConfigError("schedule steps must increase strictly from 0")
        for start, cset in self.entries:
            names = [row.name for row in cset.rows]
            for name in names:
                if names.count(name) > 1:
                    raise ConfigError(f"constraint name {name!r} repeats in the schedule entry from step {start}; "
                                      "each row of an entry needs its own name")

    def active(self, k: int) -> ConstraintSet:
        current = ConstraintSet()
        for start, cset in self.entries:
            if k >= start:
                current = cset
        return current


def temperature_cap(
    scenario: ScenarioConfig, scaling: ScalingSpec, *, station_index: int, cap_kelvin: float, name: str = "",
) -> Constraint:
    """Upper bound on the temperature at one sensor station, named ``T_cap_<station_index>`` by default."""
    lay = input_layout(scenario)
    if not 0 <= station_index < lay.n_stations:
        raise ConfigError("station index out of range")
    if not cap_kelvin > 0.0:
        raise ConfigError(f"a temperature cap must lie above absolute zero ('cap_kelvin' > 0, "
                          f"'cap_celsius' > -273.15), got {cap_kelvin!r} K")
    c = np.zeros(lay.n_state)
    c[2 * lay.n_stations + station_index] = 1.0  # T block is fields-major third
    return Constraint(c=tuple(c), d=float(scaling.scale_field("T", cap_kelvin)), name=name or f"T_cap_{station_index}")


# ===================== admissible set =====================

ADMIT_TOL = 1e-9  # a margin down to -ADMIT_TOL still counts as inside the admissible set


@dataclass(frozen=True)
class OInfApprox:
    """Half-spaces H_x (x - x00) + H_v (v - v00) <= h, horizon + steady rows."""

    H_x: np.ndarray  # (R, q)
    H_v: np.ndarray  # (R, p)
    h: np.ndarray  # (R,)
    x00: np.ndarray
    v00: np.ndarray

    def margins(self, delta_x: np.ndarray, delta_v: np.ndarray) -> np.ndarray:
        return self.h - self.H_x @ delta_x - self.H_v @ delta_v


def build_oinf(ssm: LinearSSM, constraints: ConstraintSet, horizon: int, epsilon: float) -> OInfApprox:
    """Finite-horizon output-admissibility rows plus a tightened steady row.

    Row block k (0..T) forces c . x_k <= d when v is held constant, with
    x_k = x00 + A^k dx + S_k (a0 + B dv), S_k = sum_{j<k} A^j. Only the r
    constraint rows are propagated: the blocks C A^k stack by doubling (the
    first b blocks times A^b give the next b, then A^b squares), and
    C S_k [B a0] is the cumulative sum of the blocks (C A^j)[B a0], shifted
    by one block. The steady block tightens d by epsilon * ||c|| (epsilon
    >= 0) so the horizon truncation is safe.

    A must be Schur. The last power the doubling forms, A^b, certifies it
    when ||A^b||_F < 1, since rho(A)^b <= ||A^b||_F; otherwise (a strongly
    non-normal A, or one that is not Schur) the eigenvalues decide.
    """
    if constraints.n_rows == 0:
        raise ConfigError("admissible set needs at least one constraint row")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if not epsilon >= 0.0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon!r}")
    if not np.all(np.isfinite(ssm.A)):
        raise NumericalError("state matrix A holds non-finite entries")
    C, d = constraints.stacked()
    r, q = C.shape
    p = ssm.B.shape[1]
    n = horizon + 1
    a0 = ssm.offset
    d_tilde = d - C @ ssm.x00

    # blocks C A^k, k = 0..T: with b blocks stacked and Ab = A^b, the first
    # (up to) b blocks times Ab are the next ones
    H_x = np.zeros(((n + 1) * r, q))  # the last block is the steady row's, zero
    H_x[:r] = C
    Ab, b = ssm.A, 1
    with np.errstate(over="ignore", invalid="ignore"):  # the powers of a non-Schur A may overflow
        while b < n:
            m = min(b, n - b)
            np.matmul(H_x[: m * r], Ab, out=H_x[b * r : (b + m) * r])
            b += m
            if b < n:
                Ab = Ab @ Ab
        certified = np.linalg.norm(Ab) < 1.0
    if not certified and (rho := ssm.spectral_radius) >= 1.0:
        raise NumericalError(f"state matrix is not Schur (spectral radius {rho:.4f})")
    # block k of CS is C S_k [B a0] = sum_{j<k} (C A^j)[B a0]
    W = (H_x[: n * r] @ np.column_stack([ssm.B, a0])).reshape(n, r, p + 1)
    CS = np.zeros_like(W)
    np.cumsum(W[:-1], axis=0, out=CS[1:])
    # steady state: x_ss = x00 + (I - A)^{-1} (a0 + B dv)
    I_minus_A = np.eye(q) - ssm.A
    try:
        G = np.linalg.solve(I_minus_A, np.column_stack([a0, ssm.B]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("I - A is singular; steady-state row unavailable") from exc
    g0, Gb = G[:, 0], G[:, 1:]
    return OInfApprox(
        H_x=H_x,
        H_v=np.vstack([CS[:, :, :p].reshape(n * r, p), C @ Gb]),
        h=np.concatenate([(d_tilde - CS[:, :, p]).ravel(),
                          d_tilde - C @ g0 - epsilon * np.linalg.norm(C, axis=1)]),
        x00=ssm.x00.copy(),
        v00=ssm.v00.copy(),
    )


# ===================== governors =====================


def _least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """z minimizing ||A z - b||, or None when A's last column depends on the others.

    Modified Gram-Schmidt on the columns of [A b], which is backward stable
    for least squares (Bjorck 1967), then back substitution. The last
    column counts as dependent when its part orthogonal to the others is
    lost beside their part at a factor 0.01, Lawson & Hanson's test.
    """
    k = A.shape[1]
    V = np.empty((k + 1, A.shape[0]))  # rows: the columns, then b
    V[:k] = A.T
    V[k] = b
    R = np.zeros((k, k + 1))
    for i in range(k):
        r_ii = math.sqrt(V[i] @ V[i])
        if i == k - 1:
            unorm = math.sqrt(R[:i, i] @ R[:i, i])
            if not (unorm + 0.01 * r_ii) - unorm > 0.0:
                return None
        R[i, i] = r_ii
        q = V[i] / r_ii
        R[i, i + 1:] = V[i + 1:] @ q
        V[i + 1:] -= R[i, i + 1:, None] * q
    z = np.empty(k)
    for i in reversed(range(k)):
        z[i] = (R[i, k] - R[i, i + 1:k] @ z[i + 1:]) / R[i, i]
    return z


def _nnls(A: np.ndarray, b: np.ndarray, maxiter: int | None = None) -> np.ndarray:
    """x >= 0 minimizing ||A x - b||, by Lawson & Hanson's active-set method (1974, ch. 23).

    The passive set P starts empty. Each outer step moves in the column of
    largest gradient w = A'(b - Ax), if it is independent of P and takes a
    positive coefficient, and stops when no w_j > 0 is left or P has one
    column per row. Each inner step solves least squares on P and, while a
    coefficient is not positive, moves x toward that solution until one
    reaches 0 and drops it from P. Raises NumericalError when the inner
    steps, counted as least-squares solves on P, pass ``maxiter`` (default 3n).
    """
    m, n = A.shape
    maxiter = 3 * n if maxiter is None else maxiter
    x, P, steps = np.zeros(n), [], 0
    w = A.T @ b
    while len(P) < m:
        w[P] = 0.0
        j = int(np.argmax(w))
        if not w[j] > 0.0:
            break
        z = _least_squares(A[:, P + [j]], b)
        if z is None or not z[-1] > 0.0:
            w[j] = 0.0  # not a candidate until w is formed again
            continue
        P.append(j)
        while True:
            steps += 1
            if steps > maxiter:
                raise NumericalError(f"non-negative least squares did not converge in {maxiter} steps")
            if not (neg := z <= 0.0).any():
                break
            xp = x[P]
            t = np.where(neg, xp / np.where(neg, xp - z, 1.0), 2.0)  # step to each coefficient's zero
            k = int(np.argmin(t))
            xp += t[k] * (z - xp)
            xp[k] = 0.0
            x[P] = np.maximum(xp, 0.0)
            P = [i for i, xi in zip(P, xp) if xi > 0.0]
            z = _least_squares(A[:, P], b)
        x[P] = z
        w = A.T @ (b - A @ x)
    return x


def _least_distance(G: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """x of least norm with G x <= g, or None when no x satisfies the rows.

    One non-negative least-squares call on [G'; g'] u ~ e_{n+1} solves it
    (Lawson & Hanson 1974, ch. 23): its residual r gives x = -r[:n] / r[n],
    and r = 0 means the rows are inconsistent. An x that breaks a row by
    more than 1e-6 counts as infeasible too.
    """
    n = G.shape[1]
    A = -np.vstack([G.T, g])
    e = np.zeros(n + 1)
    e[n] = 1.0
    try:
        r = A @ _nnls(A, e) - e  # ||r||^2 = -r[n] = 1 / (1 + ||x||^2) at the solution
    except NumericalError as exc:
        raise NumericalError(f"least-distance QP over {G.shape[0]} rows: {exc}") from exc
    if -r[n] <= np.finfo(float).eps:
        return None
    x = -r[:n] / r[n]
    return None if np.any(G @ x > g + 1e-6) else x


def cg_solve(oinf: OInfApprox, x_k: np.ndarray, r_k: np.ndarray, W: np.ndarray,
             v_prev: np.ndarray) -> tuple[np.ndarray, str]:
    """Command governor: project r_k onto the admissible inputs at x_k.

    Solves min ||v - r_k||_Q^2 over the O-infinity rows with the state
    fixed. ``W`` is the weighting factor L^{-T}, 2Q = LL', that
    ``CgConfig.weight_factor`` forms. With x = L'(v - r_k) the problem is the
    least-distance problem min ||x|| s.t. Gx <= g, where G = H_v W and g is
    the rows' margins at (x_k, r_k), formed once. A reference whose margins
    are all >= -ADMIT_TOL passes through as at_reference; an empty
    admissible set falls back to v_prev with status fallback_infeasible.
    """
    dx = np.asarray(x_k, dtype=float) - oinf.x00
    dr = np.asarray(r_k, dtype=float) - oinf.v00
    g = oinf.margins(dx, dr)
    if np.all(g >= -ADMIT_TOL):
        return np.asarray(r_k, dtype=float), "at_reference"
    x = _least_distance(oinf.H_v @ W, g)
    if x is None:
        return np.asarray(v_prev, dtype=float), "fallback_infeasible"
    return oinf.v00 + dr + W @ x, "ok"


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
        if not self.epsilon >= 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon!r}")

    def weight_factor(self, p: int) -> np.ndarray:
        """``cg_solve``'s factor W = L^{-T} of the (p, p) weighting Q, where 2Q = LL'.

        Q is the symmetric part of ``q_weight``, which weighs ||v - r||_Q^2
        the same, or the identity. A Q that is not positive definite has no
        Cholesky factor L and raises ConfigError, as does one whose 2Q or W
        overflows to a non-finite entry.
        """
        if self.q_weight is not None and len(self.q_weight) != p * p:
            raise ConfigError(f"'q_weight' must hold {p} x {p} entries, got {len(self.q_weight)}")
        Q = np.eye(p) if self.q_weight is None else np.asarray(self.q_weight, dtype=float).reshape(p, p)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            two_q = 2.0 * (0.5 * (Q + Q.T))
        if not np.all(np.isfinite(two_q)):
            raise ConfigError("'q_weight' overflows: 2Q, twice its symmetric part, has non-finite entries")
        try:
            W = np.linalg.inv(np.linalg.cholesky(two_q)).T
        except np.linalg.LinAlgError as exc:
            raise ConfigError(f"'q_weight' must be positive definite: {exc}") from exc
        if not np.all(np.isfinite(W)):
            raise ConfigError("'q_weight' gives a weighting factor W with non-finite entries")
        return W


@dataclass
class RolloutLog:
    """Per-step governor record."""

    steps: list = field(default_factory=list)  # dicts for formats.write_rollout_log
    output_names: list = field(default_factory=list)  # constraint row names
    relinearizations: int = 0


def ncg_rollout(
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
    linearization when ``update_interval`` steps have passed since the last
    one, steps without constraints included (and rebuild the admissible
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
    W = config.weight_factor(lay.n_controls)
    state = steady_state(scenario, refs[0])
    stations = np.asarray(scenario.sensor_stations)

    def observe(st) -> np.ndarray:
        return scale_sensors(scaling, sensor_readout(st, stations))

    x_k = observe(state)
    v_prev = scaling.scale_v(refs[0])
    log = RolloutLog()
    cset_prev = None
    oinf = None
    ssm = None
    k_lin = 0  # the step of the last linearization
    names = []
    for _, cset in schedule.entries:
        for row in cset.rows:
            if row.name not in names:
                names.append(row.name)
    log.output_names = names  # consumed by the CSV writer

    for k in range(refs.shape[0]):
        r_scaled = scaling.scale_v(refs[k])
        relin_due = ssm is None or k - k_lin >= config.update_interval
        cset_k = schedule.active(k)
        if cset_k.n_rows > 0 and (relin_due or cset_k is not cset_prev or oinf is None):
            # linearization refresh first, then the constraint update
            if relin_due:
                ssm, k_lin = linearize(params, scenario, scaling, x_k, v_prev), k
                log.relinearizations += 1
            oinf = build_oinf(ssm, cset_k, horizon=config.horizon, epsilon=config.epsilon)
        if cset_k.n_rows == 0:
            v_scaled, status = r_scaled, "no_constraints"
            oinf = None
        else:
            v_scaled, status = cg_solve(oinf, x_k, r_scaled, W, v_prev)
        v_phys = scaling.unscale_v(v_scaled)

        if environment == "solver":
            state = step(state, v_phys, scenario, solver_config)
            x_k = observe(state)
        else:
            x_k = station_predict(params, scenario, scaling, x_k, v_scaled)

        outputs, bounds = [], []
        by_name = {row.name: row for row in cset_k.rows}
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
        v_prev, cset_prev = v_scaled, cset_k
    return log
