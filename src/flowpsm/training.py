"""Dataset assembly, losses, and training for the field surrogates.

A surrogate input row is the scaled vector

    [z*, t*, v*_0 .. v*_{p-1}, x0*_0 .. x0*_{q-1}]

where x0 is the sensor snapshot at the start of the step, laid out
fields-major: all pressure stations, then all velocity stations, then all
temperature stations (q = 3 * n_stations). Targets are the scaled field
triple (p*, u*, T*) at the row's (z, t).

Each simulation step contributes two rows per sensor station: a t = 0 row
whose target restates the matching x0 entry (the model learns the initial
condition is an identity), and a t = delta_t row whose target is the next
snapshot. Closed-loop rollout aliases the model's own station predictions
as the next step's x0.

The physics loss evaluates the mass, momentum, and energy residuals at
random collocation points. Spatial/temporal derivatives come from the
network kernel's tangent channels along the z* and t* axes, and the three
residuals are nondimensionalized (see ``PdeResidualSet``) before a Log-Cosh
penalty against zero. ``physics_residuals_adjoint`` carries the loss
gradient back onto those values and tangents for the kernel's reverse pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .network import (
    FIELD_ORDER,
    MlpSpec,
    ParamStore,
    Workspace,
    forward,
    init_params,
    learning_rate,
    optimizer_step,
    stacked_forward,
)
from .solver import SimulationRecord, _plan
from .transport import (
    ConfigError,
    ScalingSpec,
    ScenarioConfig,
    density,
    scenario_fingerprint,
)

__all__ = [
    "NoiseSpec",
    "TrainConfig",
    "Dataset",
    "Batch",
    "PdeResidualSet",
    "InputLayout",
    "input_layout",
    "scale_sensors",
    "query_rows",
    "mlp_for_scenario",
    "compute_scaling",
    "assemble_dataset",
    "sample_collocation",
    "add_noise",
    "logcosh_np",
    "measurement_loss",
    "physics_loss",
    "loss_and_gradient",
    "train",
    "rollout_evaluate",
    "RolloutResult",
    "evaluate_records",
]


@dataclass(frozen=True)
class InputLayout:
    """Column offsets of one scaled input row."""

    n_controls: int
    n_stations: int

    @property
    def n_state(self) -> int:
        return 3 * self.n_stations

    @property
    def input_dim(self) -> int:
        return 2 + self.n_controls + self.n_state

    @property
    def z_col(self) -> int:
        return 0

    @property
    def t_col(self) -> int:
        return 1

    @property
    def v_cols(self) -> slice:
        return slice(2, 2 + self.n_controls)

    @property
    def x0_cols(self) -> slice:
        return slice(2 + self.n_controls, self.input_dim)


def input_layout(scenario: ScenarioConfig) -> InputLayout:
    return InputLayout(n_controls=scenario.n_controls, n_stations=len(scenario.sensor_stations))


def scale_sensors(scaling: ScalingSpec, sensors) -> np.ndarray:
    """(..., 3, s) physical sensor snapshots -> (..., 3s) scaled states, fields-major."""
    sensors = np.asarray(sensors, dtype=float)
    scaled = np.empty(sensors.shape)
    for f, name in enumerate(FIELD_ORDER):
        scaled[..., f, :] = scaling.scale_field(name, sensors[..., f, :])
    return scaled.reshape(*sensors.shape[:-2], -1)


def query_rows(lay: InputLayout, z, t: float, v, x0) -> np.ndarray:
    """Scaled input rows of every (v*, x0*) condition at every z*, at time t*.

    ``z`` is (n,) scaled positions; ``v`` (c, p) and ``x0`` (c, q) pair up
    row by row, and a single condition may be given 1-D. Rows are
    condition-major: row i*n + j is condition i at z[j], (c*n, input_dim).
    """
    v, x0 = np.atleast_2d(v), np.atleast_2d(x0)
    rows = np.empty((v.shape[0] * z.size, lay.input_dim))
    rows[:, lay.z_col] = np.tile(z, v.shape[0])
    rows[:, lay.t_col] = t
    rows[:, lay.v_cols] = np.repeat(v, z.size, axis=0)
    rows[:, lay.x0_cols] = np.repeat(x0, z.size, axis=0)
    return rows


def mlp_for_scenario(scenario: ScenarioConfig, widths=(200, 100, 100)) -> MlpSpec:
    """Architecture sized to the scenario's control and sensor counts."""
    lay = input_layout(scenario)
    return MlpSpec(
        input_dim=lay.input_dim,
        head_width=widths[0],
        intermediate_width=widths[1],
        tail_width=widths[2],
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise model applied in scaled units."""

    mode: str = "none"  # none | homoscedastic | heteroscedastic
    sigma: float = 0.0  # additive noise std
    xi: float = 0.0  # variance factor for signal-dependent noise

    def __post_init__(self) -> None:
        if self.mode not in ("none", "homoscedastic", "heteroscedastic"):
            raise ConfigError(f"unknown noise mode {self.mode!r}")
        if self.sigma < 0 or self.xi < 0:
            raise ConfigError("noise parameters must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.5  # measurement-loss weight
    beta: float = 0.5  # physics-loss weight; alpha + beta = 1
    epochs: int = 500
    batch_size: int = 2048
    base_lr: float = 1e-3
    collocation_size: int | None = None  # defaults to batch_size
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise ConfigError("loss weights must be nonnegative and sum to 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.collocation_size is not None and self.collocation_size < 1:
            raise ConfigError("collocation_size must be positive")

    @property
    def n_collocation(self) -> int:
        return self.batch_size if self.collocation_size is None else self.collocation_size


@dataclass
class Batch:
    """Scaled minibatch: inputs (B, input_dim), targets (B, 3)."""

    inputs: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Assembled corpus in physical units, one array per row component."""

    scenario_hash: str
    delta_t: float
    z: np.ndarray  # (N,)
    t: np.ndarray  # (N,)
    v: np.ndarray  # (N, p)
    x0: np.ndarray  # (N, q)
    targets: np.ndarray  # (N, 3)

    @property
    def n_samples(self) -> int:
        return self.z.size

    def scaled(self, scaling: ScalingSpec) -> Batch:
        """Full corpus as one scaled Batch (fields-major x0 scaling)."""
        lay = InputLayout(n_controls=self.v.shape[1], n_stations=self.x0.shape[1] // 3)
        inputs = np.empty((self.n_samples, lay.input_dim))
        inputs[:, lay.z_col] = scaling.scale_z(self.z)
        inputs[:, lay.t_col] = scaling.scale_t(self.t)
        inputs[:, lay.v_cols] = scaling.scale_v(self.v)
        inputs[:, lay.x0_cols] = scale_sensors(scaling, self.x0.reshape(-1, 3, lay.n_stations))
        # a target row is one (p, u, T) snapshot at a single station
        return Batch(inputs=inputs, targets=scale_sensors(scaling, self.targets[:, :, None]))


# ===================== scaling and assembly =====================

_SCALE_MARGIN = 0.05  # symmetric headroom added to field ranges


def check_stream_compatible(record: SimulationRecord, scenario: ScenarioConfig) -> None:
    """Validate that a record's layout matches the scenario's, hash aside.

    Sensor streams from a drifted plant carry a different scenario hash but
    must still share the station positions, control width, and cadence.
    """
    if record.station_z.size != len(scenario.sensor_stations) or not np.allclose(
        record.station_z, scenario.sensor_stations
    ):
        raise ConfigError("record stations do not match the scenario's sensor stations")
    if record.v.shape[1] != len(scenario.control_channels):
        raise ConfigError("record control width does not match the scenario")
    if record.times.size >= 2 and not np.isclose(
        record.times[1] - record.times[0], scenario.delta_t
    ):
        raise ConfigError("record cadence does not match the scenario delta_t")


def compute_scaling(records: list[SimulationRecord], scenario: ScenarioConfig) -> ScalingSpec:
    """Min-max bounds over the corpus's full fields, with margin.

    Field bounds get 5 % symmetric headroom so mild extrapolation stays
    inside [0, 1]-ish; controls use the configured input ranges verbatim;
    density bounds follow from the closure at the temperature bounds.
    """
    if not records:
        raise ConfigError("scaling needs at least one record")
    bounds = {}
    for name in FIELD_ORDER:
        lo = min(float(getattr(r, name).min()) for r in records)
        hi = max(float(getattr(r, name).max()) for r in records)
        span = max(hi - lo, 1e-12)
        bounds[name] = (lo - _SCALE_MARGIN * span, hi + _SCALE_MARGIN * span)
    v_lo = tuple(r[0] for r in scenario.input_ranges)
    v_hi = tuple(r[1] for r in scenario.input_ranges)
    return ScalingSpec(
        z_max=scenario.total_length,
        t_max=scenario.delta_t,
        p_min=bounds["p"][0], p_max=bounds["p"][1],
        u_min=bounds["u"][0], u_max=bounds["u"][1],
        T_min=bounds["T"][0], T_max=bounds["T"][1],
        rho_min=float(density(scenario.fluid, bounds["T"][1])),
        rho_max=float(density(scenario.fluid, bounds["T"][0])),
        v_min=v_lo, v_max=v_hi,
    )


def assemble_dataset(
    records: list[SimulationRecord],
    scenario: ScenarioConfig,
    scaling: ScalingSpec | None = None,
    strict: bool = True,
) -> tuple[Dataset, ScalingSpec]:
    """Emit the two-row-per-station samples for every step of every record.

    Scaling is computed over these records unless an existing spec is passed
    (test corpora must reuse the training scaling). ``strict`` pins records
    to the exact scenario fingerprint; diagnostics relaxes it to structural
    compatibility because streams from a degraded plant hash differently.
    """
    fingerprint = scenario_fingerprint(scenario)
    for r in records:
        if strict and r.scenario_hash != fingerprint:
            raise ConfigError("record was generated under a different scenario")
        if not strict:
            check_stream_compatible(r, scenario)
        if r.n_steps < 2:
            raise ConfigError("records must contain at least 2 steps")
    if scaling is None:
        scaling = compute_scaling(records, scenario)

    z_rows, t_rows, v_rows, x0_rows, tgt_rows = [], [], [], [], []
    for rec in records:
        K = rec.n_steps
        s = rec.station_z.size
        for k in range(K):
            x0 = rec.sensors[k].ravel()  # fields-major (3, s) -> (3s,)
            for t_val, snap in ((0.0, rec.sensors[k]), (scenario.delta_t, rec.sensors[k + 1])):
                z_rows.append(rec.station_z)
                t_rows.append(np.full(s, t_val))
                v_rows.append(np.tile(rec.v[k], (s, 1)))
                x0_rows.append(np.tile(x0, (s, 1)))
                tgt_rows.append(snap.T.copy())  # (s, 3) rows are (p, u, T) per station
    dataset = Dataset(
        scenario_hash=fingerprint,
        delta_t=scenario.delta_t,
        z=np.concatenate(z_rows),
        t=np.concatenate(t_rows),
        v=np.concatenate(v_rows),
        x0=np.concatenate(x0_rows),
        targets=np.concatenate(tgt_rows),
    )
    return dataset, scaling


# ===================== noise =====================


def add_noise(batch: Batch, noise: NoiseSpec, rng, layout: InputLayout) -> Batch:
    """Fresh noise on targets and the x0 input block; controls untouched."""
    if noise.mode == "none":
        return Batch(inputs=batch.inputs.copy(), targets=batch.targets.copy())
    inputs = batch.inputs.copy()
    targets = batch.targets.copy()
    x0 = inputs[:, layout.x0_cols]
    if noise.mode == "homoscedastic":
        targets += noise.sigma * rng.standard_normal(targets.shape)
        x0 += noise.sigma * rng.standard_normal(x0.shape)
    else:
        targets += np.sqrt(np.abs(targets) * noise.xi) * rng.standard_normal(targets.shape)
        x0 += np.sqrt(np.abs(x0) * noise.xi) * rng.standard_normal(x0.shape)
    return Batch(inputs=inputs, targets=targets)


# ===================== losses =====================

_LN2 = math.log(2.0)


def logcosh_np(x: np.ndarray) -> np.ndarray:
    """log(cosh(x)) evaluated as |x| + log1p(exp(-2|x|)) - log 2 (no overflow)."""
    a = np.abs(x)
    return a + np.log1p(np.exp(-2.0 * a)) - _LN2


def measurement_loss(predictions, targets) -> float:
    """Mean Log-Cosh over batch and field channels of (B, 3) arrays."""
    return float(np.mean(logcosh_np(np.asarray(predictions) - np.asarray(targets))))


@dataclass(frozen=True)
class PdeResidualSet:
    """Nondimensional residuals per collocation point.

    Mass is scaled by rho_ref/t_max, momentum by rho_ref*u_ref/t_max, and
    energy by rho_ref*C_p*T_range/t_max, with rho_ref the corpus density
    maximum, u_ref the largest control-velocity magnitude scale, and
    T_range the corpus temperature span.
    """

    mass: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray


def pointwise_closures(scenario: ScenarioConfig, z_phys: np.ndarray, v_phys: np.ndarray):
    """(f/D_h, g, q''') arrays at physical positions and controls, from the solver's cell table."""
    plan = _plan(scenario)
    cells = plan.grid.cell_of_z(z_phys)
    q = plan.q_fixed[cells] + np.einsum("bc,bc->b", plan.q_ctrl[cells], v_phys)
    return plan.cell_fric[cells], plan.cell_grav[cells], q


def _reference_scales(scaling: ScalingSpec, fluid):
    rho_ref = scaling.rho_max
    u_ref = max(abs(scaling.u_min), abs(scaling.u_max))
    T_range = scaling.span("T")
    t_max = scaling.t_max
    return (
        rho_ref / t_max,
        rho_ref * u_ref / t_max,
        rho_ref * fluid.cp * T_range / t_max,
    )


def _physical_terms(outs, tans_z, tans_t, scenario, scaling):
    """u, rho and the physical z/t derivatives the residuals are built from."""
    fluid = scenario.fluid
    span_p, span_u, span_T = (scaling.span(n) for n in FIELD_ORDER)
    u = outs[1] * span_u + scaling.u_min
    T = outs[2] * span_T + scaling.T_min
    rho = fluid.rho_a - fluid.rho_b * T
    dp_dz = tans_z[0] * (span_p / scaling.z_max)
    du_dz = tans_z[1] * (span_u / scaling.z_max)
    dT_dz = tans_z[2] * (span_T / scaling.z_max)
    du_dt = tans_t[1] * (span_u / scaling.t_max)
    dT_dt = tans_t[2] * (span_T / scaling.t_max)
    return u, rho, dp_dz, du_dz, dT_dz, du_dt, dT_dt


def physics_residuals(outs, tans_z, tans_t, closures, scenario, scaling):
    """Nondimensional PDE residual triple.

    outs/tans are the (p*, u*, T*) triples of values and of directional
    derivatives along the scaled z and t axes; unscaling and chain-rule
    factors are applied here.
    """
    fluid = scenario.fluid
    fric, grav, q = closures
    u, rho, dp_dz, du_dz, dT_dz, du_dt, dT_dt = _physical_terms(outs, tans_z, tans_t, scenario, scaling)
    drho_dz = -fluid.rho_b * dT_dz
    drho_dt = -fluid.rho_b * dT_dt
    r_mass = drho_dt + rho * du_dz + u * drho_dz
    r_mom = (
        rho * du_dt + rho * u * du_dz + dp_dz - rho * grav
        + 0.5 * fric * rho * u * np.abs(u)
    )
    r_energy = rho * fluid.cp * (dT_dt + u * dT_dz) - q
    s_mass, s_mom, s_energy = _reference_scales(scaling, fluid)
    return r_mass * (1.0 / s_mass), r_mom * (1.0 / s_mom), r_energy * (1.0 / s_energy)


def physics_residuals_adjoint(outs, tans_z, tans_t, closures, scenario, scaling, cotangents):
    """Reverse pass of ``physics_residuals``.

    ``cotangents`` is the (mass, momentum, energy) triple of gradients with
    respect to the residuals. Returns the gradients with respect to outs,
    tans_z and tans_t, each stacked field-major as (3, ...).
    """
    fluid = scenario.fluid
    fric, grav, _ = closures
    u, rho, _, du_dz, dT_dz, du_dt, dT_dt = _physical_terms(outs, tans_z, tans_t, scenario, scaling)
    s_mass, s_mom, s_energy = _reference_scales(scaling, fluid)
    g_mass = cotangents[0] * (1.0 / s_mass)
    g_mom = cotangents[1] * (1.0 / s_mom)
    g_energy = cotangents[2] * (1.0 / s_energy)
    # gradients w.r.t. rho, u and dT_dt; rho = rho_a - rho_b*T feeds the T ones
    g_rho = (
        g_mass * du_dz
        + g_mom * (du_dt + u * du_dz - grav + 0.5 * fric * u * np.abs(u))
        + g_energy * fluid.cp * (dT_dt + u * dT_dz)
    )
    g_u = (
        -fluid.rho_b * g_mass * dT_dz
        + g_mom * rho * (du_dz + fric * np.abs(u))
        + g_energy * rho * fluid.cp * dT_dz
    )
    g_dT_dt = g_energy * rho * fluid.cp
    span_p, span_u, span_T = (scaling.span(n) for n in FIELD_ORDER)
    zero = np.zeros_like(g_u)
    g_outs = np.stack([zero, g_u * span_u, -fluid.rho_b * g_rho * span_T])
    g_tans_z = np.stack([
        g_mom * (span_p / scaling.z_max),
        (g_mass + g_mom * u) * rho * (span_u / scaling.z_max),
        (g_dT_dt - fluid.rho_b * g_mass) * u * (span_T / scaling.z_max),
    ])
    g_tans_t = np.stack([
        zero,
        g_mom * rho * (span_u / scaling.t_max),
        (g_dT_dt - fluid.rho_b * g_mass) * (span_T / scaling.t_max),
    ])
    return g_outs, g_tans_z, g_tans_t


def physics_loss(spec: MlpSpec, params: ParamStore, collocation: np.ndarray,
                 scenario: ScenarioConfig, scaling: ScalingSpec,
                 workspace: Workspace | None = None) -> tuple[float, PdeResidualSet, np.ndarray]:
    """Mean Log-Cosh of the nondimensional residuals at collocation inputs.

    Returns the loss, the residuals, and the loss's flat parameter gradient,
    from one kernel pass along the z* and t* axes and its reverse. The pass
    runs in ``workspace`` (two directions) when one is given.
    """
    colloc = np.asarray(collocation, dtype=np.float64)
    lay_n = spec.input_dim
    if colloc.ndim != 2 or colloc.shape[1] != lay_n:
        raise ConfigError("collocation batch shape does not match the network input")
    z_star = colloc[:, 0]
    if np.any(z_star < -1e-9) or np.any(z_star > 1.0 + 1e-9):
        raise ConfigError("collocation z outside the scaled domain [0, 1]")

    n_controls = len(scenario.control_channels)
    v_phys = scaling.unscale_v(colloc[:, 2 : 2 + n_controls])
    closures = pointwise_closures(scenario, scaling.unscale_z(z_star), v_phys)

    run = stacked_forward(spec, params, colloc, np.eye(2, lay_n), keep=True, workspace=workspace)
    outs, tans_z, tans_t = (y.T for y in run.outputs)
    residuals = physics_residuals(outs, tans_z, tans_t, closures, scenario, scaling)
    loss = sum(float(np.mean(logcosh_np(r))) for r in residuals) / 3.0
    # the derivative of Log-Cosh is tanh
    cotangents = [np.tanh(r) * (1.0 / (3.0 * r.size)) for r in residuals]
    g_stacks = physics_residuals_adjoint(outs, tans_z, tans_t, closures, scenario, scaling, cotangents)
    grad = run.gradient(np.stack(g_stacks).transpose(0, 2, 1))
    return loss, PdeResidualSet(*residuals), grad


def loss_and_gradient(spec: MlpSpec, params: ParamStore, batch: Batch, collocation,
                      scenario: ScenarioConfig, scaling: ScalingSpec,
                      alpha: float, beta: float,
                      workspaces: tuple[Workspace, Workspace | None] | None = None
                      ) -> tuple[float, float, np.ndarray]:
    """L_m, L_p and the flat parameter gradient of alpha*L_m + beta*L_p.

    ``collocation`` is None when beta is 0; L_p is then 0 and not evaluated.
    ``workspaces`` holds the measurement and physics passes' workspaces;
    without it each pass gets fresh buffers.
    """
    ws_m, ws_p = workspaces or (None, None)
    run = stacked_forward(spec, params, batch.inputs, keep=True, workspace=ws_m)
    loss_m = measurement_loss(run.outputs[0], batch.targets)
    g_pred = np.tanh(run.outputs[0] - batch.targets) * (alpha / batch.targets.size)
    grad = run.gradient(g_pred[None])
    if collocation is None:
        return loss_m, 0.0, grad
    loss_p, _, grad_p = physics_loss(spec, params, collocation, scenario, scaling, ws_p)
    return loss_m, loss_p, grad + beta * grad_p


# ===================== collocation =====================


def sample_collocation(rng, batch_size: int, batch: Batch, layout: InputLayout) -> np.ndarray:
    """Random scaled collocation inputs inheriting (v, x0) from the minibatch.

    z* and t* are uniform on [0, 1]; each collocation row copies the control
    and initial-state columns of a uniformly chosen measurement row (noisy
    if the minibatch was noised).
    """
    if batch.inputs.shape[0] == 0:
        raise ConfigError("measurement minibatch is empty")
    picks = rng.integers(0, batch.inputs.shape[0], size=batch_size)
    colloc = batch.inputs[picks].copy()
    colloc[:, layout.z_col] = rng.uniform(0.0, 1.0, size=batch_size)
    colloc[:, layout.t_col] = rng.uniform(0.0, 1.0, size=batch_size)
    return colloc


# ===================== training loop =====================


def train(
    spec: MlpSpec,
    dataset: Dataset,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    config: TrainConfig,
    noise: NoiseSpec = NoiseSpec(),
    params: ParamStore | None = None,
    log_every: int = 0,
    abort_ratio: float | None = None,
) -> tuple[ParamStore, list[dict]]:
    """Minibatch training of the total loss alpha*L_m + beta*L_p.

    Per batch: noise the measurement rows, evaluate the measurement loss,
    and when beta > 0 draw fresh collocation points (inheriting the noisy
    (x0, v) rows) for the physics loss; one optimizer step per batch with
    the step-decay learning rate. The measurement and physics passes each
    reuse one workspace, sized for the largest batch, for the whole run.
    Returns the trained store and one history dict per epoch with keys
    epoch, loss_measurement, loss_physics, loss_total, learning_rate.

    ``abort_ratio`` guards warm-started retraining: raise if an epoch's
    total loss exceeds abort_ratio times the first epoch's.
    """
    if dataset.scenario_hash != scenario_fingerprint(scenario):
        raise ConfigError("dataset was assembled under a different scenario")
    lay = input_layout(scenario)
    if lay.input_dim != spec.input_dim:
        raise ConfigError("network input width does not match the scenario layout")
    if params is None:
        params = init_params(spec, config.seed)
    rng = np.random.default_rng(config.seed)
    full = dataset.scaled(scaling)
    n = full.inputs.shape[0]
    workspaces = (Workspace(spec, min(config.batch_size, n)),
                  Workspace(spec, config.n_collocation, 2) if config.beta > 0.0 else None)
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        lr = learning_rate(config.base_lr, epoch)
        perm = rng.permutation(n)
        sum_lm = sum_lp = 0.0
        n_seen = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            raw = Batch(inputs=full.inputs[idx], targets=full.targets[idx])
            batch = add_noise(raw, noise, rng, lay)
            colloc = None
            if config.beta > 0.0:
                colloc = sample_collocation(rng, config.n_collocation, batch, lay)
            lm_val, lp_val, grad = loss_and_gradient(spec, params, batch, colloc, scenario, scaling,
                                                     config.alpha, config.beta, workspaces)
            if not np.isfinite(config.alpha * lm_val + config.beta * lp_val):
                raise NumericalError(
                    f"loss became non-finite at epoch {epoch}, batch {start // config.batch_size}"
                )
            optimizer_step(params, grad, lr)
            b = idx.size
            sum_lm += lm_val * b
            sum_lp += lp_val * b
            n_seen += b
        row = {
            "epoch": epoch,
            "loss_measurement": sum_lm / n_seen,
            "loss_physics": sum_lp / n_seen,
            "loss_total": (config.alpha * sum_lm + config.beta * sum_lp) / n_seen,
            "learning_rate": lr,
        }
        history.append(row)
        if abort_ratio is not None and row["loss_total"] > abort_ratio * history[0]["loss_total"]:
            raise NumericalError(
                f"retraining diverged: epoch {epoch} loss {row['loss_total']:.3e} exceeds "
                f"{abort_ratio:g}x the first epoch's {history[0]['loss_total']:.3e}"
            )
        if log_every and (epoch % log_every == 0 or epoch == 1):
            print(
                f"epoch {epoch:4d}  L_m {row['loss_measurement']:.3e}  "
                f"L_p {row['loss_physics']:.3e}  L_total {row['loss_total']:.3e}  lr {lr:.2e}"
            )
    return params, history


# ===================== rollout evaluation =====================


@dataclass
class RolloutResult:
    """Closed-loop rollout against one recorded episode."""

    times: np.ndarray  # (K,) evaluation times (t_1 .. t_K)
    z: np.ndarray  # (n,)
    predicted: dict  # field -> (K, n) physical units
    errors: dict  # field -> (K, n) predicted - truth
    rmse: dict  # field -> float over all (K, n)


def rollout_evaluate(
    spec: MlpSpec,
    params: ParamStore,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    record: SimulationRecord,
) -> RolloutResult:
    """Iterate the one-step model along a recorded control trajectory.

    Starting from the record's initial sensor snapshot, each step predicts
    the full fields at t = delta_t on the record's grid and the station
    values that become the next x0 (closed loop).
    """
    lay = input_layout(scenario)
    if record.scenario_hash != scenario_fingerprint(scenario):
        raise ConfigError("record was generated under a different scenario")
    z_grid = record.grid_z
    n = z_grid.size
    z_star = scaling.scale_z(np.concatenate([z_grid, record.station_z]))
    K = record.n_steps

    x0 = scale_sensors(scaling, record.sensors[0])
    pred = {name: np.empty((K, n)) for name in FIELD_ORDER}
    err = {name: np.empty((K, n)) for name in FIELD_ORDER}
    for k in range(K):
        # predictions at t = delta_t on the grid, then at the stations
        y = forward(spec, params, query_rows(lay, z_star, 1.0, scaling.scale_v(record.v[k]), x0))
        for f, name in enumerate(FIELD_ORDER):
            full_phys = scaling.unscale_field(name, y[:n, f])
            pred[name][k] = full_phys
            err[name][k] = full_phys - getattr(record, name)[k + 1]
        x0 = y[n:].T.ravel()  # (s,3) -> fields-major (3s,)
    rmse = {name: float(np.sqrt(np.mean(err[name] ** 2))) for name in FIELD_ORDER}
    return RolloutResult(times=record.times[1:], z=z_grid.copy(), predicted=pred, errors=err, rmse=rmse)


def evaluate_records(
    spec: MlpSpec,
    params: ParamStore,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    records: list[SimulationRecord],
) -> dict:
    """Aggregate rollout errors over a record set.

    Returns per field: the space-time error map (RMSE across records at each
    (t, z) point), its mean and max, the overall RMSE, and the per-z error
    profile (RMSE across records and time).
    """
    sq = {name: None for name in FIELD_ORDER}
    z = None
    for rec in records:
        result = rollout_evaluate(spec, params, scenario, scaling, rec)
        z = result.z
        for name in FIELD_ORDER:
            e2 = result.errors[name] ** 2
            sq[name] = e2 if sq[name] is None else sq[name] + e2
    out = {"z": z, "fields": {}}
    for name in FIELD_ORDER:
        err_map = np.sqrt(sq[name] / len(records))
        out["fields"][name] = {
            "map": err_map,
            "mean_rmse": float(err_map.mean()),
            "max_rmse": float(err_map.max()),
            "overall_rmse": float(np.sqrt(np.mean(sq[name] / len(records)))),
            "profile": np.sqrt(np.mean(sq[name] / len(records), axis=0)),
        }
    return out
