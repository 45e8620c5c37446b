"""Dataset assembly, losses, and training for the field surrogates.

A surrogate input row is the scaled vector

    [z*, t*, v*_0 .. v*_{p-1}, x0*_0 .. x0*_{q-1}]

where x0 is the sensor snapshot at the start of the step, laid out
fields-major: all pressure stations, then all velocity stations, then all
temperature stations (q = 3 * n_stations). Targets are the scaled field
triple (p*, u*, T*) at the row's (z, t).

``scale_sensors`` and ``query_rows`` are the only code that lays out these
rows. Each simulation step contributes two rows per sensor station, both
built by ``query_rows``: a t* = 0 row whose target restates the matching x0
entry (the model learns the initial condition is an identity), and a
t* = 1 (t = delta_t) row whose target is the next snapshot. The corpus
(``Dataset``) holds only these scaled rows and targets. Closed-loop rollout
aliases the model's own station predictions as the next step's x0.

The physics loss evaluates the mass, momentum, and energy residuals at
random collocation points. Spatial/temporal derivatives come from the
network kernel's tangent channels along the z* and t* axes, and the three
residuals are nondimensionalized (see ``PdeResidualSet``) before a Log-Cosh
penalty against zero. ``physics_residuals_adjoint`` carries the loss
gradient back onto those values and tangents for the kernel's reverse pass.

``train`` runs each batch as one kernel pass and one reverse: the
measurement rows ride in the pass as value-only rows beside the collocation
rows, which alone carry the z*/t* tangent rows, and the reverse takes the
cotangent of alpha*L_m + beta*L_p on both. The pass and its reverse run in
float32 on one float32 copy of the store, refreshed after each optimizer
step (mixed precision, Micikevicius et al. 2018). The store, its Adam
moments, the losses, the residuals and their adjoints stay float64: the
losses cast the pass outputs to float64 before using them.
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
    rows = np.empty((v.shape[0], z.size, lay.input_dim))
    rows[..., lay.z_col] = z
    rows[..., lay.t_col] = t
    rows[..., lay.v_cols] = v[:, None]
    rows[..., lay.x0_cols] = x0[:, None]
    return rows.reshape(-1, lay.input_dim)


def mlp_for_scenario(scenario: ScenarioConfig, widths=()) -> MlpSpec:
    """Architecture sized to the scenario's control and sensor counts.

    ``widths`` gives the head, intermediate and tail widths in that order;
    those it leaves out keep MlpSpec's defaults.
    """
    return MlpSpec(input_layout(scenario).input_dim, *widths)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise model applied in scaled units."""

    mode: str = "none"  # none | homoscedastic | heteroscedastic
    sigma: float = 0.0  # additive noise std
    xi: float = 0.0  # variance factor for signal-dependent noise

    def __post_init__(self) -> None:
        if self.mode not in ("none", "homoscedastic", "heteroscedastic"):
            raise ConfigError(f"unknown noise mode {self.mode!r}")
        if not all(math.isfinite(x) and x >= 0 for x in (self.sigma, self.xi)):
            raise ConfigError(f"noise parameters must be finite and nonnegative, got {self.sigma!r}, {self.xi!r}")


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
        if not self.base_lr > 0.0:
            raise ConfigError(f"'base_lr' must be > 0, got {self.base_lr!r}")
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
    """Assembled corpus as scaled rows: inputs (N, input_dim), targets (N, 3)."""

    scenario_hash: str
    inputs: np.ndarray
    targets: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


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
    scaling: ScalingSpec,
    strict: bool = True,
) -> Dataset:
    """The two-row-per-station samples of every step of every record, scaled.

    Rows run by record, then step, then t* (0, then delta_t scaled), then
    station, each built by ``query_rows``. ``strict`` pins records to the exact
    scenario fingerprint; diagnostics relaxes it to structural compatibility
    because streams from a degraded plant hash differently.
    """
    if not records:
        raise ConfigError("a dataset needs at least one record")
    fingerprint = scenario_fingerprint(scenario)
    for r in records:
        if strict and r.scenario_hash != fingerprint:
            raise ConfigError("record was generated under a different scenario")
        if not strict:
            check_stream_compatible(r, scenario)
        if r.n_steps < 2:
            raise ConfigError("records must contain at least 2 steps")

    lay = input_layout(scenario)
    t_ahead = scaling.scale_t(scenario.delta_t)
    inputs, targets = [], []
    for rec in records:
        K, s = rec.n_steps, rec.station_z.size
        x = scale_sensors(scaling, rec.sensors)  # (K+1, 3s)
        z, v = scaling.scale_z(rec.station_z), scaling.scale_v(rec.v[:K])
        pair = [query_rows(lay, z, t, v, x[:K]).reshape(K, s, -1) for t in (0.0, t_ahead)]
        inputs.append(np.stack(pair, axis=1).reshape(-1, lay.input_dim))
        # a target row is the (p, u, T) snapshot at its station: x_k at t* = 0, x_k+1 ahead
        snaps = x.reshape(K + 1, 3, s).transpose(0, 2, 1)
        targets.append(np.stack([snaps[:K], snaps[1:]], axis=1).reshape(-1, 3))
    return Dataset(scenario_hash=fingerprint, inputs=np.concatenate(inputs),
                   targets=np.concatenate(targets))


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


def physics_loss(collocation: np.ndarray, stack, scenario: ScenarioConfig,
                 scaling: ScalingSpec) -> tuple[float, PdeResidualSet, np.ndarray]:
    """Mean Log-Cosh of the nondimensional residuals at collocation inputs, and its cotangent.

    ``stack`` is a kernel pass's (3, B, 3) values and tangents along the z*
    and t* axes at the B ``collocation`` rows. Returns the loss, the
    residuals, and the loss's gradient with respect to ``stack``, in its
    layout, for the kernel's reverse pass.
    """
    colloc = np.asarray(collocation, dtype=np.float64)
    lay = input_layout(scenario)
    if colloc.ndim != 2 or colloc.shape[1] != lay.input_dim or np.shape(stack) != (3, colloc.shape[0], 3):
        raise ConfigError("collocation batch shape does not match the network input or the pass")
    z_star = colloc[:, lay.z_col]
    if np.any(z_star < -1e-9) or np.any(z_star > 1.0 + 1e-9):
        raise ConfigError("collocation z outside the scaled domain [0, 1]")

    v_phys = scaling.unscale_v(colloc[:, lay.v_cols])
    closures = pointwise_closures(scenario, scaling.unscale_z(z_star), v_phys)
    outs, tans_z, tans_t = (y.T for y in np.asarray(stack, dtype=np.float64))
    residuals = physics_residuals(outs, tans_z, tans_t, closures, scenario, scaling)
    loss = sum(float(np.mean(logcosh_np(r))) for r in residuals) / 3.0
    # the derivative of Log-Cosh is tanh
    cotangents = [np.tanh(r) * (1.0 / (3.0 * r.size)) for r in residuals]
    g_stacks = physics_residuals_adjoint(outs, tans_z, tans_t, closures, scenario, scaling, cotangents)
    return loss, PdeResidualSet(*residuals), np.stack(g_stacks).transpose(0, 2, 1)


def loss_and_gradient(params: ParamStore, batch: Batch, collocation,
                      scenario: ScenarioConfig, scaling: ScalingSpec, alpha: float, beta: float,
                      workspace: Workspace) -> tuple[float, float, np.ndarray]:
    """L_m, L_p and the flat parameter gradient of alpha*L_m + beta*L_p, from one pass and one reverse.

    The measurement rows ride in the pass as value-only rows beside the
    collocation rows, which alone carry tangent rows along the z* and t*
    axes. ``collocation`` is None when beta is 0; L_p is then 0 and
    not evaluated, and the pass is the measurement rows' alone, with no
    directions.
    """
    if collocation is None:
        pred = stacked_forward(params, batch.inputs, workspace=workspace)[0]
    else:
        lay = input_layout(scenario)
        axes = np.eye(params.spec.input_dim)[[lay.z_col, lay.t_col]]
        pred, stack = stacked_forward(params, collocation, axes, workspace, values=batch.inputs)
        loss_p, _, g_stack = physics_loss(collocation, stack, scenario, scaling)
    pred = np.asarray(pred, dtype=np.float64)
    loss_m = measurement_loss(pred, batch.targets)
    g_pred = np.tanh(pred - batch.targets) * (alpha / batch.targets.size)
    if collocation is None:
        return loss_m, 0.0, workspace.gradient(g_pred[None])
    return loss_m, loss_p, workspace.gradient((g_pred, beta * g_stack))


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
    params: ParamStore,
    dataset: Dataset,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    config: TrainConfig,
    noise: NoiseSpec = NoiseSpec(),
    log_every: int = 0,
    abort_ratio: float | None = None,
) -> tuple[ParamStore, list[dict]]:
    """Minibatch training of the total loss alpha*L_m + beta*L_p, in place on ``params``.

    Per batch: noise the measurement rows, and when beta > 0 draw fresh
    collocation points (inheriting the noisy (x0, v) rows); one kernel pass
    over both row sets and one reverse give the two losses and the gradient
    (``loss_and_gradient``); one optimizer step per batch with the
    step-decay learning rate. The pass reuses one workspace, which grows to
    the largest batch, for the whole run, and runs in float32 on one float32
    copy of ``params``, refreshed in place after each step; ``params`` and
    its moments stay float64.
    Returns the trained store and one history dict per epoch with keys
    epoch, loss_measurement, loss_physics, loss_total, learning_rate.

    ``abort_ratio`` guards warm-started retraining: raise if an epoch's
    total loss exceeds abort_ratio times the first epoch's.
    """
    if dataset.scenario_hash != scenario_fingerprint(scenario):
        raise ConfigError("dataset was assembled under a different scenario")
    lay = input_layout(scenario)
    spec = params.spec
    if lay.input_dim != spec.input_dim:
        raise ConfigError("network input width does not match the scenario layout")
    rng = np.random.default_rng(config.seed)
    n = dataset.n_samples
    shadow = ParamStore(spec, params.flat.astype(np.float32), params.layout)  # the passes' float32 copy
    workspace = Workspace(spec)
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        lr = learning_rate(config.base_lr, epoch)
        perm = rng.permutation(n)
        sum_lm = sum_lp = 0.0
        n_seen = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            raw = Batch(inputs=dataset.inputs[idx], targets=dataset.targets[idx])
            batch = add_noise(raw, noise, rng, lay)
            colloc = None
            if config.beta > 0.0:
                colloc = sample_collocation(rng, config.n_collocation, batch, lay)
            lm_val, lp_val, grad = loss_and_gradient(shadow, batch, colloc, scenario, scaling,
                                                     config.alpha, config.beta, workspace)
            if not np.isfinite(config.alpha * lm_val + config.beta * lp_val):
                raise NumericalError(
                    f"loss became non-finite at epoch {epoch}, batch {start // config.batch_size}"
                )
            optimizer_step(params, grad, lr)
            np.copyto(shadow.flat, params.flat)
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


def rollout_evaluate(
    params: ParamStore,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    record: SimulationRecord,
) -> dict:
    """Iterate the one-step model along a recorded control trajectory.

    Starting from the record's initial sensor snapshot, each step predicts
    the full fields at t = delta_t on the record's grid and the station
    values that become the next x0 (closed loop). Returns, per field, the
    (K, n) physical error of the predictions against the record's grid.
    """
    lay = input_layout(scenario)
    if record.scenario_hash != scenario_fingerprint(scenario):
        raise ConfigError("record was generated under a different scenario")
    n = record.grid_z.size
    z_star = scaling.scale_z(np.concatenate([record.grid_z, record.station_z]))
    K = record.n_steps

    x0 = scale_sensors(scaling, record.sensors[0])
    err = {name: np.empty((K, n)) for name in FIELD_ORDER}
    for k in range(K):
        # predictions at t = delta_t on the grid, then at the stations
        y = forward(params, query_rows(lay, z_star, 1.0, scaling.scale_v(record.v[k]), x0))
        for f, name in enumerate(FIELD_ORDER):
            err[name][k] = scaling.unscale_field(name, y[:n, f]) - getattr(record, name)[k + 1]
        x0 = y[n:].T.ravel()  # (s,3) -> fields-major (3s,)
    return err


def evaluate_records(
    params: ParamStore,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    records: list[SimulationRecord],
) -> dict:
    """Aggregate rollout errors over a record set.

    Returns per field the mean and max of the space-time error map (RMSE
    across records at each (t, z) point) and the overall RMSE.
    """
    sq = {name: None for name in FIELD_ORDER}
    for rec in records:
        errors = rollout_evaluate(params, scenario, scaling, rec)
        for name in FIELD_ORDER:
            e2 = errors[name] ** 2
            sq[name] = e2 if sq[name] is None else sq[name] + e2
    out = {}
    for name in FIELD_ORDER:
        err_map = np.sqrt(sq[name] / len(records))
        out[name] = {
            "mean_rmse": float(err_map.mean()),
            "max_rmse": float(err_map.max()),
            "overall_rmse": float(np.sqrt(np.mean(sq[name] / len(records)))),
        }
    return out
