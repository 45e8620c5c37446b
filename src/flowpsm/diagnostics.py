"""Model-based fault detection and localization.

A trained one-step state map is monitored against the live sensor stream:
windowed prediction error above a calibrated threshold latches a fault flag.
After detection the map is retrained on post-fault data only (a drifted twin
of the nominal model), and the spatial profiles of the twin's transport
residuals are differenced against the nominal model's. A fault that enters
one balance equation (for example a flow blockage raising wall friction)
shows up as a localized bump in that equation's residual difference, at the
positions where the learned dynamics disagree with the nominal closures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import FIELD_ORDER, ParamStore, forward, stacked_forward
from .solver import SimulationRecord
from .training import (
    Dataset,
    PdeResidualSet,
    TrainConfig,
    check_stream_compatible,
    input_layout,
    physics_residuals,
    pointwise_closures,
    query_rows,
    scale_sensors,
    train,
)
from .transport import (
    ConfigError,
    ScalingSpec,
    ScenarioConfig,
    build_grid,
)

__all__ = [
    "DetectorConfig",
    "DetectionResult",
    "prediction_errors",
    "detect",
    "calibrate_zeta",
    "twin_config",
    "transfer_learn_twin",
    "sample_conditions",
    "pde_residuals",
    "ResidualSignature",
    "signature",
    "span_mask",
    "localization_ratio",
]


# ===================== detection =====================


@dataclass(frozen=True)
class DetectorConfig:
    """Windowed-error fault detector settings.

    The per-step scaled prediction errors are averaged over non-overlapping
    windows of ``window`` steps; a window mean above ``zeta`` trips the
    detector, and the flag latches (no automatic reset).
    """

    zeta: float  # threshold on the window-mean squared error
    window: int = 4  # steps per window

    def __post_init__(self) -> None:
        if self.zeta <= 0.0:
            raise ConfigError("detector threshold zeta must be positive")
        if self.window < 1:
            raise ConfigError("detector window must be >= 1 step")


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of running the detector over one error sequence."""

    tripped: bool
    trip_index: int | None  # first step of the tripping window
    window_means: np.ndarray  # (n_windows,)


def prediction_errors(
    params: ParamStore,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    record: SimulationRecord,
) -> np.ndarray:
    """Per-step scaled MSE of one-step-ahead sensor predictions.

    Entry k compares the model's prediction from snapshot k under input v_k
    against the recorded snapshot k+1, averaged over stations and fields in
    scaled units (so the three fields weigh equally, like the training loss).
    The scenario hash is deliberately not checked: monitored streams come
    from a plant that may have drifted, only the layout must match.
    """
    check_stream_compatible(record, scenario)
    K = record.n_steps
    s = record.station_z.size
    scaled = scale_sensors(scaling, record.sensors)  # (K+1, 3s)
    rows = query_rows(input_layout(scenario), scaling.scale_z(record.station_z), 1.0,
                      scaling.scale_v(record.v[:K]), scaled[:K])
    pred = forward(params, rows).reshape(K, s, 3)
    truth = scaled[1:].reshape(K, 3, s).transpose(0, 2, 1)  # (K, s, 3)
    return np.mean((pred - truth) ** 2, axis=(1, 2))


def detect(errors: np.ndarray, config: DetectorConfig) -> DetectionResult:
    """Latching window test over a per-step error sequence.

    Only complete windows are scored (a trailing partial window is ignored).
    The reported index is the first step of the earliest window whose mean
    error exceeds the threshold.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1:
        raise ConfigError("detector expects a 1-D error sequence")
    n_win = errors.size // config.window
    if n_win == 0:
        raise ConfigError(
            f"need at least {config.window} error samples for one window, got {errors.size}"
        )
    means = errors[: n_win * config.window].reshape(n_win, config.window).mean(axis=1)
    hits = means > config.zeta
    if hits.any():
        first = int(np.argmax(hits))
        return DetectionResult(tripped=True, trip_index=first * config.window, window_means=means)
    return DetectionResult(tripped=False, trip_index=None, window_means=means)


def calibrate_zeta(
    error_sequences,
    window: int,
    *,
    multiplier: float = 5.0,
    percentile: float = 95.0,
) -> float:
    """Threshold from nominal validation data: multiplier times the
    window-mean error percentile over all complete windows."""
    if window < 1:
        raise ConfigError("detector window must be >= 1 step")
    if not 0.0 <= percentile <= 100.0:
        raise ConfigError(f"percentile must lie in [0, 100], got {percentile}")
    means = []
    for seq in error_sequences:
        seq = np.asarray(seq, dtype=np.float64)
        n_win = seq.size // window
        if n_win:
            means.append(seq[: n_win * window].reshape(n_win, window).mean(axis=1))
    if not means:
        raise ConfigError("no complete windows in the calibration sequences")
    return float(multiplier * np.percentile(np.concatenate(means), percentile))


# ===================== twin retraining =====================


def twin_config(*, base_lr: float = 1e-4, epochs: int = 50, batch_size: int = 512, seed: int = 0) -> TrainConfig:
    """Training settings of the twin: measurement loss only, at a tenth of the usual learning rate."""
    return TrainConfig(alpha=1.0, beta=0.0, epochs=epochs, batch_size=batch_size, base_lr=base_lr, seed=seed)


def transfer_learn_twin(
    params: ParamStore,
    dataset: Dataset,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    config: TrainConfig,
) -> tuple[ParamStore, list[dict]]:
    """Retrain a copy of the nominal parameters on post-fault data.

    ``config`` comes from ``twin_config``: measurement loss only, at a tenth
    of the usual learning rate, so the twin drifts just far enough to absorb
    the plant's changed dynamics while staying comparable to the nominal
    model. Optimizer moments start fresh; training aborts if the loss blows
    past 10x its first epoch.
    """
    twin = ParamStore(spec=params.spec, flat=params.flat.copy(), layout=params.layout)
    return train(twin, dataset, scenario, scaling, config, abort_ratio=10.0)


# ===================== residual signatures =====================

_MID_STEP = 0.5  # scaled t* at which the residual profiles are taken
_RESIDUAL_CHUNK = 640  # rows per kernel pass, so a pass's scratch stays small at any condition count


def sample_conditions(
    dataset: Dataset,
    scenario: ScenarioConfig,
    n_conditions: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw scaled (v, x0) condition rows from an assembled corpus."""
    if n_conditions < 1:
        raise ConfigError("need at least one condition")
    if n_conditions > dataset.n_samples:
        raise ConfigError(
            f"asked for {n_conditions} conditions but the corpus has {dataset.n_samples} rows"
        )
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n_samples, size=n_conditions, replace=False)
    lay = input_layout(scenario)
    return dataset.inputs[idx, lay.v_cols], dataset.inputs[idx, lay.x0_cols]


def pde_residuals(
    params: ParamStore,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    v_star: np.ndarray,
    x0_star: np.ndarray,
) -> tuple[np.ndarray, PdeResidualSet]:
    """Signed transport residual profiles of a trained map.

    Evaluates the nondimensional mass/momentum/energy residuals on the
    scenario grid centers at mid-step time, for every supplied scaled
    (v, x0) condition row, and averages them signed over conditions. The
    result is a spatial fingerprint of where the learned dynamics disagree
    with the nominal balance closures.
    """
    v_star = np.atleast_2d(np.asarray(v_star, dtype=np.float64))
    x0_star = np.atleast_2d(np.asarray(x0_star, dtype=np.float64))
    if v_star.shape[0] != x0_star.shape[0]:
        raise ConfigError("v and x0 condition rows must pair up")
    lay = input_layout(scenario)
    if v_star.shape[1] != lay.n_controls or x0_star.shape[1] != lay.n_state:
        raise ConfigError("condition rows do not match the scenario layout")

    zc = build_grid(scenario).centers
    nz = zc.size
    n_cond = v_star.shape[0]
    rows = query_rows(lay, scaling.scale_z(zc), _MID_STEP, v_star, x0_star)

    axes = (lay.z_col, lay.t_col)
    stacked = np.empty((1 + len(axes), len(rows), len(FIELD_ORDER)))
    for lo in range(0, len(rows), _RESIDUAL_CHUNK):
        chunk = slice(lo, lo + _RESIDUAL_CHUNK)
        stacked[:, chunk] = stacked_forward(params, rows[chunk], axes)
    outs, tan_z, tan_t = (y.T for y in stacked)

    closures = pointwise_closures(
        scenario, np.tile(zc, n_cond), scaling.unscale_v(rows[:, lay.v_cols])
    )
    r = physics_residuals(outs, tan_z, tan_t, closures, scenario, scaling)
    mass, momentum, energy = (part.reshape(n_cond, nz).mean(axis=0) for part in r)
    return zc.copy(), PdeResidualSet(mass=mass, momentum=momentum, energy=energy)


@dataclass(frozen=True)
class ResidualSignature:
    """Spatial residual comparison between the nominal model and its twin.

    ``difference`` is twin minus nominal per equation; ``scaled`` divides
    each equation's difference by its own max magnitude (sign preserved) so
    profiles are comparable across equations.
    """

    z: np.ndarray  # (nz,) grid centers, m
    equations: tuple[str, ...]
    nominal: np.ndarray  # (3, nz)
    twin: np.ndarray  # (3, nz)
    difference: np.ndarray  # (3, nz)
    scaled: np.ndarray  # (3, nz) in [-1, 1]


def signature(
    nominal_params: ParamStore,
    twin_params: ParamStore,
    scenario: ScenarioConfig,
    scaling: ScalingSpec,
    v_star: np.ndarray,
    x0_star: np.ndarray,
) -> ResidualSignature:
    """Difference the residual profiles of the nominal and twin models.

    Both models see the same condition rows; the changed physics then
    cancels everywhere except where the twin learned different dynamics.
    """
    z, nom = pde_residuals(nominal_params, scenario, scaling, v_star, x0_star)
    _, tw = pde_residuals(twin_params, scenario, scaling, v_star, x0_star)
    equations = ("mass", "momentum", "energy")
    nominal = np.stack([getattr(nom, eq) for eq in equations])
    twin = np.stack([getattr(tw, eq) for eq in equations])
    difference = twin - nominal
    scaled = np.zeros_like(difference)
    for i, row in enumerate(difference):
        peak = float(np.max(np.abs(row)))
        if peak > 0.0:
            scaled[i] = row / peak
    return ResidualSignature(
        z=z,
        equations=equations,
        nominal=nominal,
        twin=twin,
        difference=difference,
        scaled=scaled,
    )


def span_mask(z: np.ndarray, span: tuple[float, float]) -> np.ndarray:
    """Which grid centers ``z`` lie in ``span`` = (lo, hi).

    Raises ConfigError unless lo < hi and the span covers some but not all
    of them, so a span can be checked against the scenario's grid before
    any detection work.
    """
    lo, hi = span
    if not lo < hi:
        raise ConfigError(f"span [{lo:g}, {hi:g}] must satisfy lo < hi")
    inside = (z >= lo) & (z <= hi)
    if not inside.any() or inside.all():
        raise ConfigError(f"span [{lo:g}, {hi:g}] must cover some but not all grid centers")
    return inside


def localization_ratio(sig: ResidualSignature, span: tuple[float, float]) -> dict:
    """Peak |residual difference| inside a span over the peak outside, per equation.

    A ratio well above 1 for exactly one balance equation localizes the
    fault both spatially (the span) and physically (the equation).
    """
    inside = span_mask(sig.z, span)
    out = {}
    for i, eq in enumerate(sig.equations):
        mag = np.abs(sig.difference[i])
        peak_in = float(mag[inside].max())
        peak_out = float(mag[~inside].max())
        if peak_out == 0.0:
            out[eq] = float("inf") if peak_in > 0.0 else 0.0
        else:
            out[eq] = peak_in / peak_out
    return out
