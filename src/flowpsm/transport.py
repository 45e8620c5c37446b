"""Domain types for 1D single-phase fluid transport rigs.

Fluid property closures, pipe geometry, scenario configuration, grids, field
states, and the min-max scaling shared by the solver, the surrogate models,
and the governors. Everything here is an immutable value object; downstream
modules treat instances as safe to share.

Two rig kinds are supported:

* ``heated_channel`` -- pipes in series with a volumetric heat source in the
  middle pipe; controls are inlet velocity and inlet temperature; the outlet
  pressure is fixed (gage reference).
* ``loop`` -- pipes arranged in a closed loop driven by an ideal pump
  (pressure jump at the wrap-around face); controls are the heater source
  magnitude and the pump head; a synchronized sink (same magnitude, opposite
  sign) keeps the loop's energy content constant; the static pressure is
  pinned at a reference cell (z_set).

Pressures are gage throughout (relative to the rig's reference pressure).
Temperatures are Kelvin internally.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "FluidProps",
    "FLIBE",
    "PipeSegment",
    "ScenarioConfig",
    "FieldState",
    "Grid",
    "ScalingSpec",
    "density",
    "build_grid",
    "heated_channel_preset",
    "loop_preset",
    "scenario_fingerprint",
    "scenario_to_dict",
    "scenario_from_dict",
    "ConfigError",
]

FIELDS = ("p", "u", "T")


class ConfigError(ValueError):
    """A configuration violates a documented invariant."""


# ===================== fluid properties =====================


@dataclass(frozen=True)
class FluidProps:
    """Linear density closure rho(T) = rho_a - rho_b*T and constant heat capacity."""

    rho_a: float  # kg/m^3, density intercept
    rho_b: float  # kg/m^3/K, density slope (positive: density falls with T)
    cp: float  # J/kg/K

    def __post_init__(self) -> None:
        if self.rho_a <= 0:
            raise ConfigError("rho_a must be positive")
        if self.cp <= 0:
            raise ConfigError("cp must be positive")


# flibe (LiF-BeF2) molten salt
FLIBE = FluidProps(rho_a=2413.0, rho_b=0.488, cp=2414.0)


def density(props: FluidProps, T):
    """Density (kg/m^3) at temperature T (K). Affine closure, total function."""
    return props.rho_a - props.rho_b * np.asarray(T, dtype=float)


# ===================== geometry =====================


@dataclass(frozen=True)
class PipeSegment:
    """One uniform pipe segment of a rig.

    ``heat_source`` is a fixed volumetric source (W/m^3). If
    ``volumetric_source_id`` names a control channel, the applied source is
    instead ``source_scale * v[channel]`` (the loop's cooler uses scale -1 to
    stay synchronized with the heater channel).
    """

    length: float  # m
    flow_area: float  # m^2
    hydraulic_diameter: float  # m
    n_elements: int
    friction_factor: float = 0.001  # dimensionless Darcy-type factor
    heat_source: float = 0.0  # W/m^3, fixed part
    volumetric_source_id: Optional[str] = None  # control channel name
    source_scale: float = 1.0  # sign/scale applied to the referenced channel
    gravity_component: float = 0.0  # m/s^2 along the flow axis

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigError("segment length must be positive")
        if self.flow_area <= 0:
            raise ConfigError("flow_area must be positive")
        if self.hydraulic_diameter <= 0:
            raise ConfigError("hydraulic_diameter must be positive")
        if self.n_elements < 1:
            raise ConfigError("n_elements must be >= 1")
        if self.friction_factor < 0:
            raise ConfigError("friction_factor must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one rig: geometry, closures, BCs, sensors, timing.

    ``control_channels`` orders the control vector v; ``input_ranges`` aligns
    with it. Heated channel channels are ("u_in", "T_in") in (m/s, K); loop
    channels are ("q_source", "dp_pump") in (W/m^3, Pa).
    """

    kind: str  # "heated_channel" or "loop"
    fluid: FluidProps
    segments: tuple[PipeSegment, ...]
    control_channels: tuple[str, ...]
    input_ranges: tuple[tuple[float, float], ...]  # (min, max) per channel
    sensor_stations: tuple[float, ...]  # m, ordered
    delta_t: float  # s, control/measurement interval
    episode_duration: float  # s
    outlet_pressure: float = 0.0  # Pa gage at the outlet face (heated channel)
    reference_pressure: float = 0.0  # Pa gage pinned at z_set (loop)
    reference_cell: int = 0  # z_set cell index (loop)
    reference_temperature: float = 873.15  # K, loop initial/mean temperature

    def __post_init__(self) -> None:
        if self.kind not in ("heated_channel", "loop"):
            raise ConfigError(f"unknown scenario kind: {self.kind!r}")
        if not self.segments:
            raise ConfigError("at least one segment required")
        if len(self.control_channels) != len(self.input_ranges):
            raise ConfigError("input_ranges must align with control_channels")
        for name, (lo, hi) in zip(self.control_channels, self.input_ranges):
            if not lo < hi:
                raise ConfigError(f"input range for {name!r} must have min < max")
        total = self.total_length
        for z in self.sensor_stations:
            if not 0.0 <= z <= total:
                raise ConfigError(f"sensor station {z} outside [0, {total}]")
        if self.delta_t <= 0:
            raise ConfigError("delta_t must be positive")
        if self.episode_duration <= 0:
            raise ConfigError("episode_duration must be positive")
        for seg in self.segments:
            if seg.volumetric_source_id is not None:
                if seg.volumetric_source_id not in self.control_channels:
                    raise ConfigError(
                        f"segment references unknown control channel "
                        f"{seg.volumetric_source_id!r}"
                    )
        if self.kind == "loop":
            n_cells = sum(s.n_elements for s in self.segments)
            if not 0 <= self.reference_cell < n_cells:
                raise ConfigError("reference_cell outside the grid")

    @property
    def total_length(self) -> float:
        return float(sum(s.length for s in self.segments))

    @property
    def n_controls(self) -> int:
        return len(self.control_channels)

    def channel_index(self, name: str) -> int:
        return self.control_channels.index(name)


# ===================== grid =====================


@dataclass(frozen=True)
class Grid:
    """Concatenated per-segment uniform grids.

    ``faces`` has sum(n_elements)+1 points spanning [0, total_length];
    ``centers`` has sum(n_elements) cell midpoints. Scalars (p, T) live on
    centers; the solver staggers velocity on faces.
    """

    faces: np.ndarray
    centers: np.ndarray
    dz: np.ndarray  # per-cell widths
    segment_of_cell: np.ndarray  # segment index per cell

    @property
    def n_cells(self) -> int:
        return self.centers.size

    def cell_of_z(self, z) -> np.ndarray:
        """Cell index containing position z (clipped to the domain)."""
        z = np.asarray(z, dtype=float)
        idx = np.searchsorted(self.faces, z, side="right") - 1
        return np.clip(idx, 0, self.n_cells - 1)


def build_grid(config: ScenarioConfig) -> Grid:
    """Uniform grid per segment; faces span [0, L], centers are cell midpoints."""
    faces = [0.0]
    seg_of_cell = []
    for si, seg in enumerate(config.segments):
        h = seg.length / seg.n_elements
        start = faces[-1]
        faces.extend(start + h * (i + 1) for i in range(seg.n_elements))
        seg_of_cell.extend([si] * seg.n_elements)
    faces_arr = np.asarray(faces)
    centers = 0.5 * (faces_arr[:-1] + faces_arr[1:])
    dz = np.diff(faces_arr)
    return Grid(
        faces=faces_arr,
        centers=centers,
        dz=dz,
        segment_of_cell=np.asarray(seg_of_cell, dtype=int),
    )


# ===================== field state =====================


@dataclass(frozen=True)
class FieldState:
    """Fields at one instant on cell centers.

    ``u`` is the face-velocity average at each center. ``u_face`` (one entry
    per grid face) is carried along by the solver so that re-stepping a
    solver-produced state is an exact discrete fixed point; states built by
    hand may leave it None and the solver reconstructs faces by interpolation.
    """

    grid_z: np.ndarray
    p: np.ndarray  # Pa gage
    u: np.ndarray  # m/s
    T: np.ndarray  # K
    u_face: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = self.grid_z.size
        if not (self.p.size == self.u.size == self.T.size == n):
            raise ConfigError("FieldState arrays must share one length")
        if n > 1 and not np.all(np.diff(self.grid_z) > 0):
            raise ConfigError("grid_z must be strictly increasing")


# ===================== scaling =====================


@dataclass(frozen=True)
class ScalingSpec:
    """Min-max scaling constants for space, time, fields, and controls.

    Fields map by (x - min)/(max - min); z by z/z_max; t by t/t_max. Control
    channels scale by the scenario's configured input ranges. The density
    bounds follow from the temperature bounds through the closure.
    """

    z_max: float  # m
    t_max: float  # s (= scenario delta_t)
    p_min: float
    p_max: float
    u_min: float
    u_max: float
    T_min: float
    T_max: float
    rho_min: float
    rho_max: float
    v_min: tuple[float, ...]
    v_max: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("p", "u", "T", "rho"):
            lo = getattr(self, f"{name}_min")
            hi = getattr(self, f"{name}_max")
            if not hi > lo:
                raise ConfigError(f"scaling for {name!r} must have max > min")
        if self.z_max <= 0 or self.t_max <= 0:
            raise ConfigError("z_max and t_max must be positive")
        for lo, hi in zip(self.v_min, self.v_max):
            if not hi > lo:
                raise ConfigError("control scaling must have max > min")

    def bounds(self, name: str) -> tuple[float, float]:
        return getattr(self, f"{name}_min"), getattr(self, f"{name}_max")

    def span(self, name: str) -> float:
        lo, hi = self.bounds(name)
        return hi - lo

    # individual mappings

    def scale_field(self, name: str, x):
        lo, hi = self.bounds(name)
        return (np.asarray(x, dtype=float) - lo) / (hi - lo)

    def unscale_field(self, name: str, xs):
        lo, hi = self.bounds(name)
        return lo + np.asarray(xs, dtype=float) * (hi - lo)

    def scale_z(self, z):
        return np.asarray(z, dtype=float) / self.z_max

    def unscale_z(self, zs):
        return np.asarray(zs, dtype=float) * self.z_max

    def scale_t(self, t):
        return np.asarray(t, dtype=float) / self.t_max

    def scale_v(self, v):
        v = np.asarray(v, dtype=float)
        lo = np.asarray(self.v_min)
        hi = np.asarray(self.v_max)
        return (v - lo) / (hi - lo)

    def unscale_v(self, vs):
        vs = np.asarray(vs, dtype=float)
        lo = np.asarray(self.v_min)
        hi = np.asarray(self.v_max)
        return lo + vs * (hi - lo)

    def to_dict(self) -> dict:
        return {
            "z_max": self.z_max,
            "t_max": self.t_max,
            "p_min": self.p_min,
            "p_max": self.p_max,
            "u_min": self.u_min,
            "u_max": self.u_max,
            "T_min": self.T_min,
            "T_max": self.T_max,
            "rho_min": self.rho_min,
            "rho_max": self.rho_max,
            "v_min": list(self.v_min),
            "v_max": list(self.v_max),
        }

    @staticmethod
    def from_dict(d: dict) -> "ScalingSpec":
        return ScalingSpec(
            z_max=d["z_max"],
            t_max=d["t_max"],
            p_min=d["p_min"],
            p_max=d["p_max"],
            u_min=d["u_min"],
            u_max=d["u_max"],
            T_min=d["T_min"],
            T_max=d["T_max"],
            rho_min=d["rho_min"],
            rho_max=d["rho_max"],
            v_min=tuple(d["v_min"]),
            v_max=tuple(d["v_max"]),
        )


# ===================== presets =====================

PIPE_AREA = 0.449  # m^2, total cross-sectional flow area
PIPE_DH = 2.972e-3  # m, hydraulic diameter
CHANNEL_SOURCE = 50.0e6  # W/m^3, heated channel middle pipe


def heated_channel_preset() -> ScenarioConfig:
    """Three pipes in series (1.0 / 0.8 / 1.0 m), heated middle pipe.

    Controls: inlet velocity 0.549..0.749 m/s and inlet temperature
    531.5..611.5 C (804.65..884.65 K). Outlet pressure fixed. Sensors sit in
    the first and last (unheated) pipes only.
    """

    def pipe(length: float, n: int, q: float = 0.0) -> PipeSegment:
        return PipeSegment(
            length=length,
            flow_area=PIPE_AREA,
            hydraulic_diameter=PIPE_DH,
            n_elements=n,
            heat_source=q,
        )

    return ScenarioConfig(
        kind="heated_channel",
        fluid=FLIBE,
        segments=(
            pipe(1.0, 10),
            pipe(0.8, 10, q=CHANNEL_SOURCE),
            pipe(1.0, 10),
        ),
        control_channels=("u_in", "T_in"),
        input_ranges=((0.549, 0.749), (804.65, 884.65)),
        sensor_stations=(0.25, 0.5, 0.75, 2.05, 2.3, 2.55),
        delta_t=5.0,
        episode_duration=200.0,
        outlet_pressure=0.0,
    )


def loop_preset() -> ScenarioConfig:
    """Six pipes in a closed loop, heater and cooler synchronized.

    z runs from the pump outlet (z=0): 1 m pipe, 1 m heater, 2 m pipe, 1 m
    pipe (the fault-study target, immediately before the sink), 1 m cooler,
    2 m pipe back to the pump. Controls: heater source 45..55 MW/m^3 (the
    cooler applies its negation) and pump head 1125..1875 Pa. Pressure pinned
    at the pump-outlet cell (z_set). Sensors at the six pipe midpoints.
    """

    def pipe(length: float, source_id: Optional[str] = None, scale: float = 1.0) -> PipeSegment:
        return PipeSegment(
            length=length,
            flow_area=PIPE_AREA,
            hydraulic_diameter=PIPE_DH,
            n_elements=int(round(length * 10)),
            volumetric_source_id=source_id,
            source_scale=scale,
        )

    return ScenarioConfig(
        kind="loop",
        fluid=FLIBE,
        segments=(
            pipe(1.0),  # pump-outlet pipe
            pipe(1.0, source_id="q_source", scale=+1.0),  # heater
            pipe(2.0),  # after the heater
            pipe(1.0),  # immediately before the sink (fault-study pipe)
            pipe(1.0, source_id="q_source", scale=-1.0),  # cooler
            pipe(2.0),  # back to the pump
        ),
        control_channels=("q_source", "dp_pump"),
        input_ranges=((45.0e6, 55.0e6), (1125.0, 1875.0)),
        sensor_stations=(0.5, 1.5, 3.0, 4.5, 5.5, 7.0),
        delta_t=5.0,
        episode_duration=200.0,
        reference_pressure=0.0,
        reference_cell=0,
        reference_temperature=873.15,
    )


# ===================== serialization =====================


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """JSON-ready dict with documented key names (SI units)."""
    return {
        "kind": config.kind,
        "fluid": {
            "rho_a": config.fluid.rho_a,
            "rho_b": config.fluid.rho_b,
            "cp": config.fluid.cp,
        },
        "segments": [
            {
                "length": s.length,
                "flow_area": s.flow_area,
                "hydraulic_diameter": s.hydraulic_diameter,
                "n_elements": s.n_elements,
                "friction_factor": s.friction_factor,
                "heat_source": s.heat_source,
                "volumetric_source_id": s.volumetric_source_id,
                "source_scale": s.source_scale,
                "gravity_component": s.gravity_component,
            }
            for s in config.segments
        ],
        "control_channels": list(config.control_channels),
        "input_ranges": [list(r) for r in config.input_ranges],
        "sensor_stations": list(config.sensor_stations),
        "delta_t": config.delta_t,
        "episode_duration": config.episode_duration,
        "outlet_pressure": config.outlet_pressure,
        "reference_pressure": config.reference_pressure,
        "reference_cell": config.reference_cell,
        "reference_temperature": config.reference_temperature,
    }


def scenario_from_dict(d: dict) -> ScenarioConfig:
    try:
        fluid = FluidProps(**d["fluid"])
        segments = tuple(PipeSegment(**s) for s in d["segments"])
        return ScenarioConfig(
            kind=d["kind"],
            fluid=fluid,
            segments=segments,
            control_channels=tuple(d["control_channels"]),
            input_ranges=tuple(tuple(r) for r in d["input_ranges"]),
            sensor_stations=tuple(d["sensor_stations"]),
            delta_t=d["delta_t"],
            episode_duration=d["episode_duration"],
            outlet_pressure=d.get("outlet_pressure", 0.0),
            reference_pressure=d.get("reference_pressure", 0.0),
            reference_cell=d.get("reference_cell", 0),
            reference_temperature=d.get("reference_temperature", 873.15),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed scenario config: {exc}") from exc


def scenario_fingerprint(config: ScenarioConfig) -> str:
    """Stable hex digest of the full configuration."""
    payload = json.dumps(scenario_to_dict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
