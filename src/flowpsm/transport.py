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

import functools
import hashlib
import inspect
import json
import math
import numbers
import typing
from dataclasses import MISSING, asdict, dataclass, fields
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
    "scenario_from_dict",
    "from_document",
    "ConfigError",
]


class ConfigError(ValueError):
    """A configuration violates a documented invariant."""


def _is_kind(x, kind) -> bool:
    """Whether x is a JSON value of ``kind``: for float a finite real number a float can hold, for int an
    integer (an integral float is not), for bool, str and dict an instance; a boolean is never a number."""
    if kind is float:
        try:
            return not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)
        except OverflowError:  # an integer beyond the float range
            return False
    if kind is int:
        return isinstance(x, numbers.Integral) and not isinstance(x, bool)
    return isinstance(x, kind)


# ===================== fluid properties =====================


@dataclass(frozen=True)
class FluidProps:
    """Linear density closure rho(T) = rho_a - rho_b*T and constant heat capacity."""

    rho_a: float  # kg/m^3, density intercept
    rho_b: float  # kg/m^3/K, density slope (>= 0: density falls with T, or stays)
    cp: float  # J/kg/K

    def __post_init__(self) -> None:
        if self.rho_a <= 0:
            raise ConfigError("rho_a must be positive")
        if self.rho_b < 0:
            raise ConfigError("rho_b must be >= 0: density may not rise with T")
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
            raise ConfigError(f"n_elements must be an integer >= 1, got {self.n_elements!r}")
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
        if any(len(r) != 2 for r in self.input_ranges):
            raise ConfigError("each input range must be a (min, max) pair")
        for r in self.input_ranges:
            for x in r:
                _check_value("input_ranges", x, float)
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
    """Fields at one instant: p and T on the cell centers, velocity on the faces.

    ``u_face`` holds one entry per grid face, the staggered velocities the
    solver steps, so re-stepping a steady state is an exact discrete fixed
    point. ``u`` is their average at each center.
    """

    grid_z: np.ndarray
    p: np.ndarray  # Pa gage
    T: np.ndarray  # K
    u_face: np.ndarray  # m/s

    def __post_init__(self) -> None:
        n = self.grid_z.size
        if not (self.p.size == self.T.size == n):
            raise ConfigError("FieldState arrays p, T and grid_z must share one length")
        if self.u_face.size != n + 1:
            raise ConfigError(f"u_face must hold one entry per face, n_cells + 1 = {n + 1}, "
                              f"got {self.u_face.size}")
        if n > 1 and not np.all(np.diff(self.grid_z) > 0):
            raise ConfigError("grid_z must be strictly increasing")

    @property
    def u(self) -> np.ndarray:
        """m/s at the cell centers."""
        return 0.5 * (self.u_face[:-1] + self.u_face[1:])


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
        if len(self.v_min) != len(self.v_max):
            raise ConfigError(f"'v_min' and 'v_max' must hold one bound per control, got {len(self.v_min)} "
                              f"and {len(self.v_max)} entries")
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


def reject_unknown_keys(doc: dict, known, what: str) -> None:
    """A ConfigError naming every key of ``doc`` that is not in ``known``."""
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _frozen(value):
    """JSON arrays as tuples, nested ones too, as the frozen dataclasses hold them."""
    return tuple(_frozen(v) for v in value) if isinstance(value, (list, tuple)) else value


_KIND_NAMES = {float: ("a finite number", "finite numbers"), int: ("an integer", "integers"),
               bool: ("true or false", "booleans"), str: ("a string", "strings"), dict: ("an object", "objects")}


def _check_value(key: str, value, kind) -> None:
    """A ConfigError naming ``key`` unless ``value`` is a JSON value of the annotated ``kind``: ``_is_kind``
    for float, int, bool, str and dict, null too for ``X | None``, one of its values for a ``Literal``, and a
    list of X for ``tuple[X, ...]``. Any other kind is left to its owner."""
    if type(None) in typing.get_args(kind):  # X | None
        if value is None:
            return
        kind = next(k for k in typing.get_args(kind) if k is not type(None))
    args = typing.get_args(kind)
    if typing.get_origin(kind) is typing.Literal:
        if value not in args:
            raise ConfigError(f"unknown {key} {value!r}; choose from {list(args)}")
    elif typing.get_origin(kind) is tuple and args[1:] == (...,) and args[0] in _KIND_NAMES:
        if not isinstance(value, (list, tuple)) or not all(_is_kind(x, args[0]) for x in value):
            raise ConfigError(f"{key!r} must be a list of {_KIND_NAMES[args[0]][1]}, got {value!r}")
    elif kind in _KIND_NAMES and not _is_kind(value, kind):
        raise ConfigError(f"{key!r} must be {_KIND_NAMES[kind][0]}, got {value!r}")


@functools.lru_cache(maxsize=None)
def _keys_of(owner) -> dict:
    """{key: (annotation, required)}: a dataclass's fields, or a function's keyword-only parameters."""
    hints = typing.get_type_hints(owner)
    if isinstance(owner, type):
        return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
                for f in fields(owner)}
    return {p.name: (hints[p.name], p.default is p.empty)
            for p in inspect.signature(owner).parameters.values() if p.kind is p.KEYWORD_ONLY}


def _declared(owner) -> tuple:
    """The class or function behind ``owner``, and the keys it declares less those a partial binds."""
    if isinstance(owner, functools.partial):
        return owner.func, {k: v for k, v in _keys_of(owner.func).items() if k not in owner.keywords}
    return owner, _keys_of(owner)


def _build(owner, doc: dict, what: str, parse: dict):
    target, keys = _declared(owner)
    values = {}
    for key, (kind, required) in keys.items():
        if key not in doc:
            if required:
                raise ConfigError(f"malformed {what}: missing {key!r}")
        elif key in parse and not (doc[key] is None and type(None) in typing.get_args(kind)):
            values[key] = parse[key](doc[key])
        else:
            _check_value(key, doc[key], kind)
            values[key] = _frozen(doc[key])
    return owner(**values) if isinstance(target, type) else functools.partial(owner, **values)


def from_document(owner, doc, what: str, **parse):
    """``owner`` read from the JSON object ``doc``, whose keys its annotations declare.

    A dataclass declares its fields and is built; a function declares its
    keyword-only parameters and comes back as a partial with them bound; a
    ``functools.partial`` of either leaves out the keys it binds; a tuple of
    owners shares the document and comes back as a tuple. A key in ``parse``
    is built by its function (null stays None where the annotation allows);
    every other value is checked by ``_check_value`` and passed as given,
    arrays as tuples, so ``asdict`` is the inverse. A document that is not
    an object, or a missing, undeclared or ill-kinded key, is a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object, got {doc!r}")
    owners = owner if isinstance(owner, tuple) else (owner,)
    reject_unknown_keys(doc, [k for o in owners for k in _declared(o)[1]], what)
    try:
        built = tuple(_build(o, doc, what, parse) for o in owners)
    except TypeError as exc:  # a value the constructor cannot compare or iterate
        raise ConfigError(f"malformed {what}: {exc}") from exc
    return built if isinstance(owner, tuple) else built[0]


def scenario_from_dict(doc) -> ScenarioConfig:
    """The scenario a JSON object of ``asdict`` shape describes, else a ConfigError."""
    return from_document(
        ScenarioConfig, doc, "scenario",
        fluid=lambda d: from_document(FluidProps, d, "fluid"),
        segments=lambda segs: tuple(from_document(PipeSegment, s, "segment") for s in segs),
    )


def scenario_fingerprint(config: ScenarioConfig) -> str:
    """Stable hex digest of the full configuration."""
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
