"""File formats: simulation records, checkpoints, manifests, CSV contracts.

Binary layouts (all integers and floats little-endian):

record (.psmd)
    magic "PSMD" | version u16 | scenario hash 32 B (sha-256)
    | n_times u32 | n_cells u32 | n_stations u32 | n_controls u32
    | times f64[n_times] | grid_z f64[n_cells] | station_z f64[n_stations]
    | p,u,T f64[n_times*n_cells] each | v f64[n_times*n_controls]
    | sensors f64[n_times*3*n_stations]

checkpoint (.psmw)
    magic "PSMW" | version u16 | architecture hash 32 B (sha-256)
    | n_params u64 | params f64[n_params] | has_moments u8
    [| step u64 | m f64[n_params] | v f64[n_params]]

Loading verifies magic, version, and hashes; the checkpoint round-trip is
bit-exact including optimizer moments. CSV companions are tidy long-format
tables with documented headers, written for plotting out of process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataIoError
from .network import MlpSpec, ParamStore, _layout
from .solver import SimulationRecord
from .transport import ScalingSpec

__all__ = [
    "save_record",
    "load_record",
    "record_to_csv",
    "mlp_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "save_scaling",
    "load_scaling",
    "write_metrics",
    "write_rollout_log",
    "write_signature_csv",
    "RunManifest",
    "file_digest",
    "write_json",
]

_RECORD_MAGIC = b"PSMD"
_CKPT_MAGIC = b"PSMW"
_VERSION = 1


def _hash_bytes(hex_digest: str) -> bytes:
    raw = bytes.fromhex(hex_digest)
    if len(raw) != 32:
        raise DataIoError("expected a 32-byte sha-256 digest")
    return raw


# ===================== simulation records =====================


def save_record(path, record: SimulationRecord) -> None:
    n_times = record.times.size
    n_cells = record.grid_z.size
    n_stations = record.station_z.size
    n_controls = record.v.shape[1]
    try:
        with open(path, "wb") as fh:
            fh.write(_RECORD_MAGIC)
            fh.write(struct.pack("<H", _VERSION))
            fh.write(_hash_bytes(record.scenario_hash))
            fh.write(struct.pack("<IIII", n_times, n_cells, n_stations, n_controls))
            for arr in (record.times, record.grid_z, record.station_z,
                        record.p, record.u, record.T, record.v, record.sensors):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    except OSError as exc:
        raise DataIoError(f"cannot write record {path}: {exc}") from exc


def load_record(path) -> SimulationRecord:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataIoError(f"cannot read record {path}: {exc}") from exc
    if blob[:4] != _RECORD_MAGIC:
        raise DataIoError(f"{path}: not a simulation record (bad magic)")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != _VERSION:
        raise DataIoError(f"{path}: unsupported record version {version}")
    scen_hash = blob[6:38].hex()
    n_times, n_cells, n_stations, n_controls = struct.unpack_from("<IIII", blob, 38)
    offset = 54
    expect = 8 * (
        n_times + n_cells + n_stations
        + 3 * n_times * n_cells + n_times * n_controls + n_times * 3 * n_stations
    )
    if len(blob) - offset != expect:
        raise DataIoError(f"{path}: truncated or oversized record payload")

    def take(count, shape):
        nonlocal offset
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).astype(np.float64)
        offset += 8 * count
        return arr.reshape(shape)

    times = take(n_times, (n_times,))
    grid_z = take(n_cells, (n_cells,))
    station_z = take(n_stations, (n_stations,))
    p = take(n_times * n_cells, (n_times, n_cells))
    u = take(n_times * n_cells, (n_times, n_cells))
    T = take(n_times * n_cells, (n_times, n_cells))
    v = take(n_times * n_controls, (n_times, n_controls))
    sensors = take(n_times * 3 * n_stations, (n_times, 3, n_stations))
    return SimulationRecord(
        scenario_hash=scen_hash, times=times, grid_z=grid_z,
        p=p, u=u, T=T, v=v, station_z=station_z, sensors=sensors,
    )


def record_to_csv(path, record: SimulationRecord) -> None:
    """Tidy long format: one row per (time, z) with fields and held controls."""
    n_controls = record.v.shape[1]
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "z", "p", "u", "T"] + [f"v{i}" for i in range(n_controls)])
            for k, t in enumerate(record.times):
                for j, z in enumerate(record.grid_z):
                    writer.writerow(
                        [f"{t:.9g}", f"{z:.9g}",
                         f"{record.p[k, j]:.17g}", f"{record.u[k, j]:.17g}", f"{record.T[k, j]:.17g}"]
                        + [f"{record.v[k, i]:.17g}" for i in range(n_controls)]
                    )
    except OSError as exc:
        raise DataIoError(f"cannot write csv {path}: {exc}") from exc


# ===================== checkpoints =====================


def mlp_fingerprint(spec: MlpSpec) -> str:
    payload = json.dumps(
        {
            "input_dim": spec.input_dim,
            "head_width": spec.head_width,
            "intermediate_width": spec.intermediate_width,
            "tail_width": spec.tail_width,
            "activation": spec.activation,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def save_checkpoint(path, params: ParamStore) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<H", _VERSION))
            fh.write(_hash_bytes(mlp_fingerprint(params.spec)))
            fh.write(struct.pack("<Q", params.n_params))
            fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())
            has_moments = params.m is not None
            fh.write(struct.pack("<B", 1 if has_moments else 0))
            if has_moments:
                fh.write(struct.pack("<Q", params.step))
                fh.write(np.ascontiguousarray(params.m, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(params.v, dtype="<f8").tobytes())
    except OSError as exc:
        raise DataIoError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path, spec: MlpSpec) -> ParamStore:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataIoError(f"cannot read checkpoint {path}: {exc}") from exc
    if blob[:4] != _CKPT_MAGIC:
        raise DataIoError(f"{path}: not a checkpoint (bad magic)")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != _VERSION:
        raise DataIoError(f"{path}: unsupported checkpoint version {version}")
    if blob[6:38].hex() != mlp_fingerprint(spec):
        raise DataIoError(f"{path}: checkpoint was written for a different architecture")
    (n_params,) = struct.unpack_from("<Q", blob, 38)
    layout = _layout(spec)
    if layout[-1][3] != n_params:
        raise DataIoError(f"{path}: parameter count {n_params} does not tile the architecture")
    offset = 46
    flat = np.frombuffer(blob, dtype="<f8", count=n_params, offset=offset).astype(np.float64)
    offset += 8 * n_params
    (has_moments,) = struct.unpack_from("<B", blob, offset)
    offset += 1
    store = ParamStore(spec=spec, flat=flat, layout=layout)
    if has_moments:
        (step,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        m = np.frombuffer(blob, dtype="<f8", count=n_params, offset=offset).astype(np.float64)
        offset += 8 * n_params
        v = np.frombuffer(blob, dtype="<f8", count=n_params, offset=offset).astype(np.float64)
        offset += 8 * n_params
        store.m, store.v, store.step = m, v, step
    if offset != len(blob):
        raise DataIoError(f"{path}: trailing bytes after checkpoint payload")
    return store


# ===================== JSON documents =====================


def write_json(path, doc) -> None:
    """Indented, key-sorted JSON with a trailing newline; DataIoError if unwritable."""
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise DataIoError(f"cannot write {path}: {exc}") from exc


def save_scaling(path, scaling: ScalingSpec, scenario_hash: str) -> None:
    write_json(path, {"scenario_hash": scenario_hash, "scaling": scaling.to_dict()})


def load_scaling(path) -> tuple[ScalingSpec, str]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataIoError(f"cannot read scaling manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataIoError(f"{path}: malformed scaling manifest: {exc}") from exc
    try:
        return ScalingSpec.from_dict(doc["scaling"]), doc["scenario_hash"]
    except (KeyError, TypeError) as exc:
        raise DataIoError(f"{path}: scaling manifest missing fields: {exc}") from exc


# ===================== training metrics =====================

METRICS_HEADER = ("epoch", "loss_measurement", "loss_physics", "loss_total", "learning_rate")


def write_metrics(path, rows) -> None:
    """rows: iterable of (epoch, L_m, L_p, L_total, lr) tuples."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            for row in rows:
                writer.writerow([f"{x:.10g}" if isinstance(x, float) else x for x in row])
    except OSError as exc:
        raise DataIoError(f"cannot write metrics {path}: {exc}") from exc


# ===================== rollout and signature logs =====================


def write_rollout_log(path, rows, control_names, output_names) -> None:
    """rows: dicts with step, r, v, status, outputs, bounds (arrays allowed)."""
    header = (
        ["step"]
        + [f"r_{c}" for c in control_names]
        + [f"v_{c}" for c in control_names]
        + ["status"]
        + [f"y_{o}" for o in output_names]
        + [f"bound_{o}" for o in output_names]
    )
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [row["step"]]
                    + [f"{x:.17g}" for x in row["r"]]
                    + [f"{x:.17g}" for x in row["v"]]
                    + [row["status"]]
                    + [f"{x:.17g}" for x in row["outputs"]]
                    + [("" if b is None else f"{b:.17g}") for b in row["bounds"]]
                )
    except OSError as exc:
        raise DataIoError(f"cannot write rollout log {path}: {exc}") from exc


def write_signature_csv(path, signature) -> None:
    """Residual signature rows: (z, equation, r_nom, r_twin, r_diff, r_scaled)."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z", "equation", "r_nominal", "r_twin", "r_diff", "r_scaled"])
            for row, eq in enumerate(signature.equations):
                nom = signature.nominal[row]
                twin = signature.twin[row]
                diff = signature.difference[row]
                scaled = signature.scaled[row]
                for i, z in enumerate(signature.z):
                    writer.writerow(
                        [f"{z:.9g}", eq, f"{nom[i]:.17g}", f"{twin[i]:.17g}",
                         f"{diff[i]:.17g}", f"{scaled[i]:.17g}"]
                    )
    except OSError as exc:
        raise DataIoError(f"cannot write signature {path}: {exc}") from exc


# ===================== run manifest =====================


def file_digest(path) -> str:
    try:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()
    except OSError as exc:
        raise DataIoError(f"cannot hash {path}: {exc}") from exc


@dataclass
class RunManifest:
    """Reproducibility sidecar emitted by every CLI command."""

    command: str
    config_path: str | None
    seed: int | None
    tool_version: str
    input_digests: dict = field(default_factory=dict)
    output_digests: dict = field(default_factory=dict)
    duration_s: float = 0.0
    started_unix: float = field(default_factory=time.time)

    def save(self, path) -> None:
        write_json(path, self.__dict__)
