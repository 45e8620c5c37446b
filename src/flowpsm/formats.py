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

Loading verifies magic, version, hashes and length (a cut or padded file
raises DataIoError); the checkpoint round-trip is bit-exact including
optimizer moments. CSV companions are tidy long-format tables with
documented headers, written for plotting out of process.

This is the one module that opens files. An output is written to a temporary
file beside it and moved into place, so readers see it whole or not at all and
an interrupted write leaves the old file. Text is UTF-8. A file that cannot be
read or written raises DataIoError naming it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataIoError
from .network import MlpSpec, ParamStore, _layout
from .solver import SimulationRecord
from .transport import ConfigError, ScalingSpec, from_document

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
    "load_json",
    "write_json",
    "write_text",
]

_RECORD_MAGIC = b"PSMD"
_CKPT_MAGIC = b"PSMW"
_VERSION = 1


def _hash_bytes(hex_digest: str) -> bytes:
    raw = bytes.fromhex(hex_digest)
    if len(raw) != 32:
        raise DataIoError("expected a 32-byte sha-256 digest")
    return raw


# ===================== file access =====================


@contextmanager
def _output(path, binary: bool = False):
    """A file beside ``path`` (plain ``open``: umask permissions) moved over it if the block succeeds.

    Any exception removes the file and leaves ``path`` as it was; an OSError
    becomes a DataIoError naming ``path``. Text is UTF-8, newlines as given.
    """
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise DataIoError(f"cannot write {path}: {exc}") from exc
        raise


def _read(path) -> bytes:
    """The file's bytes; DataIoError if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataIoError(f"cannot read {path}: {exc}") from exc


class _Reader:
    """Little-endian fields read in order from a file's bytes.

    A read past the end raises DataIoError naming the file, before any array
    is allocated, so a cut file or a header that overstates its counts fails
    the same way.
    """

    def __init__(self, path, what: str) -> None:
        self.path, self.what = path, what
        self.blob = memoryview(_read(path))
        self.offset = 0

    def bytes(self, n: int) -> memoryview:
        if n > len(self.blob) - self.offset:
            raise DataIoError(f"{self.path}: truncated {self.what}")
        self.offset += n
        return self.blob[self.offset - n : self.offset]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack("<" + fmt, self.bytes(struct.calcsize("<" + fmt)))

    def floats(self, *shape: int) -> np.ndarray:
        return np.frombuffer(self.bytes(8 * math.prod(shape)), dtype="<f8").astype(np.float64).reshape(shape)

    def end(self) -> None:
        if self.offset != len(self.blob):
            raise DataIoError(f"{self.path}: trailing bytes after the {self.what} payload")


def write_text(path, text: str) -> None:
    """``text`` as the file's UTF-8 contents; DataIoError if unwritable."""
    with _output(path) as fh:
        fh.write(text)


# ===================== simulation records =====================


def save_record(path, record: SimulationRecord) -> None:
    n_times = record.times.size
    n_cells = record.grid_z.size
    n_stations = record.station_z.size
    n_controls = record.v.shape[1]
    with _output(path, binary=True) as fh:
        fh.write(_RECORD_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(_hash_bytes(record.scenario_hash))
        fh.write(struct.pack("<IIII", n_times, n_cells, n_stations, n_controls))
        for arr in (record.times, record.grid_z, record.station_z,
                    record.p, record.u, record.T, record.v, record.sensors):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_record(path) -> SimulationRecord:
    r = _Reader(path, "record")
    if r.bytes(4) != _RECORD_MAGIC:
        raise DataIoError(f"{path}: not a simulation record (bad magic)")
    (version,) = r.unpack("H")
    if version != _VERSION:
        raise DataIoError(f"{path}: unsupported record version {version}")
    scen_hash = r.bytes(32).hex()
    n_times, n_cells, n_stations, n_controls = r.unpack("IIII")
    times, grid_z, station_z = r.floats(n_times), r.floats(n_cells), r.floats(n_stations)
    p, u, T = (r.floats(n_times, n_cells) for _ in range(3))
    v, sensors = r.floats(n_times, n_controls), r.floats(n_times, 3, n_stations)
    r.end()
    return SimulationRecord(
        scenario_hash=scen_hash, times=times, grid_z=grid_z,
        p=p, u=u, T=T, v=v, station_z=station_z, sensors=sensors,
    )


def record_to_csv(path, record: SimulationRecord) -> None:
    """Tidy long format: one row per (time, z) with fields and held controls."""
    n_controls = record.v.shape[1]
    with _output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "z", "p", "u", "T"] + [f"v{i}" for i in range(n_controls)])
        for k, t in enumerate(record.times):
            for j, z in enumerate(record.grid_z):
                writer.writerow(
                    [f"{t:.9g}", f"{z:.9g}",
                     f"{record.p[k, j]:.17g}", f"{record.u[k, j]:.17g}", f"{record.T[k, j]:.17g}"]
                    + [f"{record.v[k, i]:.17g}" for i in range(n_controls)]
                )


# ===================== checkpoints =====================


def mlp_fingerprint(spec: MlpSpec) -> str:
    payload = json.dumps(asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def save_checkpoint(path, params: ParamStore) -> None:
    with _output(path, binary=True) as fh:
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


def load_checkpoint(path, spec: MlpSpec) -> ParamStore:
    r = _Reader(path, "checkpoint")
    if r.bytes(4) != _CKPT_MAGIC:
        raise DataIoError(f"{path}: not a checkpoint (bad magic)")
    (version,) = r.unpack("H")
    if version != _VERSION:
        raise DataIoError(f"{path}: unsupported checkpoint version {version}")
    if r.bytes(32).hex() != mlp_fingerprint(spec):
        raise DataIoError(f"{path}: checkpoint was written for a different architecture")
    (n_params,) = r.unpack("Q")
    layout = _layout(spec)
    if layout[-1][3] != n_params:
        raise DataIoError(f"{path}: parameter count {n_params} does not tile the architecture")
    flat = r.floats(n_params)
    store = ParamStore(spec=spec, flat=flat, layout=layout)
    (has_moments,) = r.unpack("B")
    if has_moments:
        (store.step,) = r.unpack("Q")
        store.m, store.v = r.floats(n_params), r.floats(n_params)
    r.end()
    for name, arr in (("parameter", flat), ("first moment", store.m), ("second moment", store.v)):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise DataIoError(f"{path}: checkpoint holds a non-finite {name}")
    return store


# ===================== JSON documents =====================


def load_json(path, malformed=ConfigError) -> dict:
    """The JSON object in the UTF-8 file; other content raises ``malformed`` with a message."""
    try:
        doc = json.loads(_read(path).decode("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise malformed(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise malformed(f"{path}: expected a JSON object")
    return doc


def write_json(path, doc) -> None:
    """Indented, key-sorted JSON with a trailing newline; DataIoError if unwritable."""
    with _output(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_scaling(path, scaling: ScalingSpec, scenario_hash: str) -> None:
    write_json(path, {"scenario_hash": scenario_hash, "scaling": asdict(scaling)})


def load_scaling(path) -> tuple[ScalingSpec, str]:
    doc = load_json(path, lambda msg: DataIoError(f"malformed scaling manifest: {msg}"))
    try:
        return from_document(ScalingSpec, doc["scaling"], "scaling"), doc["scenario_hash"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataIoError(f"{path}: malformed scaling manifest: {exc}") from exc


# ===================== training metrics =====================

METRICS_HEADER = ("epoch", "loss_measurement", "loss_physics", "loss_total", "learning_rate")


def write_metrics(path, rows) -> None:
    """rows: iterable of (epoch, L_m, L_p, L_total, lr) tuples."""
    with _output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for row in rows:
            writer.writerow([f"{x:.10g}" if isinstance(x, float) else x for x in row])


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
    with _output(path) as fh:
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


def write_signature_csv(path, signature) -> None:
    """Residual signature rows: (z, equation, r_nom, r_twin, r_diff, r_scaled)."""
    with _output(path) as fh:
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
    started_unix: float  # time.time() when the command started
    input_digests: dict = field(default_factory=dict)
    output_digests: dict = field(default_factory=dict)
    duration_s: float = 0.0

    def save(self, path) -> None:
        write_json(path, self.__dict__)
