"""Output checks for the benchmark workloads.

Every check reads the program's output files with its own parser (the
documented ``.psmd`` layout, CSV headers and manifest keys) and compares them
with a computation made apart from the program or with a property the method
must have. A failed check raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ===================== readers =====================


def read_record(path) -> dict:
    """Parse one ``.psmd`` simulation record (layout in flowpsm.formats)."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"PSMD", f"{path}: bad record magic")
    n_times, n_cells, n_stations, n_controls = struct.unpack_from("<IIII", blob, 38)
    offset = 54
    out = {}
    for key, count, shape in (
        ("times", n_times, (n_times,)),
        ("grid_z", n_cells, (n_cells,)),
        ("station_z", n_stations, (n_stations,)),
        ("p", n_times * n_cells, (n_times, n_cells)),
        ("u", n_times * n_cells, (n_times, n_cells)),
        ("T", n_times * n_cells, (n_times, n_cells)),
        ("v", n_times * n_controls, (n_times, n_controls)),
        ("sensors", n_times * 3 * n_stations, (n_times, 3, n_stations)),
    ):
        out[key] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    require(offset == len(blob), f"{path}: record size does not match its header")
    return out


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ===================== generic checks =====================


def check_manifest(out_dir) -> None:
    """Every output digest in ``manifest.json`` is the SHA-256 of that file."""
    out_dir = Path(out_dir)
    doc = json.loads((out_dir / "manifest.json").read_text())
    require(bool(doc["output_digests"]), f"{out_dir}: manifest lists no outputs")
    for rel, digest in doc["output_digests"].items():
        require(sha256(out_dir / rel) == digest, f"{out_dir}: digest of {rel} does not match")


def check_training_metrics(path, epochs: int, mode: str) -> None:
    """One finite row per epoch, the loss falls, physics loss only in psm mode."""
    rows = read_csv(path)
    require(len(rows) == epochs, f"{path}: {len(rows)} rows for {epochs} epochs")
    require([int(r["epoch"]) for r in rows] == list(range(1, epochs + 1)),
            f"{path}: epochs are not numbered 1..{epochs}")
    for r in rows:
        values = [float(r[k]) for k in r if k != "epoch"]
        require(all(math.isfinite(x) for x in values), f"{path}: non-finite value in epoch {r['epoch']}")
        lp = float(r["loss_physics"])
        if mode == "psm":
            require(lp > 0.0, f"{path}: psm epoch {r['epoch']} has no physics loss")
        else:
            require(lp == 0.0, f"{path}: ann epoch {r['epoch']} has physics loss {lp}")
    first, last = float(rows[0]["loss_total"]), float(rows[-1]["loss_total"])
    require(last < first, f"{path}: final loss {last:.3e} is not below the first {first:.3e}")


# ===================== channel-study =====================

# heated pipe of the heated_channel preset: 50 MW/m^3 over z in [1.0, 1.8] m
CHANNEL_SOURCE = 50.0e6
CHANNEL_HEATED = (1.0, 1.8)
STEADY_TOL_K = 1e-6  # steady_state stops when T moves < 1e-8 * 100 K per delta_t


def check_channel_energy_balance(record: dict, fluid: dict, tol_k: float = STEADY_TOL_K) -> float:
    """The t = 0 snapshot is steady: T rises by q L / (rho(T_in) u_in c_p) across the heater.

    Returns the largest deviation in K.
    """
    u_in, t_in = record["v"][0]
    rho_in = fluid["rho_a"] - fluid["rho_b"] * t_in
    rise = CHANNEL_SOURCE * (CHANNEL_HEATED[1] - CHANNEL_HEATED[0]) / (rho_in * u_in * fluid["cp"])
    z = record["station_z"]
    require(np.all((z < CHANNEL_HEATED[0]) | (z > CHANNEL_HEATED[1])),
            "a channel sensor station sits inside the heated pipe")
    expected = np.where(z < CHANNEL_HEATED[0], t_in, t_in + rise)
    err = float(np.max(np.abs(record["sensors"][0, 2] - expected)))
    require(err <= tol_k, f"steady energy balance off by {err:.3e} K (tolerance {tol_k:g} K)")
    return err


def check_transparent_governor(rows: list[dict], controls: list[str]) -> None:
    """Under a cap that never binds, every step applies its reference exactly."""
    require(bool(rows), "rollout log is empty")
    for r in rows:
        require(r["status"] == "at_reference", f"step {r['step']}: status {r['status']}")
        for c in controls:
            require(float(r[f"v_{c}"]) == float(r[f"r_{c}"]),
                    f"step {r['step']}: applied {c} {r[f'v_{c}']} differs from reference {r[f'r_{c}']}")


def rmse_ratio(path, field: str = "T") -> float:
    """First model's overall RMSE over the second's, from ``rmse_table.csv``."""
    for r in read_csv(path):
        if r["field"] == field and r["statistic"] == "overall":
            vals = [float(v) for k, v in r.items() if k not in ("field", "statistic", "ratio")]
            return vals[0] / vals[1]
    raise CheckFailed(f"{path}: no overall {field} row")


# ===================== loop-fault =====================

ENTHALPY_REL_TOL = 1e-12


def check_loop_enthalpy(record: dict, fluid: dict, dz: np.ndarray,
                        rel_tol: float = ENTHALPY_REL_TOL) -> float:
    """Sum of rho(T) T dz is constant: heater and cooler cancel, fluxes telescope.

    Returns the largest relative drift from the first snapshot.
    """
    T = record["T"]
    h = ((fluid["rho_a"] - fluid["rho_b"] * T) * T) @ dz
    drift = float(np.max(np.abs(h - h[0])) / abs(h[0]))
    require(drift <= rel_tol, f"loop enthalpy drifts by {drift:.3e} (tolerance {rel_tol:g})")
    return drift


def check_detection(out_dir, expect_trip: bool) -> dict:
    """Trip on a degraded stream with a three-equation signature; none on a nominal one.

    Returns the localization ratios printed in the verdict (empty without a trip).
    """
    out_dir = Path(out_dir)
    verdict = (out_dir / "verdict.txt").read_text()
    tripped = "degradation detected at step" in verdict
    require(tripped == expect_trip,
            f"{out_dir}: detector {'did not trip' if expect_trip else 'tripped'} ({verdict.strip()!r})")
    sig_path = out_dir / "signature.csv"
    if not expect_trip:
        require(not sig_path.exists(), f"{out_dir}: signature written without a trip")
        return {}
    rows = read_csv(sig_path)
    equations = sorted({r["equation"] for r in rows})
    require(equations == ["energy", "mass", "momentum"], f"{out_dir}: signature equations {equations}")
    require(all(math.isfinite(float(r["r_diff"])) for r in rows), f"{out_dir}: non-finite signature")
    ratios = {}
    for line in verdict.splitlines():
        if line.startswith("localization ratios"):
            for part in line.split(":", 1)[1].split(","):
                eq, value = part.split()
                ratios[eq] = float(value)
    return ratios


# ===================== governor =====================

RANGE_SLACK = 0.10  # the solver accepts inputs this fraction of a span outside the range


def check_governed_rollout(rows: list[dict], controls: list[str], ranges: list, epsilon: float) -> dict:
    """Caps hold to epsilon and inputs stay in the extended range on every step.

    Returns the count of each status; the caller counts ``fallback_*`` steps
    as failed operations.
    """
    require(bool(rows), "rollout log is empty")
    statuses: dict = {}
    for r in rows:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
        for key, bound in r.items():
            if key.startswith("bound_") and bound != "":
                y = float(r["y_" + key[len("bound_"):]])
                require(y <= float(bound) + epsilon,
                        f"step {r['step']}: {key[6:]} = {y:.6g} exceeds cap {float(bound):.6g} + {epsilon}")
        for c, (lo, hi) in zip(controls, ranges):
            v = float(r[f"v_{c}"])
            slack = RANGE_SLACK * (hi - lo)
            require(lo - slack <= v <= hi + slack, f"step {r['step']}: {c} = {v} outside the input range")
    return statuses
