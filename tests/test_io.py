"""Binary and CSV format round-trips, fingerprints, and the run manifest."""

import csv
import hashlib
import json

import numpy as np
import pytest

from flowpsm.diagnostics import ResidualSignature
from flowpsm.errors import DataIoError
from flowpsm.formats import (
    METRICS_HEADER,
    RunManifest,
    file_digest,
    load_checkpoint,
    load_record,
    load_scaling,
    mlp_fingerprint,
    record_to_csv,
    save_checkpoint,
    save_record,
    save_scaling,
    write_metrics,
    write_rollout_log,
    write_signature_csv,
)
from flowpsm.network import MlpSpec, init_params, optimizer_step

SPEC = MlpSpec(input_dim=5, head_width=8, intermediate_width=6, tail_width=4)


def test_record_round_trip_is_bit_exact(tiny_records, tmp_path):
    rec = tiny_records[0]
    path = tmp_path / "exp.psmd"
    save_record(path, rec)
    back = load_record(path)
    assert back.scenario_hash == rec.scenario_hash
    for name in ("times", "grid_z", "station_z", "p", "u", "T", "v", "sensors"):
        a, b = getattr(rec, name), getattr(back, name)
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_record_rejects_corruption(tiny_records, tmp_path):
    rec = tiny_records[0]
    path = tmp_path / "exp.psmd"
    save_record(path, rec)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.psmd"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataIoError):
        load_record(bad_magic)

    truncated = tmp_path / "cut.psmd"
    truncated.write_bytes(blob[:-16])
    with pytest.raises(DataIoError):
        load_record(truncated)

    bad_version = tmp_path / "ver.psmd"
    bad_version.write_bytes(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(DataIoError):
        load_record(bad_version)

    with pytest.raises(DataIoError):
        load_record(tmp_path / "missing.psmd")


def test_record_csv_layout(tiny_records, tmp_path):
    rec = tiny_records[0]
    path = tmp_path / "exp.csv"
    record_to_csv(path, rec)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "z", "p", "u", "T", "v0", "v1"]
    assert len(rows) == 1 + rec.times.size * rec.grid_z.size
    first = rows[1]
    assert float(first[0]) == rec.times[0]
    assert float(first[1]) == pytest.approx(rec.grid_z[0])
    assert float(first[4]) == rec.T[0, 0]


def test_checkpoint_round_trip_without_moments(tmp_path):
    params = init_params(SPEC, seed=3)
    path = tmp_path / "w.psmw"
    save_checkpoint(path, params)
    back = load_checkpoint(path, SPEC)
    assert np.array_equal(back.flat, params.flat)
    assert back.m is None and back.v is None and back.step == 0


def test_checkpoint_round_trip_with_moments(tmp_path):
    params = init_params(SPEC, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(3):
        optimizer_step(params, rng.standard_normal(params.flat.size), 1e-3)
    path = tmp_path / "w.psmw"
    save_checkpoint(path, params)
    back = load_checkpoint(path, SPEC)
    assert np.array_equal(back.flat, params.flat)
    assert np.array_equal(back.m, params.m)
    assert np.array_equal(back.v, params.v)
    assert back.step == 3


def test_checkpoint_rejects_wrong_architecture(tmp_path):
    params = init_params(SPEC, seed=3)
    path = tmp_path / "w.psmw"
    save_checkpoint(path, params)
    other = MlpSpec(input_dim=5, head_width=9, intermediate_width=6, tail_width=4)
    with pytest.raises(DataIoError):
        load_checkpoint(path, other)
    trailing = tmp_path / "t.psmw"
    trailing.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataIoError):
        load_checkpoint(trailing, SPEC)


def test_mlp_fingerprint_stability_and_sensitivity():
    a = mlp_fingerprint(MlpSpec(input_dim=5, head_width=8, intermediate_width=6, tail_width=4))
    b = mlp_fingerprint(MlpSpec(input_dim=5, head_width=8, intermediate_width=6, tail_width=4))
    assert a == b
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")
    for change in (
        {"input_dim": 6}, {"head_width": 9}, {"intermediate_width": 7}, {"tail_width": 5},
    ):
        kwargs = dict(input_dim=5, head_width=8, intermediate_width=6, tail_width=4)
        kwargs.update(change)
        assert mlp_fingerprint(MlpSpec(**kwargs)) != a


def test_scaling_manifest_round_trip(tiny_dataset, tiny_records, tmp_path):
    _, scaling = tiny_dataset
    path = tmp_path / "scaling.json"
    save_scaling(path, scaling, tiny_records[0].scenario_hash)
    back, scen_hash = load_scaling(path)
    assert scen_hash == tiny_records[0].scenario_hash
    assert back.to_dict() == scaling.to_dict()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataIoError):
        load_scaling(bad)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"scaling": {}}))
    with pytest.raises(DataIoError):
        load_scaling(partial)


def _read_metrics(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: (int(row[k]) if k == "epoch" else float(row[k])) for k in METRICS_HEADER}
                for row in csv.DictReader(fh)]


def test_metrics_round_trip(tmp_path):
    rows = [
        (1, 0.5, 0.25, 0.375, 1e-3),
        (2, 0.125, 0.0625, 0.09375, 5e-4),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics(path, rows)
    back = _read_metrics(path)
    assert [tuple(r[k] for k in METRICS_HEADER) for r in back] == rows
    assert isinstance(back[0]["epoch"], int)


def test_rollout_log_columns(tmp_path):
    rows = [
        {"step": 0, "r": np.array([0.6, 850.0]), "v": np.array([0.6, 848.0]),
         "status": "ok", "outputs": [0.91], "bounds": [0.9]},
        {"step": 1, "r": np.array([0.6, 850.0]), "v": np.array([0.6, 850.0]),
         "status": "no_constraints", "outputs": [float("nan")], "bounds": [None]},
    ]
    path = tmp_path / "rollout.csv"
    write_rollout_log(path, rows, ["u_in", "T_in"], ["T_cap"])
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["step", "r_u_in", "r_T_in", "v_u_in", "v_T_in", "status",
                      "y_T_cap", "bound_T_cap"]
    assert got[1][5] == "ok"
    assert float(got[1][4]) == 848.0
    assert float(got[1][7]) == 0.9
    assert got[2][7] == ""  # inactive bound stays blank
    assert np.isnan(float(got[2][6]))


def test_signature_csv_layout(tmp_path):
    z = np.array([0.0, 0.5, 1.0])
    diff = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    sig = ResidualSignature(
        z=z, equations=("mass", "momentum", "energy"),
        nominal=np.zeros_like(diff), twin=diff, difference=diff,
        scaled=diff / 2.0, extrema={},
    )
    path = tmp_path / "signature.csv"
    write_signature_csv(path, sig)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["z", "equation", "r_nominal", "r_twin", "r_diff", "r_scaled"]
    assert len(got) == 1 + 3 * z.size
    # rows are grouped by equation, z varying fastest
    assert [row[1] for row in got[1:4]] == ["mass"] * 3
    assert [row[1] for row in got[4:7]] == ["momentum"] * 3
    assert float(got[2][3]) == 1.0


def test_file_digest_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"transport" * 1000
    path.write_bytes(payload)
    assert file_digest(path) == hashlib.sha256(payload).hexdigest()
    with pytest.raises(DataIoError):
        file_digest(tmp_path / "nope.bin")


def test_run_manifest_save(tmp_path):
    manifest = RunManifest(
        command="gen-data", config_path="cfg.json", seed=7, tool_version="0.1.0",
        input_digests={"cfg.json": "ab"}, output_digests={"dataset.json": "cd"},
        duration_s=1.5,
    )
    path = tmp_path / "manifest.json"
    manifest.save(path)
    doc = json.loads(path.read_text())
    assert doc["command"] == "gen-data"
    assert doc["seed"] == 7
    assert doc["input_digests"] == {"cfg.json": "ab"}
    assert doc["output_digests"] == {"dataset.json": "cd"}
    assert "started_unix" in doc
