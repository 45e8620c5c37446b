"""End-to-end CLI pipeline on a tiny scenario, plus exit-code contracts."""

import csv
import dataclasses
import functools
import hashlib
import importlib
import json
import math
import pkgutil
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import flowpsm
from flowpsm.cli import _noise_from_flag, main
from flowpsm.formats import file_digest, load_checkpoint, save_checkpoint
from flowpsm.network import MlpSpec
from flowpsm.training import NoiseSpec
from flowpsm.transport import (
    ConfigError,
    heated_channel_preset,
    loop_preset,
    scenario_fingerprint,
    scenario_from_dict,
)

from conftest import tiny_channel


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + psm/ann training shared by the command tests below."""
    root = tmp_path_factory.mktemp("cli")
    scenario = tiny_channel()
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps({
        "scenario": asdict(scenario),
        "n_train": 2,
        "n_test": 1,
    }))
    data = root / "data"
    assert main(["gen-data", "--config", str(gen_cfg), "--seed", "5",
                 "--out", str(data)]) == 0

    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps({
        "widths": [8, 6, 4],
        "epochs": 3,
        "batch_size": 128,
        "collocation_size": 32,
        "log_every": 100,
    }))
    psm = root / "psm"
    ann = root / "ann"
    assert main(["train", "--config", str(train_cfg), "--data", str(data),
                 "--seed", "2", "--out", str(psm)]) == 0
    assert main(["train", "--config", str(train_cfg), "--data", str(data),
                 "--mode", "ann", "--seed", "2", "--out", str(ann)]) == 0
    return {"root": root, "gen_cfg": gen_cfg, "train_cfg": train_cfg,
            "data": data, "psm": psm, "ann": ann}


def test_gen_data_outputs(pipeline):
    data = pipeline["data"]
    doc = json.loads((data / "dataset.json").read_text())
    assert doc["train_records"] == ["records/exp_000.psmd", "records/exp_001.psmd"]
    assert doc["test_records"] == ["records/exp_002.psmd"]
    for rel in doc["train_records"] + doc["test_records"]:
        assert (data / rel).exists()
    assert (data / "scaling.json").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["seed"] == 5
    assert "records/exp_000.psmd" in manifest["output_digests"]


def test_gen_data_manifest_digests_exported_csv_records(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"scenario": _CHANNEL, "n_train": 1, "n_test": 1, "export_csv": True}))
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    digests = json.loads((out / "manifest.json").read_text())["output_digests"]
    for rel in ("records/exp_000.csv", "records/exp_001.csv"):
        assert digests[rel] == hashlib.sha256((out / rel).read_bytes()).hexdigest()


def test_gen_data_is_deterministic(pipeline, tmp_path):
    again = tmp_path / "again"
    assert main(["gen-data", "--config", str(pipeline["gen_cfg"]), "--seed", "5",
                 "--out", str(again)]) == 0
    for rel in ("records/exp_000.psmd", "records/exp_002.psmd", "scaling.json"):
        ref = file_digest(pipeline["data"] / rel)
        assert file_digest(again / rel) == ref


def test_train_outputs(pipeline):
    psm = pipeline["psm"]
    for name in ("checkpoint.psmw", "metrics.csv", "arch.json", "manifest.json"):
        assert (psm / name).exists()
    arch = json.loads((psm / "arch.json").read_text())
    assert arch["mode"] == "psm"
    assert arch["head_width"] == 8
    ann_arch = json.loads((pipeline["ann"] / "arch.json").read_text())
    assert ann_arch["mode"] == "ann"
    with open(psm / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[0]["loss_physics"]) > 0.0
    with open(pipeline["ann"] / "metrics.csv", newline="") as fh:
        ann_rows = list(csv.DictReader(fh))
    assert all(float(r["loss_physics"]) == 0.0 for r in ann_rows)


def test_eval_two_models_with_ratio(pipeline, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["eval", "--model", str(pipeline["psm"]), "--model", str(pipeline["ann"]),
               "--data", str(pipeline["data"]), "--out", str(out)])
    assert rc == 0
    with open(out / "rmse_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["field", "statistic", "psm", "ann", "ratio"]
    assert len(rows) == 1 + 9  # 3 fields x mean/max/overall
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(float(row[2]) / float(row[3]), rel=1e-3)
    assert "ratio" in capsys.readouterr().out


def test_control_passthrough_without_schedule(pipeline, tmp_path):
    cfg = tmp_path / "control.json"
    cfg.write_text(json.dumps({
        "references": {"hold": [0.65, 850.0]},
        "n_steps": 3,
        "environment": "model",
    }))
    out = tmp_path / "roll"
    rc = main(["control", "--config", str(cfg), "--model", str(pipeline["psm"]),
               "--data", str(pipeline["data"]), "--out", str(out)])
    assert rc == 0
    with open(out / "rollout.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert row["status"] == "no_constraints"
        assert float(row["v_u_in"]) == pytest.approx(float(row["r_u_in"]))
        assert float(row["v_T_in"]) == pytest.approx(float(row["r_T_in"]))


def test_control_with_temperature_cap(pipeline, tmp_path, capsys):
    cfg = tmp_path / "control.json"
    cfg.write_text(json.dumps({
        "references": {"knots": {"times": [0.0, 7.5], "values": [[0.65, 850.0], [0.65, 860.0]]}},
        "n_steps": 3,
        "environment": "model",
        "horizon": 20,
        "schedule": [{"from_step": 0, "constraints": [
            {"type": "temperature_cap", "station_index": 1, "cap_celsius": 626.85},
        ]}],
    }))
    out = tmp_path / "roll"
    rc = main(["control", "--config", str(cfg), "--model", str(pipeline["psm"]),
               "--data", str(pipeline["data"]), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "bound T_cap_1" in text
    assert "vs cap 900.00 K" in text  # celsius converted on read
    with open(out / "rollout.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert "y_T_cap_1" in header and "bound_T_cap_1" in header


def test_control_reuses_a_name_across_schedule_entries(pipeline, tmp_path, capsys):
    # a later entry that repeats a name changes that row's bound in the same log column
    cfg = tmp_path / "control.json"
    cfg.write_text(json.dumps({**_HOLD, "n_steps": 4, "schedule": [
        {"from_step": 0, "constraints": [{"station_index": 1, "cap_kelvin": 900.0}]},
        {"from_step": 2, "constraints": [{"station_index": 1, "cap_kelvin": 880.0}]},
        {"from_step": 3, "constraints": [{"station_index": 1, "cap_kelvin": 950.0}]}]}))
    out = tmp_path / "roll"
    assert main(["control", "--config", str(cfg), "--model", str(pipeline["psm"]),
                 "--data", str(pipeline["data"]), "--out", str(out)]) == 0
    with open(out / "rollout.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [k for k in rows[0] if k.endswith("T_cap_1")] == ["y_T_cap_1", "bound_T_cap_1"]
    bounds = [float(r["bound_T_cap_1"]) for r in rows]
    assert bounds[0] == bounds[1] > bounds[2] and bounds[3] > bounds[0]
    # the summary prints the cap in force at the step with the worst margin, in K, not the last one given
    worst = max(rows, key=lambda r: float(r["y_T_cap_1"]) - float(r["bound_T_cap_1"]))
    scaling = json.loads((pipeline["data"] / "scaling.json").read_text())["scaling"]
    cap = scaling["T_min"] + float(worst["bound_T_cap_1"]) * (scaling["T_max"] - scaling["T_min"])
    printed = re.search(r"bound T_cap_1: .* vs cap ([0-9.]+) K", capsys.readouterr().out)
    assert float(printed.group(1)) == pytest.approx(cap, abs=0.005)


def test_control_logs_a_name_out_of_force_as_empty(pipeline, tmp_path, capsys):
    # a name the entry in force lacks logs NaN with an empty bound, and one never in force gets no summary line
    cfg = tmp_path / "control.json"
    cfg.write_text(json.dumps({**_HOLD, "n_steps": 4, "schedule": [
        {"from_step": 0, "constraints": [{"station_index": 1, "cap_kelvin": 900.0}]},
        {"from_step": 2, "constraints": [{"station_index": 2, "cap_kelvin": 900.0}]},
        {"from_step": 9, "constraints": [{"station_index": 3, "cap_kelvin": 900.0}]}]}))
    out = tmp_path / "roll"
    assert main(["control", "--config", str(cfg), "--model", str(pipeline["psm"]),
                 "--data", str(pipeline["data"]), "--out", str(out)]) == 0
    with open(out / "rollout.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for k, row in enumerate(rows):
        assert math.isnan(float(row["y_T_cap_1"])) == (k >= 2)
        assert (row["bound_T_cap_1"] == "") == (k >= 2)
        assert math.isnan(float(row["y_T_cap_2"])) == (k < 2)
        assert math.isnan(float(row["y_T_cap_3"])) and row["bound_T_cap_3"] == ""
    printed = capsys.readouterr().out
    assert "bound T_cap_1:" in printed and "bound T_cap_2:" in printed
    assert "T_cap_3" not in printed


def test_diagnose_quiet_stream(pipeline, tmp_path, capsys):
    cfg = tmp_path / "diag.json"
    cfg.write_text(json.dumps({"zeta": 1e6, "window": 2}))
    out = tmp_path / "diag"
    rc = main(["diagnose", "--config", str(cfg), "--model", str(pipeline["psm"]),
               "--data", str(pipeline["data"]),
               "--stream", str(pipeline["data"] / "records/exp_002.psmd"),
               "--out", str(out)])
    assert rc == 0
    verdict = (out / "verdict.txt").read_text()
    assert "no degradation detected" in verdict
    assert not (out / "signature.csv").exists()


def test_diagnose_tripped_stream(pipeline, tmp_path):
    cfg = tmp_path / "diag.json"
    cfg.write_text(json.dumps({
        "zeta": 1e-9,
        "window": 2,
        "twin": {"epochs": 1, "batch_size": 128},
        "n_conditions": 4,
        "fault_span": [0.5, 1.0],
    }))
    out = tmp_path / "diag"
    rc = main(["diagnose", "--config", str(cfg), "--model", str(pipeline["psm"]),
               "--data", str(pipeline["data"]),
               "--stream", str(pipeline["data"] / "records/exp_002.psmd"),
               "--out", str(out)])
    assert rc == 0
    verdict = (out / "verdict.txt").read_text()
    assert "degradation detected at step" in verdict
    assert "localization ratios" in verdict
    with open(out / "signature.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["z", "equation", "r_nominal", "r_twin", "r_diff", "r_scaled"]


def test_preset_round_trips(tmp_path):
    out = tmp_path / "preset"
    assert main(["preset", "--name", "heated_channel", "--out", str(out)]) == 0
    doc = json.loads((out / "scenario.json").read_text())
    back = scenario_from_dict(doc)
    assert scenario_fingerprint(back) == scenario_fingerprint(heated_channel_preset())


def test_exit_code_config_error(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "heated_channel",
                               "scenario": {"kind": "heated_channel"}}))
    rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path, capsys):
    rc = main(["gen-data", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "x")])
    assert rc == 4
    assert "cannot read" in capsys.readouterr().err


def test_exit_code_numerical_error(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "scenario": asdict(tiny_channel()),
        "n_train": 1,
        "n_test": 0,
        "solver": {"substep": 2.5},  # advective Courant number above 1
    }))
    rc = main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err.strip()


_CHANNEL = asdict(tiny_channel())
_LOOP = asdict(loop_preset())


def _segment(scenario: dict, index: int, **values) -> dict:
    """The scenario document with the given keys of segment ``index`` replaced."""
    segments = list(scenario["segments"])
    segments[index] = {**segments[index], **values}
    return {**scenario, "segments": segments}


@pytest.mark.parametrize("extra, key", [
    ({"n_train": "x"}, "n_train"),
    ({"degradation": [1, 10.0]}, "degradation"),
    ({"degradation": {"segment_index": 1}}, "friction_multiplier"),
    ({"degradation": {"segment_index": "x", "friction_multiplier": 10.0}}, "segment_index"),
    ({"solver": {"substep": "x"}}, "substep"),
    ({"solver": {"max_iters": 40}}, "max_iters"),
    ({"solver": {"tol": 1e-10}}, "tol"),
    ({"solver": 0.05}, "solver"),
    ({"scenario": None, "preset": ["heated_channel"]}, "preset"),
    ({"scenario": {**_CHANNEL, "segments": [{**_CHANNEL["segments"][0], "n_elements": 2.5},
                                            *_CHANNEL["segments"][1:]]}}, "n_elements"),
    ({"scenario": {**_LOOP, "reference_cell": 1.5}}, "reference_cell"),
    ({"scenario": {**_LOOP, "control_channels": ["q_source", "pump_head"]}}, "dp_pump"),
    ({"scenario": {**_CHANNEL, "control_channels": ["u_inlet", "T_in"]}}, "u_in"),
    ({"scenario": {**_CHANNEL, "control_channels": ["u_in", "T_inlet"]}}, "T_in"),
    ({"export_csv": "no"}, "export_csv"),
    ({"scenario": {**_CHANNEL, "input_ranges": [[0.5], [804.65, 884.65]]}}, "input range"),
    ({"scenario": {**_CHANNEL, "outlet_pressure": "x"}}, "outlet_pressure"),
    ({"scenario": {**_CHANNEL, "episode_duration": float("nan")}}, "episode_duration"),
    ({"n_trian": 1}, "n_trian"),
    ({"degradation": {"segment_index": 1, "friction_multiplier": 10.0, "segment": 1}}, "'segment'"),
    ({"solver": {"substeps": 0.05}}, "substeps"),
    ({"scenario": {**_CHANNEL, "delta_tt": 5.0}}, "delta_tt"),
    ({"scenario": {**_CHANNEL, "segments": [{**_CHANNEL["segments"][0], "lenght": 1.0},
                                            *_CHANNEL["segments"][1:]]}}, "lenght"),
    ({"scenario": {**_CHANNEL, "fluid": {**_CHANNEL["fluid"], "rho_c": 1.0}}}, "rho_c"),
    ({"scenario": {**_CHANNEL, "fluid": {**_CHANNEL["fluid"], "rho_b": "x"}}}, "rho_b"),
    ({"scenario": _segment(_CHANNEL, 0, heat_source="x")}, "heat_source"),
    ({"scenario": _segment(_CHANNEL, 0, gravity_component="x")}, "gravity_component"),
    ({"scenario": _segment(_LOOP, 1, source_scale="x")}, "source_scale"),
    ({"scenario": _segment(_CHANNEL, 0, length=True)}, "length"),
    ({"scenario": _segment(_CHANNEL, 0, friction_factor=True)}, "friction_factor"),
    ({"scenario": _segment(_CHANNEL, 0, hydraulic_diameter=True)}, "hydraulic_diameter"),
    ({"scenario": _segment(_CHANNEL, 0, source_scale=True)}, "source_scale"),
    ({"scenario": _segment(_CHANNEL, 0, length=float("inf"))}, "length"),
    ({"scenario": _segment(_CHANNEL, 0, friction_factor=float("nan"))}, "friction_factor"),
    ({"scenario": {**_CHANNEL, "input_ranges": [["a", "b"], [804.65, 884.65]]}}, "input_ranges"),
    ({"scenario": {**_CHANNEL, "input_ranges": [[0.5, float("inf")], [804.65, 884.65]]}}, "input_ranges"),
    ({"scenario": {**_CHANNEL, "input_ranges": [[0.5, float("nan")], [804.65, 884.65]]}}, "input_ranges"),
    ({"scenario": {**_CHANNEL, "input_ranges": [[True, 2], [804.65, 884.65]]}}, "input_ranges"),
    ({"scenario": {**_CHANNEL, "input_ranges": [[0.5, 10**400], [804.65, 884.65]]}}, "input_ranges"),
    ({"scenario": {**_CHANNEL, "sensor_stations": [True, *_CHANNEL["sensor_stations"][1:]]}}, "sensor_stations"),
    ({"scenario": {**_CHANNEL, "fluid": {**_CHANNEL["fluid"], "rho_b": -0.488}}}, "rho_b"),
], ids=["n_train_not_a_number", "degradation_not_an_object",
        "degradation_without_multiplier", "segment_index_not_a_number",
        "substep_not_a_number", "max_iters_unknown", "tol_unknown", "solver_not_an_object",
        "preset_not_a_string", "n_elements_fractional", "reference_cell_fractional",
        "loop_without_dp_pump", "channel_without_u_in", "channel_without_T_in",
        "export_csv_not_a_boolean", "input_range_not_a_pair", "outlet_pressure_not_a_number",
        "episode_duration_nan", "unknown_key", "unknown_degradation_key", "unknown_solver_key",
        "unknown_scenario_key", "unknown_segment_key", "unknown_fluid_key", "rho_b_not_a_number",
        "heat_source_not_a_number", "gravity_component_not_a_number", "loop_heater_source_scale_not_a_number",
        "length_boolean", "friction_factor_boolean", "hydraulic_diameter_boolean", "source_scale_boolean",
        "length_infinite", "friction_factor_nan", "input_range_strings", "input_range_infinite",
        "input_range_nan", "input_range_boolean", "input_range_beyond_float", "sensor_station_boolean",
        "rho_b_negative"])
def test_gen_data_bad_config_values_exit_2(tmp_path, capsys, extra, key):
    cfg = tmp_path / "gen.json"
    doc = {"scenario": _CHANNEL, "n_train": 1, "n_test": 0, **extra}
    cfg.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "config error" in err and key in err
    assert not (tmp_path / "x" / "records").exists()


_HOLD = {"references": {"hold": [0.65, 850.0]}, "n_steps": 2, "environment": "model"}
_TRIP = {"zeta": 1e-9, "window": 2, "twin": {"epochs": 1, "batch_size": 128}, "n_conditions": 4}


@pytest.mark.parametrize("command, cfg, key", [
    ("train", {"epochs": "x"}, "epochs"),
    ("train", {"batch_size": 2.5}, "batch_size"),
    ("train", {"base_lr": "fast"}, "base_lr"),
    ("train", {"log_every": True}, "log_every"),
    ("train", {"alpha": "x"}, "alpha"),
    ("train", {"collocation_size": "x"}, "collocation_size"),
    ("control", {**_HOLD, "horizon": "x"}, "horizon"),
    ("control", {**_HOLD, "n_steps": 1.5}, "n_steps"),
    ("control", {**_HOLD, "epsilon": [0.01]}, "epsilon"),
    ("control", {**_HOLD, "update_interval": "x"}, "update_interval"),
    ("diagnose", {"window": "x"}, "window"),
    ("diagnose", {"window": 0}, "window"),
    ("diagnose", {"zeta": "x"}, "zeta"),
    ("diagnose", {"multiplier": "x"}, "multiplier"),
    ("diagnose", {"percentile": 150.0}, "percentile"),
    ("diagnose", {**_TRIP, "twin": {"epochs": "x"}}, "epochs"),
    ("diagnose", {**_TRIP, "twin": {"base_lr": "x"}}, "base_lr"),
    ("diagnose", {**_TRIP, "n_conditions": 2.5}, "n_conditions"),
    ("diagnose", {**_TRIP, "conditions_seed": "x"}, "conditions_seed"),
    ("train", {"widths": ["a", 4, 4]}, "widths"),
    ("train", {"widths": [4.5, 4, 4]}, "widths"),
    ("train", {"widths": 5}, "widths"),
    ("train", {"widths": [4, 4]}, "widths"),
    ("control", {**_HOLD, "references": {"hold": ["x", 850.0]}}, "hold"),
    ("control", {**_HOLD, "references": ["hold"]}, "references"),
    ("control", {**_HOLD, "references": {"per_step": [[0.65, 850.0], [0.6]]}}, "per_step"),
    ("control", {**_HOLD, "references": {"knots": {"times": [0.0, "x"],
                                                   "values": [[0.65, 850.0], [0.6, 850.0]]}}}, "times"),
    ("control", {**_HOLD, "references": {"knots": {"times": [0.0, 10.0],
                                                   "values": [[0.65, 850.0], [0.6, None]]}}}, "values"),
    ("control", {**_HOLD, "references": {"knots": {"times": [0.0, 0.0],
                                                   "values": [[0.65, 850.0], [0.6, 850.0]]}}}, "times"),
    ("control", {**_HOLD, "q_weight": [[1, "a"], [0, 1]]}, "q_weight"),
    ("control", {**_HOLD, "q_weight": [1, 0, 0]}, "q_weight"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"type": "linear", "c": ["x"] + [0.0] * 11, "d": 1.0}]}]}, "'c'", id="control-linear_c_entry"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"type": "linear", "c": [1.0, 2.0], "d": 1.0}]}]}, "'c'", id="control-linear_c_length"),
    ("control", {**_HOLD, "schedule": [5]}, "schedule"),
    ("diagnose", {**_TRIP, "fault_span": ["x", 1.0]}, "fault_span"),
    ("diagnose", {**_TRIP, "fault_span": 3}, "fault_span"),
    ("diagnose", {"calibration_split": "bogus"}, "calibration_split"),
    pytest.param("control", {"references": {"per_step": [[0.65, 850.0]]}, "n_steps": 3,
                             "environment": "model"}, "n_steps", id="control-per_step_rows_unlike_n_steps"),
    pytest.param("train", {"epoch": 3}, "epoch", id="train-unknown_key"),
    pytest.param("train", [3], "expected a JSON object", id="train-not_an_object"),
    pytest.param("control", {**_HOLD, "horizn": 5, "update_intervall": 1}, "horizn", id="control-unknown_key"),
    pytest.param("control", {**_HOLD, "solver": {"substeps": 0.05}}, "substeps",
                 id="control-unknown_solver_key"),
    pytest.param("control", {**_HOLD, "references": {"hlod": [0.65, 850.0]}}, "hlod",
                 id="control-unknown_references_key"),
    pytest.param("control", {**_HOLD, "references": {"hold": [0.65, 850.0], "per_step": [[0.65, 850.0]] * 2}},
                 "exactly one", id="control-two_reference_forms"),
    pytest.param("control", {**_HOLD, "references": {"knots": {"times": [0.0, 10.0],
                                                               "value": [[0.65, 850.0], [0.6, 850.0]]}}},
                 "'value'", id="control-unknown_knots_key"),
    pytest.param("control", {**_HOLD, "schedule": [{"from": 0, "constraints": []}]}, "'from'",
                 id="control-unknown_schedule_entry_key"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"type": "temperature_cap", "station": 1, "cap_kelvin": 900.0}]}]}, "'station'",
                 id="control-unknown_temperature_cap_key"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"type": "linear", "c": [0.0] * 12, "d": 1.0, "D": 1.0}]}]}, "'D'", id="control-unknown_linear_key"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"station_index": 1, "cap_kelvin": 900.0, "name": ["a"]}]}]}, "'name'",
                 id="control-name_not_a_string"),
    pytest.param("diagnose", {"windw": 2}, "windw", id="diagnose-unknown_key"),
    pytest.param("diagnose", {"zeta": 1e6, "twin": {"epoch": 1}}, "'epoch'", id="diagnose-unknown_twin_key"),
    pytest.param("diagnose", {"zeta": 1e6, "fault_span": [4.0]}, "fault_span",
                 id="diagnose-fault_span_untripped"),
    pytest.param("diagnose", {"zeta": 1e6, "twin": {"epochs": 0}, "n_conditions": 0}, "epochs",
                 id="diagnose-twin_epochs_untripped"),
    pytest.param("diagnose", {"zeta": 1e6, "n_conditions": 0}, "n_conditions",
                 id="diagnose-n_conditions_untripped"),
    pytest.param("diagnose", {"zeta": 1e6, "fault_span": [5.0, 4.0]}, "fault_span",
                 id="diagnose-fault_span_reversed_untripped"),
    pytest.param("diagnose", {"zeta": 1e6, "fault_span": [100.0, 200.0]}, "fault_span",
                 id="diagnose-fault_span_off_the_grid_untripped"),
    pytest.param("diagnose", {"zeta": 1e6, "n_conditions": 10**6}, "n_conditions",
                 id="diagnose-n_conditions_above_the_corpus_untripped"),
    pytest.param("control", {**_HOLD, "epsilon": -1.0}, "epsilon", id="control-negative_epsilon"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"type": "linear", "c": [1.0] + [0.0] * 11, "d": 1.0},
        {"type": "linear", "c": [0.0, 1.0] + [0.0] * 10, "d": 1.0}]}]}, "'linear'",
                 id="control-repeated_default_linear_name"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"station_index": 1, "cap_kelvin": 900.0}, {"station_index": 1, "cap_kelvin": 880.0}]}]}, "'T_cap_1'",
                 id="control-repeated_default_cap_name"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"station_index": 1, "cap_kelvin": 900.0, "name": "hot"},
        {"station_index": 2, "cap_kelvin": 880.0, "name": "hot"}]}]}, "'hot'",
                 id="control-repeated_given_name"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"station_index": 1, "cap_kelvin": 900.0, "cap_celsius": 626.85}]}]}, "cap_kelvin or cap_celsius",
                 id="control-cap_in_kelvin_and_celsius"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [{"station_index": 1}]}]},
                 "'cap_kelvin'", id="control-cap_missing"),
    pytest.param("train", {"epochs": 3.0}, "'epochs'", id="train-integral_float_epochs"),
    pytest.param("control", {**_HOLD, "n_steps": 2.0}, "'n_steps'", id="control-integral_float_n_steps"),
    pytest.param("train", {"widths": [10**30, 4, 4]}, "'widths'", id="train-widths_beyond_int64"),
    pytest.param("train", {"base_lr": -0.01}, "'base_lr'", id="train-negative_base_lr"),
    pytest.param("diagnose", {**_TRIP, "twin": {**_TRIP["twin"], "base_lr": 0.0}}, "'base_lr'",
                 id="diagnose-zero_twin_base_lr"),
    pytest.param("control", {**_HOLD, "q_weight": [[1, 0], [0, -1]]}, "'q_weight' must be positive definite",
                 id="control-indefinite_q_weight"),
    pytest.param("control", {**_HOLD, "q_weight": [[1e308, 0], [0, 1e308]]}, "'q_weight' overflows",
                 id="control-overflowing_q_weight"),
    pytest.param("control", {**_HOLD, "q_weight": [[1e308, 1e308], [1e308, 1e308]]}, "'q_weight'",
                 id="control-overflowing_singular_q_weight"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"station_index": 1, "cap_kelvin": -5.0}]}]}, "'cap_kelvin' > 0", id="control-cap_kelvin_below_zero"),
    pytest.param("control", {**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"station_index": 1, "cap_celsius": -273.15}]}]}, "'cap_celsius' > -273.15",
                 id="control-cap_celsius_at_absolute_zero"),
])
def test_bad_config_values_exit_2(pipeline, tmp_path, capsys, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = {
        "train": ["train", "--data", pipeline["data"]],
        "control": ["control", "--model", pipeline["psm"], "--data", pipeline["data"]],
        "diagnose": ["diagnose", "--model", pipeline["psm"], "--data", pipeline["data"],
                     "--stream", pipeline["data"] / "records/exp_002.psmd"],
    }[command]
    rc = main([str(a) for a in argv] + ["--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "config error" in err and key in err
    assert not (tmp_path / "out" / "verdict.txt").exists()


@pytest.mark.parametrize("module, routine, command", [
    ("solver", "_brentq", "gen-data"),
    ("control", "_nnls", "control"),
], ids=["loop_mass_flux", "least_distance_qp"])
def test_solver_that_does_not_converge_exits_3(pipeline, tmp_path, capsys, monkeypatch, module, routine, command):
    # each routine may take no step, so a loop steady state or a projection cannot converge
    mod = importlib.import_module(f"flowpsm.{module}")
    monkeypatch.setattr(mod, routine, functools.partial(getattr(mod, routine), maxiter=0))
    cfg = tmp_path / "cfg.json"
    if command == "gen-data":
        cfg.write_text(json.dumps({"scenario": _LOOP, "n_train": 1, "n_test": 0}))
        argv, context = [], r"loop mass flux in \[.+\] kg/m\^2/s at pump head"
    else:
        cfg.write_text(json.dumps({**_HOLD, "references": {"hold": [0.65, 860.0]}, "schedule": [
            {"from_step": 0, "constraints": [{"type": "temperature_cap", "station_index": 1, "cap_kelvin": 855.0}]}]}))
        argv, context = ["--model", str(pipeline["psm"]), "--data", str(pipeline["data"])], r"QP over \d+ rows"
    rc = main([command, "--config", str(cfg), *argv, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert re.search(context + ".*did not converge in 0", err), err


def test_control_with_a_non_schur_linearization_exits_3(pipeline, tmp_path, capsys, monkeypatch):
    # the linearized state matrix is replaced by 1.05 I: the command names its spectral radius
    control = importlib.import_module("flowpsm.control")
    linearize = control.linearize

    def unstable(*args):
        ssm = linearize(*args)
        return dataclasses.replace(ssm, A=1.05 * np.eye(ssm.A.shape[0]))

    monkeypatch.setattr(control, "linearize", unstable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_HOLD, "schedule": [
        {"from_step": 0, "constraints": [{"station_index": 1, "cap_kelvin": 900.0}]}]}))
    rc = main(["control", "--config", str(cfg), "--model", str(pipeline["psm"]), "--data", str(pipeline["data"]),
               "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "state matrix is not Schur (spectral radius 1.0500)" in err


def test_control_per_step_rows_set_the_step_count(pipeline, tmp_path):
    rows = [[0.65, 850.0], [0.6, 845.0]]
    for extra in ({}, {"n_steps": 2}):
        cfg = tmp_path / "control.json"
        cfg.write_text(json.dumps({"references": {"per_step": rows}, "environment": "model", **extra}))
        out = tmp_path / f"roll{len(extra)}"
        assert main(["control", "--config", str(cfg), "--model", str(pipeline["psm"]),
                     "--data", str(pipeline["data"]), "--out", str(out)]) == 0
        with open(out / "rollout.csv", newline="") as fh:
            assert [float(r["r_T_in"]) for r in csv.DictReader(fh)] == [850.0, 845.0]


def _assert_io_error(rc, err, *names):
    assert rc == 4
    assert "Traceback" not in err
    assert "I/O error" in err
    for name in names:
        assert str(name) in err


def _assert_no_temp_file(out):
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_unwritable_preset_outputs_exit_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "x"):  # an existing file, a path through one
        rc = main(["preset", "--name", "loop", "--out", str(out)])
        _assert_io_error(rc, capsys.readouterr().err, out)
    for name in ("scenario.json", "manifest.json"):
        out = tmp_path / f"blocked_{name}"
        (out / name).mkdir(parents=True)
        rc = main(["preset", "--name", "loop", "--out", str(out)])
        _assert_io_error(rc, capsys.readouterr().err, out / name)
        _assert_no_temp_file(out)


@pytest.mark.parametrize("name", ["records", "scaling.json", "dataset.json"])
def test_unwritable_gen_data_outputs_exit_4(tmp_path, capsys, name):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"scenario": asdict(tiny_channel()), "n_train": 1, "n_test": 0}))
    out = tmp_path / "out"
    out.mkdir()
    blocked = out / name
    if name == "records":
        blocked.write_text("")  # a file where the records directory goes
    else:
        blocked.mkdir()
    rc = main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(out)])
    _assert_io_error(rc, capsys.readouterr().err, blocked)
    _assert_no_temp_file(out)


@pytest.mark.parametrize("command, name", [
    ("train", "checkpoint.psmw"), ("train", "metrics.csv"), ("eval", "rmse_table.csv"), ("control", "rollout.csv"),
    ("diagnose", "verdict.txt"), ("diagnose", "signature.csv"),
])
def test_unwritable_command_outputs_exit_4(pipeline, tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = tmp_path / "cfg.json"
    model_data = ["--model", str(pipeline["psm"]), "--data", str(pipeline["data"])]
    if command == "train":
        argv = ["--config", str(pipeline["train_cfg"]), "--data", str(pipeline["data"]), "--seed", "2"]
    elif command == "eval":
        argv = model_data
    elif command == "control":
        cfg.write_text(json.dumps(_HOLD))
        argv = ["--config", str(cfg), *model_data]
    else:  # a quiet stream writes no signature, so that case trips
        cfg.write_text(json.dumps(_TRIP if name == "signature.csv" else {"zeta": 1e6, "window": 2}))
        argv = ["--config", str(cfg), *model_data, "--stream", str(pipeline["data"] / "records/exp_002.psmd")]
    rc = main([command, *argv, "--out", str(out)])
    _assert_io_error(rc, capsys.readouterr().err, out / name)
    _assert_no_temp_file(out)


def test_manifest_records_when_the_command_started(pipeline, tmp_path):
    out = tmp_path / "eval"
    before = time.time()
    assert main(["eval", "--model", str(pipeline["psm"]), "--data", str(pipeline["data"]), "--out", str(out)]) == 0
    after = time.time()
    manifest = json.loads((out / "manifest.json").read_text())
    assert before <= manifest["started_unix"]
    assert manifest["started_unix"] + manifest["duration_s"] <= after + 0.001


def test_unwritable_arch_exits_4(pipeline, tmp_path, capsys):
    out = tmp_path / "model"
    (out / "arch.json").mkdir(parents=True)
    rc = main(["train", "--config", str(pipeline["train_cfg"]), "--data", str(pipeline["data"]),
               "--seed", "2", "--out", str(out)])
    _assert_io_error(rc, capsys.readouterr().err, out / "arch.json")
    _assert_no_temp_file(out)


def test_malformed_data_directories_exit_4(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / "dataset.json").write_text("{}\n")
    rc = main(["eval", "--model", str(pipeline["psm"]), "--data", str(data), "--out", str(tmp_path / "e1")])
    _assert_io_error(rc, capsys.readouterr().err, data / "dataset.json", "'scenario'")

    model = tmp_path / "model"
    shutil.copytree(pipeline["psm"], model)
    arch = json.loads((model / "arch.json").read_text())
    del arch["input_dim"]
    (model / "arch.json").write_text(json.dumps(arch))
    rc = main(["eval", "--model", str(model), "--data", str(pipeline["data"]), "--out", str(tmp_path / "e2")])
    _assert_io_error(rc, capsys.readouterr().err, model / "arch.json", "'input_dim'")

    bounds = [  # bounds that are not finite numbers, and control bounds that do not pair with the controls
        ("p_max", {"p_max": float("inf")}),
        ("T_max", {"T_max": True}),
        ("v_min", {"v_min": [0.5, 800.0, 1.0]}),
        ("v_min", {"v_min": [0.5]}),
        ("v_min", {"v_min": [0.5], "v_max": [0.8]}),
    ]
    for i, (key, edit) in enumerate(bounds):
        data = _edited_copy(pipeline["data"], tmp_path / f"data_{i}", "scaling.json",
                            lambda d: {**d, "scaling": {**d["scaling"], **edit}})
        for command in ("eval", "train"):
            given = ["--model", pipeline["psm"]] if command == "eval" else ["--config", pipeline["train_cfg"]]
            rc = main([command, *map(str, given), "--data", str(data), "--out", str(tmp_path / f"{command}_{i}")])
            _assert_io_error(rc, capsys.readouterr().err, data / "scaling.json", f"'{key}'")


def test_eval_on_a_cut_checkpoint_exits_4(pipeline, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(pipeline["psm"], model)
    ckpt = model / "checkpoint.psmw"
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    rc = main(["eval", "--model", str(model), "--data", str(pipeline["data"]), "--out", str(tmp_path / "e")])
    _assert_io_error(rc, capsys.readouterr().err, ckpt)


def test_dataset_scenario_the_constructor_rejects_exits_4(pipeline, tmp_path, capsys):
    data = _edited_copy(pipeline["data"], tmp_path / "data", "dataset.json",
                        lambda d: {**d, "scenario": {k: v for k, v in d["scenario"].items() if k != "fluid"}})
    rc = main(["eval", "--model", str(pipeline["psm"]), "--data", str(data), "--out", str(tmp_path / "e")])
    _assert_io_error(rc, capsys.readouterr().err, data / "dataset.json", "'fluid'")


def test_arch_the_constructor_rejects_exits_4(pipeline, tmp_path, capsys):
    model = _edited_copy(pipeline["psm"], tmp_path / "model", "arch.json", lambda d: {**d, "activation": 5})
    rc = main(["eval", "--model", str(model), "--data", str(pipeline["data"]), "--out", str(tmp_path / "e")])
    _assert_io_error(rc, capsys.readouterr().err, model / "arch.json", "unknown activation 5")


def test_non_finite_checkpoint_exits_4(pipeline, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(pipeline["psm"], model)
    arch = json.loads((model / "arch.json").read_text())
    spec = MlpSpec(**{k: arch[k] for k in ("input_dim", "head_width", "intermediate_width", "tail_width")})
    params = load_checkpoint(model / "checkpoint.psmw", spec)
    params.flat[3] = np.nan
    save_checkpoint(model / "checkpoint.psmw", params)
    cfg = tmp_path / "control.json"
    cfg.write_text(json.dumps({**_HOLD, "schedule": [{"from_step": 0, "constraints": [
        {"type": "temperature_cap", "station_index": 1, "cap_kelvin": 900.0}]}]}))
    rc = main(["control", "--config", str(cfg), "--model", str(model), "--data", str(pipeline["data"]),
               "--out", str(tmp_path / "roll")])
    _assert_io_error(rc, capsys.readouterr().err, model / "checkpoint.psmw", "non-finite parameter")


def test_scaling_of_another_scenario_exits_4(pipeline, tmp_path, capsys):
    data = _edited_copy(pipeline["data"], tmp_path / "data", "scaling.json",
                        lambda d: {**d, "scenario_hash": "0" * 64})
    rc = main(["eval", "--model", str(pipeline["psm"]), "--data", str(data), "--out", str(tmp_path / "e")])
    _assert_io_error(rc, capsys.readouterr().err, data / "scaling.json", "does not match the scenario")


def _edited_copy(src, dst, name, edit):
    """A copy of directory ``src`` whose JSON file ``name`` is rewritten by ``edit(doc)``."""
    shutil.copytree(src, dst)
    doc = json.loads((dst / name).read_text())
    (dst / name).write_text(json.dumps(edit(doc)))
    return dst


def test_data_file_that_is_not_json_exits_4(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / "dataset.json").write_text('{"scenario": ')
    rc = main(["eval", "--model", str(pipeline["psm"]), "--data", str(data), "--out", str(tmp_path / "e1")])
    _assert_io_error(rc, capsys.readouterr().err, data / "dataset.json", "malformed JSON")

    model = tmp_path / "model"
    shutil.copytree(pipeline["psm"], model)
    (model / "arch.json").write_bytes(b"\xff\xfe")
    rc = main(["eval", "--model", str(model), "--data", str(pipeline["data"]), "--out", str(tmp_path / "e2")])
    _assert_io_error(rc, capsys.readouterr().err, model / "arch.json", "malformed JSON")

    data = tmp_path / "data2"
    shutil.copytree(pipeline["data"], data)
    (data / "scaling.json").write_bytes(b"\xff\xfe")
    rc = main(["eval", "--model", str(pipeline["psm"]), "--data", str(data), "--out", str(tmp_path / "e3")])
    _assert_io_error(rc, capsys.readouterr().err, data / "scaling.json", "malformed scaling manifest")


@pytest.mark.parametrize("key, value", [("train_records", 3), ("test_records", ["a", 1])],
                         ids=["train_records_a_number", "test_records_not_all_strings"])
def test_record_lists_that_are_not_strings_exit_4(pipeline, tmp_path, capsys, key, value):
    data = _edited_copy(pipeline["data"], tmp_path / "data", "dataset.json", lambda d: {**d, key: value})
    rc = main(["eval", "--model", str(pipeline["psm"]), "--data", str(data), "--out", str(tmp_path / "e")])
    _assert_io_error(rc, capsys.readouterr().err, data / "dataset.json", repr(key), "a list of strings")


def test_commands_load_only_the_record_files_they_read(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    stream = str(pipeline["data"] / "records/exp_002.psmd")
    (data / "records/exp_002.psmd").unlink()  # the test split
    rc = main(["train", "--config", str(pipeline["train_cfg"]), "--data", str(data), "--seed", "2",
               "--out", str(tmp_path / "m")])
    assert rc == 0
    assert file_digest(tmp_path / "m/checkpoint.psmw") == file_digest(pipeline["psm"] / "checkpoint.psmw")
    rc = main(["eval", "--model", str(pipeline["psm"]), "--data", str(data), "--split", "train",
               "--out", str(tmp_path / "e1")])
    assert rc == 0
    rc = main(["eval", "--model", str(pipeline["psm"]), "--data", str(data), "--out", str(tmp_path / "e2")])
    _assert_io_error(rc, capsys.readouterr().err, data / "records/exp_002.psmd")

    # with no record file left, control reads none, and nor does diagnose given zeta on a quiet stream
    for rel in ("records/exp_000.psmd", "records/exp_001.psmd"):
        (data / rel).unlink()
    cfg = tmp_path / "control.json"
    cfg.write_text(json.dumps(_HOLD))
    rc = main(["control", "--config", str(cfg), "--model", str(pipeline["psm"]), "--data", str(data),
               "--out", str(tmp_path / "roll")])
    assert rc == 0
    cfg = tmp_path / "diag.json"
    cfg.write_text(json.dumps({"zeta": 1e6, "window": 2}))
    rc = main(["diagnose", "--config", str(cfg), "--model", str(pipeline["psm"]), "--data", str(data),
               "--stream", stream, "--out", str(tmp_path / "quiet")])
    assert rc == 0
    cfg.write_text(json.dumps({"window": 2}))  # zeta calibrated on the missing test split
    rc = main(["diagnose", "--config", str(cfg), "--model", str(pipeline["psm"]), "--data", str(data),
               "--stream", stream, "--out", str(tmp_path / "calibrated")])
    _assert_io_error(rc, capsys.readouterr().err, data / "records/exp_002.psmd")


@pytest.mark.parametrize("value", ["x", 8.5, True], ids=["string", "fraction", "boolean"])
def test_arch_width_that_is_not_an_integer_exits_4(pipeline, tmp_path, capsys, value):
    model = _edited_copy(pipeline["psm"], tmp_path / "model", "arch.json", lambda d: {**d, "head_width": value})
    rc = main(["eval", "--model", str(model), "--data", str(pipeline["data"]), "--out", str(tmp_path / "e")])
    _assert_io_error(rc, capsys.readouterr().err, model / "arch.json", "'head_width'", "an integer")


def test_config_that_is_not_json_still_exits_2(pipeline, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text("{")
    rc = main(["train", "--config", str(cfg), "--data", str(pipeline["data"]), "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_out_dir_is_config_error(pipeline, capsys, monkeypatch):
    monkeypatch.delenv("FLOWPSM_OUT", raising=False)
    rc = main(["preset", "--name", "loop"])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["homoscedastic:nan", "heteroscedastic:inf"])
def test_non_finite_noise_flag_exits_2(pipeline, tmp_path, capsys, flag):
    rc = main(["train", "--config", str(pipeline["train_cfg"]), "--data", str(pipeline["data"]),
               "--noise", flag, "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "config error" in err and "finite" in err


def test_noise_from_flag():
    spec = _noise_from_flag("homoscedastic:0.01")
    assert spec == NoiseSpec(mode="homoscedastic", sigma=0.01)
    assert _noise_from_flag("none") == NoiseSpec()
    with pytest.raises(ConfigError):
        _noise_from_flag("homoscedastic")
    with pytest.raises(ConfigError):
        _noise_from_flag("white:0.1")
    with pytest.raises(ConfigError):
        _noise_from_flag("homoscedastic:abc")


def test_console_script_version():
    # run the declared entry point in a fresh interpreter, as the wrapper
    # that pip generates for [project.scripts] does
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    module, func = project["scripts"]["flowpsm"].split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    out = subprocess.run([sys.executable, "-c", code, "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"flowpsm {project['version']}"


def _scipy_modules_after(code: str, *args) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code`` (this process has scipy loaded)."""
    report = "\nprint('scipy:', *sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code + report, *map(str, args)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1].split()[1:]


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after("import flowpsm.cli") == []


def test_heated_channel_chain_loads_no_scipy(tmp_path):
    # preset, gen-data, train and eval need no root finder and no QP
    chain = """
import json
import math
from pathlib import Path
from flowpsm.cli import main
root = Path(sys.argv[1])
assert main(["preset", "--name", "heated_channel", "--out", str(root / "preset")]) == 0
scenario = json.loads((root / "preset" / "scenario.json").read_text())
scenario["episode_duration"] = 20.0
(root / "gen.json").write_text(json.dumps({"scenario": scenario, "n_train": 1, "n_test": 1}))
(root / "train.json").write_text(json.dumps(
    {"widths": [8, 6, 4], "epochs": 2, "batch_size": 64, "collocation_size": 16, "log_every": 0}))
assert main(["gen-data", "--config", str(root / "gen.json"), "--out", str(root / "data")]) == 0
assert main(["train", "--config", str(root / "train.json"), "--data", str(root / "data"),
             "--out", str(root / "psm")]) == 0
assert main(["eval", "--model", str(root / "psm"), "--data", str(root / "data"),
             "--out", str(root / "eval")]) == 0
"""
    assert _scipy_modules_after(chain, tmp_path) == []
    assert (tmp_path / "eval" / "rmse_table.csv").is_file()


def test_loop_gen_data_and_projecting_control_load_no_scipy(pipeline, tmp_path):
    # the loop's root finder and the governor's NNLS are the package's own
    chain = """
import csv
import json
import math
from dataclasses import asdict, replace
from pathlib import Path
from flowpsm.cli import main
from flowpsm.transport import loop_preset
root, psm, data = (Path(a) for a in sys.argv[1:4])
scenario = asdict(replace(loop_preset(), episode_duration=10.0))
(root / "gen.json").write_text(json.dumps({"scenario": scenario, "n_train": 1, "n_test": 0}))
assert main(["gen-data", "--config", str(root / "gen.json"), "--out", str(root / "loop")]) == 0
(root / "control.json").write_text(json.dumps({
    "references": {"hold": [0.65, 860.0]}, "n_steps": 2, "environment": "model", "horizon": 20,
    "schedule": [{"from_step": 0, "constraints": [
        {"type": "temperature_cap", "station_index": 1, "cap_kelvin": 855.0}]}]}))
assert main(["control", "--config", str(root / "control.json"), "--model", str(psm), "--data", str(data),
             "--out", str(root / "control")]) == 0
with open(root / "control" / "rollout.csv", newline="") as fh:
    statuses = {row["status"] for row in csv.DictReader(fh)}
assert statuses & {"ok", "fallback_infeasible"}, statuses  # the least-distance QP ran
"""
    assert _scipy_modules_after(chain, tmp_path, pipeline["psm"], pipeline["data"]) == []


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(flowpsm.__path__):
        module = importlib.import_module(f"flowpsm.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"flowpsm.{info.name}.__all__ names missing {name!r}"


@pytest.mark.skipif(shutil.which("flowpsm") is None, reason="flowpsm is not installed on PATH")
def test_installed_console_script_version():
    out = subprocess.run([shutil.which("flowpsm"), "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip().startswith("flowpsm")
