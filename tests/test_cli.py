"""End-to-end CLI pipeline on a tiny scenario, plus exit-code contracts."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowpsm.cli import _kelvin, _noise_from_flag, main
from flowpsm.formats import file_digest
from flowpsm.training import NoiseSpec
from flowpsm.transport import (
    ConfigError,
    heated_channel_preset,
    scenario_fingerprint,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import tiny_channel


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + psm/ann training shared by the command tests below."""
    root = tmp_path_factory.mktemp("cli")
    scenario = tiny_channel()
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps({
        "scenario": scenario_to_dict(scenario),
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
        "scenario": scenario_to_dict(tiny_channel()),
        "n_train": 1,
        "n_test": 0,
        "solver": {"max_iters": 1},
    }))
    rc = main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("extra, key", [
    ({"n_train": "x"}, "n_train"),
    ({"degradation": [1, 10.0]}, "degradation"),
    ({"degradation": {"segment_index": 1}}, "friction_multiplier"),
    ({"degradation": {"segment_index": "x", "friction_multiplier": 10.0}}, "segment_index"),
    ({"solver": {"substep": "x"}}, "substep"),
    ({"solver": {"max_iters": 2.5}}, "max_iters"),
    ({"solver": 0.05}, "solver"),
], ids=["n_train_not_a_number", "degradation_not_an_object",
        "degradation_without_multiplier", "segment_index_not_a_number",
        "substep_not_a_number", "max_iters_not_an_integer", "solver_not_an_object"])
def test_gen_data_bad_config_values_exit_2(tmp_path, capsys, extra, key):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"scenario": scenario_to_dict(tiny_channel()),
                               "n_train": 1, "n_test": 0, **extra}))
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "config error" in err and key in err


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


@pytest.mark.parametrize("name", ["records", "scaling.json", "dataset.json"])
def test_unwritable_gen_data_outputs_exit_4(tmp_path, capsys, name):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"scenario": scenario_to_dict(tiny_channel()), "n_train": 1, "n_test": 0}))
    out = tmp_path / "out"
    out.mkdir()
    blocked = out / name
    if name == "records":
        blocked.write_text("")  # a file where the records directory goes
    else:
        blocked.mkdir()
    rc = main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(out)])
    _assert_io_error(rc, capsys.readouterr().err, blocked)


def test_unwritable_arch_exits_4(pipeline, tmp_path, capsys):
    out = tmp_path / "model"
    (out / "arch.json").mkdir(parents=True)
    rc = main(["train", "--config", str(pipeline["train_cfg"]), "--data", str(pipeline["data"]),
               "--seed", "2", "--out", str(out)])
    _assert_io_error(rc, capsys.readouterr().err, out / "arch.json")


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


def test_missing_out_dir_is_config_error(pipeline, capsys, monkeypatch):
    monkeypatch.delenv("FLOWPSM_OUT", raising=False)
    rc = main(["preset", "--name", "loop"])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


def test_kelvin_and_noise_helpers():
    assert _kelvin({"cap_kelvin": 900.0}, "cap") == 900.0
    assert _kelvin({"cap_celsius": 0.0}, "cap") == pytest.approx(273.15)
    with pytest.raises(ConfigError):
        _kelvin({"cap_kelvin": 1.0, "cap_celsius": 1.0}, "cap")
    with pytest.raises(ConfigError):
        _kelvin({}, "cap")
    assert _kelvin({}, "cap", required=False) is None

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


@pytest.mark.skipif(shutil.which("flowpsm") is None, reason="flowpsm is not installed on PATH")
def test_installed_console_script_version():
    out = subprocess.run([shutil.which("flowpsm"), "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip().startswith("flowpsm")
