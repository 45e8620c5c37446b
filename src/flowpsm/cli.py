"""Command-line front end for the transport-model toolkit.

Subcommands cover the pipeline end to end: preset export, corpus generation,
training, evaluation, governed control rollouts, and fault diagnosis. All
numeric parameters live in JSON config files; flags carry only paths, seeds,
and mode toggles. Every command writes a manifest.json with input and output
digests so reruns under a fixed seed can be verified byte for byte.

Temperatures are Kelvin internally; config keys documented as *_kelvin also
accept a *_celsius variant which is converted on read.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .control import (
    CgConfig,
    Constraint,
    ConstraintSchedule,
    ConstraintSet,
    ncg_rollout,
    temperature_cap,
)
from .diagnostics import (
    DetectorConfig,
    calibrate_zeta,
    detect,
    localization_ratio,
    prediction_errors,
    sample_conditions,
    signature,
    span_mask,
    transfer_learn_twin,
    twin_config,
)
from .errors import DataIoError, NumericalError
from .formats import (
    RunManifest,
    file_digest,
    load_checkpoint,
    load_json,
    load_record,
    load_scaling,
    mlp_fingerprint,
    record_to_csv,
    save_checkpoint,
    save_record,
    save_scaling,
    write_json,
    write_metrics,
    write_rollout_log,
    write_signature_csv,
    write_text,
)
from .network import MlpSpec, ParamStore, init_params
from .solver import (
    SolverConfig,
    generate_trajectories,
    inject_degradation,
    run_experiments,
    steady_state,
)
from .training import (
    NoiseSpec,
    TrainConfig,
    assemble_dataset,
    compute_scaling,
    evaluate_records,
    input_layout,
    mlp_for_scenario,
    train,
)
from .transport import (
    ConfigError,
    build_grid,
    from_document,
    heated_channel_preset,
    loop_preset,
    reject_unknown_keys,
    scenario_fingerprint,
    scenario_from_dict,
)

_PRESETS = {"heated_channel": heated_channel_preset, "loop": loop_preset}


# ===================== shared plumbing =====================


def _mkdir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIoError(f"cannot create directory {path}: {exc}") from exc
    return path


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("FLOWPSM_OUT")
    if not out:
        raise ConfigError("no output directory: pass --out or set FLOWPSM_OUT")
    return _mkdir(Path(out))


_KINDS = {
    "an object": lambda x: isinstance(x, dict),
    "a list of strings": lambda x: isinstance(x, list) and all(isinstance(p, str) for p in x),
}


def _load_document(path, keys: dict) -> dict:
    """A JSON object data file whose every key in ``keys`` holds the named kind, else a DataIoError."""
    doc = load_json(path, DataIoError)
    for key, kind in keys.items():
        if key not in doc:
            raise DataIoError(f"{path}: missing key {key!r}")
        if not _KINDS[kind](doc[key]):
            raise DataIoError(f"{path}: {key!r} must be {kind}, got {doc[key]!r}")
    return doc


def _kelvin(cfg: dict, base: str, required: bool = True) -> float | None:
    """Read a temperature that may be given as <base>_kelvin or <base>_celsius."""
    k_key, c_key = f"{base}_kelvin", f"{base}_celsius"
    if k_key in cfg and c_key in cfg:
        raise ConfigError(f"give either {k_key} or {c_key}, not both")
    if k_key in cfg:
        return _number(cfg, k_key, float)
    if c_key in cfg:
        return _number(cfg, c_key, float) + 273.15
    if required:
        raise ConfigError(f"missing {k_key} (or {c_key})")
    return None


def _number(cfg: dict, key: str, kind, default=None):
    """cfg[key] (required without a default) as int or float, else a ConfigError.

    JSON numbers only: a string, a boolean, a non-finite value, or a
    fractional value for an int key is rejected.
    """
    if default is None and key not in cfg:
        raise ConfigError(f"missing {key!r}")
    value = cfg.get(key, default)
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = math.isfinite(value) and (kind is float or value.is_integer())
    if not ok:
        raise ConfigError(f"{key!r} must be given as {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    return kind(value)


def _given(cfg: dict, kinds: dict) -> dict:
    """The keys of ``kinds`` that ``cfg`` gives, each read by ``_number`` as its kind.

    A key left out keeps the default of the dataclass or function it is
    passed to, so that default is declared once, by its owner.
    """
    return {key: _number(cfg, key, kind) for key, kind in kinds.items() if key in cfg}


# Config keys passed through to the owner named in the comment, which holds their defaults.
_TRAIN_KEYS = {"alpha": float, "beta": float, "epochs": int, "batch_size": int, "base_lr": float,
               "collocation_size": int}  # TrainConfig
_GOVERNOR_KEYS = {"horizon": int, "epsilon": float, "update_interval": int}  # CgConfig
_CALIBRATION_KEYS = {"multiplier": float, "percentile": float}  # calibrate_zeta
_TWIN_KEYS = {"base_lr": float, "epochs": int, "batch_size": int, "seed": int}  # twin_config


def _numbers(cfg: dict, key: str, shape: tuple | None, kind=float, default=None) -> np.ndarray:
    """cfg[key] (required without a default) as an array of JSON numbers.

    Each entry is checked as by ``_number``. ``shape`` is the required
    shape, with None for a free length, or None for any rectangular shape.
    A scalar where an array is due, a ragged or mis-shaped array, or a bad
    entry is a ConfigError naming the key.
    """
    if default is None and key not in cfg:
        raise ConfigError(f"missing {key!r}")
    value = cfg.get(key, default)
    try:
        arr = np.array(value, dtype=object)
    except ValueError:  # ragged in a way numpy cannot hold as objects
        arr = np.array(None, dtype=object)
    if shape is not None and (arr.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, arr.shape))):
        dims = ", ".join("n" if n is None else str(n) for n in shape) + ("," if len(shape) == 1 else "")
        raise ConfigError(f"{key!r} must be an array of numbers of shape ({dims}), got {value!r}")
    return np.array([_number({key: x}, key, kind) for x in arr.flat], dtype=kind).reshape(arr.shape)


def _object(cfg: dict, key: str, default=None) -> dict:
    """cfg[key] (required without a default) as a JSON object, else a ConfigError."""
    if default is None and key not in cfg:
        raise ConfigError(f"missing {key!r}")
    value = cfg.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be an object, got {value!r}")
    return value


def _scenario_from_config(cfg: dict):
    if ("preset" in cfg) == ("scenario" in cfg):
        raise ConfigError("config must contain exactly one of 'preset' or 'scenario'")
    if "preset" in cfg:
        name = cfg["preset"]
        if not isinstance(name, str) or name not in _PRESETS:
            raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
        scenario = _PRESETS[name]()
    else:
        scenario = scenario_from_dict(cfg["scenario"])
    if cfg.get("degradation") is not None:
        deg = _object(cfg, "degradation")
        reject_unknown_keys(deg, ("segment_index", "friction_multiplier"), "degradation")
        scenario = inject_degradation(
            scenario, _number(deg, "segment_index", int), _number(deg, "friction_multiplier", float)
        )
    return scenario


def _solver_config(cfg: dict) -> SolverConfig:
    solver = _object(cfg, "solver", {})
    reject_unknown_keys(solver, ("substep",), "solver")
    return SolverConfig(**_given(solver, {"substep": float}))


def _write_manifest(outdir: Path, command: str, config_path, seed, inputs: dict, outputs: dict,
                    t0: float) -> None:
    manifest = RunManifest(
        command=command,
        config_path=None if config_path is None else str(config_path),
        seed=seed,
        tool_version=__version__,
        started_unix=t0,
        input_digests={k: file_digest(v) for k, v in inputs.items()},
        output_digests={k: file_digest(v) for k, v in outputs.items()},
        duration_s=round(time.time() - t0, 3),
    )
    manifest.save(outdir / "manifest.json")


def _read_dataset(data_dir) -> dict:
    """The data directory's scenario and scaling, checked; ``_load_split`` reads its records."""
    data_dir = Path(data_dir)
    path = data_dir / "dataset.json"
    doc = _load_document(path, {"scenario": "an object",
                                "train_records": "a list of strings",
                                "test_records": "a list of strings"})
    try:
        scenario = scenario_from_dict(doc["scenario"])
    except ConfigError as exc:  # the file's contents, not the user's config
        raise DataIoError(f"{path}: {exc}") from exc
    scaling, scaling_hash = load_scaling(data_dir / "scaling.json")
    if scaling_hash != scenario_fingerprint(scenario):
        raise DataIoError(f"{data_dir / 'scaling.json'}: scaling manifest does not match the scenario "
                          f"in {path}")
    return {
        "dir": data_dir,
        "inputs": {name: data_dir / name for name in ("dataset.json", "scaling.json")},
        "scenario": scenario,
        "scaling": scaling,
        "splits": {"train": doc["train_records"], "test": doc["test_records"]},
    }


def _load_split(data: dict, split: str) -> list:
    """The records of the dataset's "train" or "test" split, loaded where a command uses them."""
    return [load_record(data["dir"] / p) for p in data["splits"][split]]


def _read_model(model_dir) -> ParamStore:
    """The model directory's trained store, its architecture read from arch.json."""
    model_dir = Path(model_dir)
    path = model_dir / "arch.json"
    arch = load_json(path, DataIoError)
    names = {f.name for f in fields(MlpSpec)}  # the rest of arch.json is provenance
    try:
        spec = from_document(MlpSpec, {k: v for k, v in arch.items() if k in names}, "architecture")
    except ConfigError as exc:  # the file's contents, not the user's config
        raise DataIoError(f"{path}: {exc}") from exc
    return load_checkpoint(model_dir / "checkpoint.psmw", spec)


def _noise_from_flag(flag: str) -> NoiseSpec:
    if flag == "none":
        return NoiseSpec()
    mode, _, value = flag.partition(":")
    if not value:
        raise ConfigError(f"noise spec {flag!r} needs a value, e.g. homoscedastic:0.01")
    try:
        x = float(value)
    except ValueError as exc:
        raise ConfigError(f"noise spec {flag!r}: bad number {value!r}") from exc
    if mode == "homoscedastic":
        return NoiseSpec(mode=mode, sigma=x)
    if mode == "heteroscedastic":
        return NoiseSpec(mode=mode, xi=x)
    raise ConfigError(f"unknown noise mode {mode!r}")


# ===================== gen-data =====================


def cmd_gen_data(args) -> None:
    t0 = time.time()
    cfg = load_json(args.config)
    reject_unknown_keys(cfg, ("preset", "scenario", "degradation", "solver", "n_train", "n_test",
                              "export_csv"), "gen-data config")
    outdir = _out_dir(args)
    scenario = _scenario_from_config(cfg)
    solver_cfg = _solver_config(cfg)
    n_train = _number(cfg, "n_train", int, 16)
    n_test = _number(cfg, "n_test", int, 4)
    if n_train < 1 or n_test < 0:
        raise ConfigError("need n_train >= 1 and n_test >= 0")
    export_csv = cfg.get("export_csv", False)
    if not isinstance(export_csv, bool):
        raise ConfigError(f"'export_csv' must be true or false, got {export_csv!r}")
    n_total = n_train + n_test
    trajectories = generate_trajectories(args.seed, scenario, n_total)

    records = run_experiments(scenario, trajectories,
                              [steady_state(scenario, traj.value(0.0)) for traj in trajectories], solver_cfg)

    _mkdir(outdir / "records")
    rel_paths = []
    outputs = {}
    for i, rec in enumerate(records):
        rel = f"records/exp_{i:03d}.psmd"
        save_record(outdir / rel, rec)
        rel_paths.append(rel)
        outputs[rel] = outdir / rel
        if export_csv:
            csv_rel = f"records/exp_{i:03d}.csv"
            record_to_csv(outdir / csv_rel, rec)
            outputs[csv_rel] = outdir / csv_rel

    scaling = compute_scaling(records[:n_train], scenario)
    save_scaling(outdir / "scaling.json", scaling, scenario_fingerprint(scenario))
    doc = {
        "scenario": asdict(scenario),
        "seed": args.seed,
        "n_train": n_train,
        "n_test": n_test,
        "delta_t": scenario.delta_t,
        "train_records": rel_paths[:n_train],
        "test_records": rel_paths[n_train:],
    }
    write_json(outdir / "dataset.json", doc)
    outputs["scaling.json"] = outdir / "scaling.json"
    outputs["dataset.json"] = outdir / "dataset.json"
    _write_manifest(outdir, "gen-data", args.config, args.seed,
                    {"config": args.config}, outputs, t0)
    print(f"gen-data: {n_train} train + {n_test} test records -> {outdir}")


# ===================== train =====================


def cmd_train(args) -> None:
    t0 = time.time()
    cfg = load_json(args.config)
    reject_unknown_keys(cfg, ("widths", "log_every", *_TRAIN_KEYS), "train config")
    widths = _numbers(cfg, "widths", (3,), int).tolist() if "widths" in cfg else ()
    weights = {"alpha": 1.0, "beta": 0.0} if args.mode == "ann" else {}
    config = TrainConfig(**{**_given(cfg, _TRAIN_KEYS), **weights}, seed=args.seed)
    log_every = _number(cfg, "log_every", int, 25)
    noise = _noise_from_flag(args.noise)
    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    scenario, scaling = data["scenario"], data["scaling"]

    spec = mlp_for_scenario(scenario, widths)
    dataset = assemble_dataset(_load_split(data, "train"), scenario, scaling)
    params, history = train(init_params(spec, config.seed), dataset, scenario, scaling, config, noise,
                            log_every=log_every)

    save_checkpoint(outdir / "checkpoint.psmw", params)
    write_metrics(outdir / "metrics.csv",
                  [(h["epoch"], h["loss_measurement"], h["loss_physics"],
                    h["loss_total"], h["learning_rate"]) for h in history])
    arch = {
        **asdict(spec),
        "fingerprint": mlp_fingerprint(spec),
        "mode": args.mode,
        "noise": args.noise,
        "seed": args.seed,
        "scenario_hash": scenario_fingerprint(scenario),
    }
    write_json(outdir / "arch.json", arch)
    outputs = {
        "checkpoint.psmw": outdir / "checkpoint.psmw",
        "metrics.csv": outdir / "metrics.csv",
        "arch.json": outdir / "arch.json",
    }
    _write_manifest(outdir, "train", args.config, args.seed, {"config": args.config, **data["inputs"]},
                    outputs, t0)
    last = history[-1]
    print(f"train[{args.mode}]: {config.epochs} epochs, final L_m {last['loss_measurement']:.3e} "
          f"L_p {last['loss_physics']:.3e} L_total {last['loss_total']:.3e} -> {outdir}")


# ===================== eval =====================


def cmd_eval(args) -> None:
    t0 = time.time()
    outdir = _out_dir(args)
    if not 1 <= len(args.model) <= 2:
        raise ConfigError("eval takes one or two --model directories")
    data = _read_dataset(args.data)
    if not data["splits"][args.split]:
        raise ConfigError(f"dataset has no {args.split} records")
    records = _load_split(data, args.split)

    names, tables = [], []
    for model_dir in args.model:
        params = _read_model(model_dir)
        name = Path(model_dir).name or "model"
        while name in names:
            name += "_b"
        names.append(name)
        tables.append(evaluate_records(params, data["scenario"], data["scaling"], records))

    stats = ("mean_rmse", "max_rmse", "overall_rmse")
    rows = [["field", "statistic"] + names + (["ratio"] if len(names) == 2 else [])]  # header first
    for fld in ("p", "u", "T"):
        for stat in stats:
            vals = [t[fld][stat] for t in tables]
            row = [fld, stat.replace("_rmse", "")] + [f"{v:.6g}" for v in vals]
            if len(vals) == 2:
                row.append(f"{vals[0] / vals[1]:.4f}" if vals[1] else "inf")
            rows.append(row)
    write_text(outdir / "rmse_table.csv", "".join(",".join(row) + "\n" for row in rows))

    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    models = {f"model_{n}": Path(d) / "checkpoint.psmw" for n, d in zip(names, args.model)}
    _write_manifest(outdir, "eval", None, None, {**models, **data["inputs"]},
                    {"rmse_table.csv": outdir / "rmse_table.csv"}, t0)


# ===================== control =====================


def _build_references(cfg: dict, scenario) -> np.ndarray:
    lay = input_layout(scenario)
    n_steps = _number(cfg, "n_steps", int, round(scenario.episode_duration / scenario.delta_t))
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    ref = _object(cfg, "references")
    reject_unknown_keys(ref, ("hold", "per_step", "knots"), "references")
    if len(ref) != 1:
        raise ConfigError("references must give exactly one of 'hold', 'per_step' or 'knots', "
                          f"got {sorted(ref)}")
    p = lay.n_controls
    if "hold" in ref:
        return np.tile(_numbers(ref, "hold", (p,)), (n_steps, 1))
    if "per_step" in ref:
        rows = _numbers(ref, "per_step", (None, p))
        if "n_steps" in cfg and rows.shape[0] != n_steps:
            raise ConfigError(f"'n_steps' is {n_steps} but 'per_step' has {rows.shape[0]} rows")
        return rows
    knots = _object(ref, "knots")
    reject_unknown_keys(knots, ("times", "values"), "knots")
    times = _numbers(knots, "times", (None,))
    values = _numbers(knots, "values", (times.size, p))
    if np.any(np.diff(times) <= 0.0):
        raise ConfigError(f"knot 'times' must increase strictly, got {times.tolist()}")
    tk = np.arange(n_steps) * scenario.delta_t
    return np.column_stack([np.interp(tk, times, values[:, j]) for j in range(p)])


def _objects(cfg: dict, key: str) -> list:
    """cfg[key] as a JSON array of objects (empty when absent), else a ConfigError."""
    value = cfg.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ConfigError(f"{key!r} must be an array of objects, got {value!r}")
    return value


def _build_schedule(cfg: dict, scenario, scaling) -> tuple[ConstraintSchedule, dict]:
    n_state = input_layout(scenario).n_state
    entries = []
    temperature_rows = {}
    for entry in _objects(cfg, "schedule"):
        reject_unknown_keys(entry, ("from_step", "constraints"), "schedule entry")
        rows = []
        for c in _objects(entry, "constraints"):
            kind = c.get("type", "temperature_cap")
            name = c.get("name", "")
            if not isinstance(name, str):
                raise ConfigError(f"a constraint's 'name' must be a string, got {name!r}")
            if kind == "temperature_cap":
                reject_unknown_keys(c, ("type", "name", "station_index", "cap_kelvin", "cap_celsius"),
                                    "temperature_cap constraint")
                cap = _kelvin(c, "cap")
                station = _number(c, "station_index", int)
                row = temperature_cap(scenario, scaling, station, cap,
                                      name=name or f"T_cap_{station}")
                temperature_rows[row.name] = cap
            elif kind == "linear":
                reject_unknown_keys(c, ("type", "name", "c", "d"), "linear constraint")
                row = Constraint(c=tuple(_numbers(c, "c", (n_state,)).tolist()), d=_number(c, "d", float),
                                 name=name or "linear")
            else:
                raise ConfigError(f"unknown constraint type {kind!r}")
            rows.append(row)
        entries.append((_number(entry, "from_step", int), ConstraintSet(rows=tuple(rows))))
    entries.sort(key=lambda e: e[0])
    return ConstraintSchedule(entries=tuple(entries)), temperature_rows


def _q_weight(cfg: dict, p: int) -> tuple | None:
    """The (p, p) input weighting, given as a matrix or its rows end to end, or None."""
    if cfg.get("q_weight") is None:
        return None
    q = _numbers(cfg, "q_weight", None)
    if q.size != p * p:
        raise ConfigError(f"'q_weight' must hold {p} x {p} entries, got {q.size}")
    return tuple(q.ravel().tolist())


def cmd_control(args) -> None:
    t0 = time.time()
    cfg = load_json(args.config)
    reject_unknown_keys(cfg, ("references", "n_steps", "schedule", "q_weight", "environment", "solver",
                              *_GOVERNOR_KEYS), "control config")
    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    params = _read_model(args.model)
    scenario, scaling = data["scenario"], data["scaling"]

    references = _build_references(cfg, scenario)
    schedule, temperature_rows = _build_schedule(cfg, scenario, scaling)
    gov = CgConfig(**_given(cfg, _GOVERNOR_KEYS), q_weight=_q_weight(cfg, scenario.n_controls))
    environment = {"environment": cfg["environment"]} if "environment" in cfg else {}
    log = ncg_rollout(params, scenario, scaling, references, schedule,
                      config=gov, solver_config=_solver_config(cfg), **environment)
    write_rollout_log(outdir / "rollout.csv", log.steps,
                      control_names=scenario.control_channels,
                      output_names=log.output_names)
    statuses = {}
    for row in log.steps:
        statuses[row["status"]] = statuses.get(row["status"], 0) + 1
    print(f"control: {len(log.steps)} steps, {log.relinearizations} linearizations, "
          f"statuses {statuses}")
    for j, name in enumerate(log.output_names):
        worst = max(
            (row["outputs"][j] - row["bounds"][j] for row in log.steps
             if row["bounds"][j] is not None),
            default=None,
        )
        if worst is None:
            continue
        line = f"  bound {name}: max(y - d) = {worst:.3e} scaled"
        if name in temperature_rows:
            kelvin = worst * scaling.span("T")
            line += f" ({kelvin:+.3f} K vs cap {temperature_rows[name]:.2f} K)"
        print(line)
    _write_manifest(outdir, "control", args.config, None,
                    {"config": args.config, "checkpoint": Path(args.model) / "checkpoint.psmw",
                     **data["inputs"]},
                    {"rollout.csv": outdir / "rollout.csv"}, t0)


# ===================== diagnose =====================


def cmd_diagnose(args) -> None:
    t0 = time.time()
    cfg = load_json(args.config) if args.config else {}
    reject_unknown_keys(cfg, ("window", "zeta", "calibration_split", "twin", "n_conditions", "conditions_seed",
                              "fault_span", *_CALIBRATION_KEYS), "diagnose config")
    window = _number(cfg, "window", int, DetectorConfig.window)
    zeta = None if cfg.get("zeta") is None else _number(cfg, "zeta", float)
    split = cfg.get("calibration_split", "test")
    if split not in ("test", "train"):
        raise ConfigError(f"'calibration_split' must be \"test\" or \"train\", got {split!r}")
    calibration = _given(cfg, _CALIBRATION_KEYS)
    twin_cfg = _object(cfg, "twin", {})
    reject_unknown_keys(twin_cfg, _TWIN_KEYS, "twin")
    twin_train = twin_config(**_given(twin_cfg, _TWIN_KEYS))
    n_conditions = _number(cfg, "n_conditions", int, 64)
    if n_conditions < 1:
        raise ConfigError(f"'n_conditions' must be >= 1, got {n_conditions}")
    conditions_seed = {"seed": _number(cfg, "conditions_seed", int)} if "conditions_seed" in cfg else {}
    span = None if cfg.get("fault_span") is None else tuple(map(float, _numbers(cfg, "fault_span", (2,))))

    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    params = _read_model(args.model)
    scenario, scaling = data["scenario"], data["scaling"]
    steps = round(scenario.episode_duration / scenario.delta_t) * len(data["splits"]["train"])
    n_rows = 2 * steps * len(scenario.sensor_stations)  # the train corpus sample_conditions draws from
    if n_conditions > n_rows:
        raise ConfigError(f"'n_conditions' is {n_conditions}, above the {n_rows} rows of the train corpus")
    streams = [load_record(p) for p in args.stream]
    if span is not None:
        try:
            span_mask(build_grid(scenario).centers, span)
        except ConfigError as exc:
            raise ConfigError(f"'fault_span': {exc}") from exc

    if zeta is None:
        if not data["splits"][split]:
            raise ConfigError(f"no {split} records available to calibrate zeta")
        # a generator, so calibrate_zeta checks its settings before the errors are computed
        cal_errors = (prediction_errors(params, scenario, scaling, r) for r in _load_split(data, split))
        zeta = calibrate_zeta(cal_errors, window, **calibration)
    detector = DetectorConfig(zeta=zeta, window=window)
    errors = np.concatenate([prediction_errors(params, scenario, scaling, rec) for rec in streams])
    result = detect(errors, detector)

    verdict = [f"threshold zeta = {zeta:.6e}, window = {window} steps"]
    outputs = {}
    if not result.tripped:
        verdict.append("no degradation detected")
    else:
        verdict.append(
            f"degradation detected at step {result.trip_index} "
            f"(window mean {result.window_means.max():.3e} > zeta)"
        )
        stream_ds = assemble_dataset(streams, scenario, scaling, strict=False)
        twin, hist = transfer_learn_twin(params, stream_ds, scenario, scaling, twin_train)
        verdict.append(f"twin fine-tuned: {len(hist)} epochs, "
                       f"loss {hist[0]['loss_total']:.3e} -> {hist[-1]['loss_total']:.3e}")
        v_star, x0_star = sample_conditions(assemble_dataset(_load_split(data, "train"), scenario, scaling),
                                            scenario, n_conditions, **conditions_seed)
        sig = signature(params, twin, scenario, scaling, v_star, x0_star)
        write_signature_csv(outdir / "signature.csv", sig)
        outputs["signature.csv"] = outdir / "signature.csv"
        for i, eq in enumerate(sig.equations):
            mag = np.abs(sig.difference[i])
            verdict.append(
                f"{eq}: peak |dr| = {mag.max():.3e} at z = {sig.z[np.argmax(mag)]:.3f} m"
            )
        if span is not None:
            ratios = localization_ratio(sig, span)
            verdict.append(
                "localization ratios inside z in "
                f"[{span[0]:g}, {span[1]:g}] m: "
                + ", ".join(f"{eq} {r:.2f}" for eq, r in ratios.items())
            )

    text = "\n".join(verdict) + "\n"
    write_text(outdir / "verdict.txt", text)
    outputs["verdict.txt"] = outdir / "verdict.txt"
    print(text, end="")
    inputs = {"checkpoint": Path(args.model) / "checkpoint.psmw", **data["inputs"]}
    for p in args.stream:
        inputs[Path(p).name] = p
    _write_manifest(outdir, "diagnose", args.config, None, inputs, outputs, t0)


# ===================== preset =====================


def cmd_preset(args) -> None:
    t0 = time.time()
    outdir = _out_dir(args)
    if args.name not in _PRESETS:
        raise ConfigError(f"unknown preset {args.name!r}; choose from {sorted(_PRESETS)}")
    scenario = _PRESETS[args.name]()
    path = outdir / "scenario.json"
    write_json(path, asdict(scenario))
    _write_manifest(outdir, "preset", None, None, {}, {"scenario.json": path}, t0)
    print(f"preset {args.name} -> {path}")


# ===================== entry point =====================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowpsm",
        description="Physics-informed state-space models of 1D fluid transport.",
    )
    parser.add_argument("--version", action="version", version=f"flowpsm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preset", help="export a shipped scenario as editable JSON")
    p.add_argument("--name", required=True, choices=sorted(_PRESETS))
    p.add_argument("--out", help="output directory (or FLOWPSM_OUT)")
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("gen-data", help="simulate a corpus of control experiments")
    p.add_argument("--config", required=True, help="scenario/corpus JSON config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (or FLOWPSM_OUT)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit a model to a generated corpus")
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--config", required=True, help="training JSON config")
    p.add_argument("--mode", choices=("psm", "ann"), default="psm",
                   help="psm trains with the physics loss; ann is the data-only baseline")
    p.add_argument("--noise", default="none",
                   help="none | homoscedastic:SIGMA | heteroscedastic:XI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (or FLOWPSM_OUT)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="closed-loop RMSE table for one or two models")
    p.add_argument("--model", action="append", required=True,
                   help="train output directory (repeat for a comparison column)")
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--split", choices=("test", "train"), default="test")
    p.add_argument("--out", help="output directory (or FLOWPSM_OUT)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("control", help="governed rollout against references and constraints")
    p.add_argument("--model", required=True, help="train output directory")
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--config", required=True, help="control JSON config")
    p.add_argument("--out", help="output directory (or FLOWPSM_OUT)")
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("diagnose", help="fault detection and localization on a sensor stream")
    p.add_argument("--model", required=True, help="train output directory (nominal model)")
    p.add_argument("--data", required=True, help="nominal gen-data directory")
    p.add_argument("--stream", action="append", required=True,
                   help="record file(s) to monitor, chronological order")
    p.add_argument("--config", help="detector JSON config")
    p.add_argument("--out", help="output directory (or FLOWPSM_OUT)")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DataIoError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
