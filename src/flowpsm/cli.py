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
import json
import math
import os
import sys
import time
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
    transfer_learn_twin,
)
from .errors import DataIoError, NumericalError
from .formats import (
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
    write_json,
    write_metrics,
    write_rollout_log,
    write_signature_csv,
)
from .network import MlpSpec
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
    heated_channel_preset,
    loop_preset,
    scenario_fingerprint,
    scenario_from_dict,
    scenario_to_dict,
)

_PRESETS = {"heated_channel": heated_channel_preset, "loop": loop_preset}


# ===================== shared plumbing =====================


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataIoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc


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


def _load_document(path, keys: tuple) -> dict:
    """A JSON object data file that must hold every key in ``keys``, else a DataIoError."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise DataIoError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in doc:
            raise DataIoError(f"{path}: missing key {key!r}")
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
        if name not in _PRESETS:
            raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
        scenario = _PRESETS[name]()
    else:
        scenario = scenario_from_dict(cfg["scenario"])
    if cfg.get("degradation") is not None:
        deg = _object(cfg, "degradation")
        scenario = inject_degradation(
            scenario, _number(deg, "segment_index", int), _number(deg, "friction_multiplier", float)
        )
    return scenario


def _solver_config(cfg: dict) -> SolverConfig:
    solver = _object(cfg, "solver", {})
    default = SolverConfig()
    kinds = {"substep": float, "tol": float, "max_iters": int}
    unknown = set(solver) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown solver keys: {sorted(unknown)}")
    return SolverConfig(**{k: _number(solver, k, kind, getattr(default, k)) for k, kind in kinds.items()})


def _write_manifest(outdir: Path, command: str, config_path, seed, inputs: dict, outputs: dict,
                    t0: float) -> None:
    manifest = RunManifest(
        command=command,
        config_path=None if config_path is None else str(config_path),
        seed=seed,
        tool_version=__version__,
        input_digests={k: file_digest(v) for k, v in inputs.items()},
        output_digests={k: file_digest(v) for k, v in outputs.items()},
        duration_s=round(time.time() - t0, 3),
    )
    manifest.save(outdir / "manifest.json")


def _read_dataset(data_dir) -> dict:
    data_dir = Path(data_dir)
    doc = _load_document(data_dir / "dataset.json", ("scenario", "train_records", "test_records"))
    scenario = scenario_from_dict(doc["scenario"])
    scaling, scaling_hash = load_scaling(data_dir / "scaling.json")
    if scaling_hash != scenario_fingerprint(scenario):
        raise ConfigError(f"{data_dir}: scaling manifest does not match the scenario")
    return {
        "dir": data_dir,
        "doc": doc,
        "scenario": scenario,
        "scaling": scaling,
        "train_records": [load_record(data_dir / p) for p in doc["train_records"]],
        "test_records": [load_record(data_dir / p) for p in doc["test_records"]],
    }


def _read_model(model_dir) -> dict:
    model_dir = Path(model_dir)
    arch = _load_document(model_dir / "arch.json",
                          ("input_dim", "head_width", "intermediate_width", "tail_width"))
    spec = MlpSpec(
        input_dim=int(arch["input_dim"]),
        head_width=int(arch["head_width"]),
        intermediate_width=int(arch["intermediate_width"]),
        tail_width=int(arch["tail_width"]),
        activation=arch.get("activation", "tanh"),
    )
    params = load_checkpoint(model_dir / "checkpoint.psmw", spec)
    return {"dir": model_dir, "arch": arch, "spec": spec, "params": params}


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
    cfg = _load_json(args.config)
    outdir = _out_dir(args)
    scenario = _scenario_from_config(cfg)
    solver_cfg = _solver_config(cfg)
    n_train = _number(cfg, "n_train", int, 16)
    n_test = _number(cfg, "n_test", int, 4)
    if n_train < 1 or n_test < 0:
        raise ConfigError("need n_train >= 1 and n_test >= 0")
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
        if cfg.get("export_csv", False):
            record_to_csv(outdir / f"records/exp_{i:03d}.csv", rec)

    scaling = compute_scaling(records[:n_train], scenario)
    save_scaling(outdir / "scaling.json", scaling, scenario_fingerprint(scenario))
    doc = {
        "scenario": scenario_to_dict(scenario),
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
    cfg = _load_json(args.config)
    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    scenario, scaling = data["scenario"], data["scaling"]

    widths = tuple(_numbers(cfg, "widths", (3,), int, (200, 100, 100)).tolist())
    spec = mlp_for_scenario(scenario, widths)
    if args.mode == "ann":
        alpha, beta = 1.0, 0.0
    else:
        alpha = _number(cfg, "alpha", float, 0.5)
        beta = _number(cfg, "beta", float, 0.5)
    config = TrainConfig(
        alpha=alpha,
        beta=beta,
        epochs=_number(cfg, "epochs", int, 500),
        batch_size=_number(cfg, "batch_size", int, 2048),
        base_lr=_number(cfg, "base_lr", float, 1e-3),
        collocation_size=None if cfg.get("collocation_size") is None
        else _number(cfg, "collocation_size", int),
        seed=args.seed,
    )
    noise = _noise_from_flag(args.noise)
    dataset, _ = assemble_dataset(data["train_records"], scenario, scaling=scaling)
    params, history = train(spec, dataset, scenario, scaling, config, noise,
                            log_every=_number(cfg, "log_every", int, 25))

    save_checkpoint(outdir / "checkpoint.psmw", params)
    write_metrics(outdir / "metrics.csv",
                  [(h["epoch"], h["loss_measurement"], h["loss_physics"],
                    h["loss_total"], h["learning_rate"]) for h in history])
    arch = {
        "input_dim": spec.input_dim,
        "head_width": spec.head_width,
        "intermediate_width": spec.intermediate_width,
        "tail_width": spec.tail_width,
        "activation": spec.activation,
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
    _write_manifest(outdir, "train", args.config, args.seed,
                    {"config": args.config, "dataset.json": data["dir"] / "dataset.json"},
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
    records = data["test_records"] if args.split == "test" else data["train_records"]
    if not records:
        raise ConfigError(f"dataset has no {args.split} records")

    names, tables = [], []
    for model_dir in args.model:
        model = _read_model(model_dir)
        name = Path(model_dir).name or "model"
        while name in names:
            name += "_b"
        names.append(name)
        tables.append(evaluate_records(model["spec"], model["params"], data["scenario"],
                                       data["scaling"], records))

    stats = ("mean_rmse", "max_rmse", "overall_rmse")
    header = ["field", "statistic"] + names + (["ratio"] if len(names) == 2 else [])
    rows = []
    for fld in ("p", "u", "T"):
        for stat in stats:
            vals = [t["fields"][fld][stat] for t in tables]
            row = [fld, stat.replace("_rmse", "")] + [f"{v:.6g}" for v in vals]
            if len(vals) == 2:
                row.append(f"{vals[0] / vals[1]:.4f}" if vals[1] else "inf")
            rows.append(row)
    try:
        with open(outdir / "rmse_table.csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise DataIoError(f"cannot write RMSE table: {exc}") from exc

    widths = [max(len(h), max(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    _write_manifest(outdir, "eval", None, None,
                    {f"model_{n}": Path(d) / "checkpoint.psmw" for n, d in zip(names, args.model)},
                    {"rmse_table.csv": outdir / "rmse_table.csv"}, t0)


# ===================== control =====================


def _build_references(cfg: dict, scenario) -> np.ndarray:
    lay = input_layout(scenario)
    n_steps = _number(cfg, "n_steps", int, round(scenario.episode_duration / scenario.delta_t))
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    ref = _object(cfg, "references")
    p = lay.n_controls
    if "hold" in ref:
        return np.tile(_numbers(ref, "hold", (p,)), (n_steps, 1))
    if "per_step" in ref:
        rows = _numbers(ref, "per_step", (None, p))
        if "n_steps" in cfg and rows.shape[0] != n_steps:
            raise ConfigError(f"'n_steps' is {n_steps} but 'per_step' has {rows.shape[0]} rows")
        return rows
    if "knots" in ref:
        knots = _object(ref, "knots")
        times = _numbers(knots, "times", (None,))
        values = _numbers(knots, "values", (times.size, p))
        if np.any(np.diff(times) <= 0.0):
            raise ConfigError(f"knot 'times' must increase strictly, got {times.tolist()}")
        tk = np.arange(n_steps) * scenario.delta_t
        return np.column_stack(
            [np.interp(tk, times, values[:, j]) for j in range(p)]
        )
    raise ConfigError("references must contain 'hold', 'per_step', or 'knots'")


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
        rows = []
        for c in _objects(entry, "constraints"):
            kind = c.get("type", "temperature_cap")
            name = c.get("name", "")
            if kind == "temperature_cap":
                cap = _kelvin(c, "cap")
                station = _number(c, "station_index", int)
                row = temperature_cap(scenario, scaling, station, cap,
                                      name=name or f"T_cap_{station}")
                temperature_rows[row.name] = cap
            elif kind == "linear":
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
    cfg = _load_json(args.config)
    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    model = _read_model(args.model)
    scenario, scaling = data["scenario"], data["scaling"]

    references = _build_references(cfg, scenario)
    schedule, temperature_rows = _build_schedule(cfg, scenario, scaling)
    gov = CgConfig(
        horizon=_number(cfg, "horizon", int, 50),
        epsilon=_number(cfg, "epsilon", float, 0.01),
        update_interval=_number(cfg, "update_interval", int, 10),
        q_weight=_q_weight(cfg, scenario.n_controls),
    )
    log = ncg_rollout(
        model["spec"], model["params"], scenario, scaling, references, schedule,
        config=gov, solver_config=_solver_config(cfg),
        environment=cfg.get("environment", "solver"),
    )
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
                    {"config": args.config, "checkpoint": Path(args.model) / "checkpoint.psmw"},
                    {"rollout.csv": outdir / "rollout.csv"}, t0)


# ===================== diagnose =====================


def cmd_diagnose(args) -> None:
    t0 = time.time()
    cfg = _load_json(args.config) if args.config else {}
    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    model = _read_model(args.model)
    scenario, scaling = data["scenario"], data["scaling"]
    spec, params = model["spec"], model["params"]

    streams = [load_record(p) for p in args.stream]
    stream_errors = [prediction_errors(spec, params, scenario, scaling, rec) for rec in streams]
    errors = np.concatenate(stream_errors)

    window = _number(cfg, "window", int, 4)
    zeta = cfg.get("zeta")
    if zeta is None:
        split = cfg.get("calibration_split", "test")
        if split not in ("test", "train"):
            raise ConfigError(f"'calibration_split' must be \"test\" or \"train\", got {split!r}")
        cal_records = data["test_records"] if split == "test" else data["train_records"]
        if not cal_records:
            raise ConfigError(f"no {split} records available to calibrate zeta")
        cal_errors = [prediction_errors(spec, params, scenario, scaling, r) for r in cal_records]
        zeta = calibrate_zeta(cal_errors, window,
                              multiplier=_number(cfg, "multiplier", float, 5.0),
                              percentile=_number(cfg, "percentile", float, 95.0))
    else:
        zeta = _number(cfg, "zeta", float)
    result = detect(errors, DetectorConfig(zeta=zeta, window=window))

    verdict = [f"threshold zeta = {zeta:.6e}, window = {window} steps"]
    outputs = {}
    if not result.tripped:
        verdict.append("no degradation detected")
    else:
        verdict.append(
            f"degradation detected at step {result.trip_index} "
            f"(window mean {result.window_means.max():.3e} > zeta)"
        )
        twin_cfg = _object(cfg, "twin", {})
        stream_ds, _ = assemble_dataset(streams, scenario, scaling=scaling, strict=False)
        twin, hist = transfer_learn_twin(
            spec, params, stream_ds, scenario, scaling,
            base_lr=_number(twin_cfg, "base_lr", float, 1e-4),
            epochs=_number(twin_cfg, "epochs", int, 50),
            batch_size=_number(twin_cfg, "batch_size", int, 512),
            seed=_number(twin_cfg, "seed", int, 0),
        )
        verdict.append(f"twin fine-tuned: {len(hist)} epochs, "
                       f"loss {hist[0]['loss_total']:.3e} -> {hist[-1]['loss_total']:.3e}")
        nominal_ds, _ = assemble_dataset(data["train_records"], scenario, scaling=scaling)
        v_star, x0_star = sample_conditions(
            nominal_ds, scenario, scaling,
            _number(cfg, "n_conditions", int, 64), seed=_number(cfg, "conditions_seed", int, 0),
        )
        sig = signature(spec, params, twin, scenario, scaling, v_star, x0_star)
        write_signature_csv(outdir / "signature.csv", sig)
        outputs["signature.csv"] = outdir / "signature.csv"
        for i, eq in enumerate(sig.equations):
            mag = np.abs(sig.difference[i])
            verdict.append(
                f"{eq}: peak |dr| = {mag.max():.3e} at z = {sig.z[np.argmax(mag)]:.3f} m"
            )
        if cfg.get("fault_span") is not None:
            span = _numbers(cfg, "fault_span", (2,))
            ratios = localization_ratio(sig, (float(span[0]), float(span[1])))
            verdict.append(
                "localization ratios inside z in "
                f"[{span[0]:g}, {span[1]:g}] m: "
                + ", ".join(f"{eq} {r:.2f}" for eq, r in ratios.items())
            )

    text = "\n".join(verdict) + "\n"
    try:
        with open(outdir / "verdict.txt", "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataIoError(f"cannot write verdict: {exc}") from exc
    outputs["verdict.txt"] = outdir / "verdict.txt"
    print(text, end="")
    inputs = {"checkpoint": Path(args.model) / "checkpoint.psmw"}
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
    write_json(path, scenario_to_dict(scenario))
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
