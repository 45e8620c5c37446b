"""Command-line front end for the transport-model toolkit.

Subcommands cover the pipeline end to end: preset export, corpus generation,
training, evaluation, governed control rollouts, and fault diagnosis. All
numeric parameters live in JSON config files; flags carry only paths, seeds,
and mode toggles. Every command writes a manifest.json with input and output
digests so reruns under a fixed seed can be verified byte for byte.

Every JSON document a command reads goes through ``transport.from_document``.
Each key is declared once: by the dataclass or keyword-only parameter its
value is passed to, or, if only the command uses it, by the command's own
declaration below. Temperatures are Kelvin internally; a temperature_cap row
may give its cap as cap_celsius instead of cap_kelvin, the one *_celsius key.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Literal

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
    ScenarioConfig,
    _check_value,
    build_grid,
    from_document,
    heated_channel_preset,
    loop_preset,
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


def _numbers(value, key: str, shape: tuple | None, kind=float) -> np.ndarray:
    """The config's ``key``, ``value``, as an array of ``kind`` of ``shape`` (None for a free length, or
    None for any rectangular shape), else a ConfigError naming the key; each entry by ``_check_value``."""
    try:
        arr = np.array(value, dtype=object)
    except ValueError:  # ragged in a way numpy cannot hold as objects
        arr = np.array(None, dtype=object)
    if shape is not None and (arr.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, arr.shape))):
        dims = ", ".join("n" if n is None else str(n) for n in shape) + ("," if len(shape) == 1 else "")
        raise ConfigError(f"{key!r} must be an array of numbers of shape ({dims}), got {value!r}")
    for x in arr.flat:
        _check_value(key, x, kind)
    try:
        return np.array(list(arr.flat), dtype=kind).reshape(arr.shape)
    except OverflowError:  # an integer beyond int64
        raise ConfigError(f"{key!r} holds an entry out of range, got {value!r}") from None


_solver = partial(from_document, SolverConfig, what="solver")  # a config's solver object


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


def _read_data_file(path: Path, owner, what: str, **parse):
    """``owner`` read by ``from_document`` from a data file, whose other keys are provenance; else a DataIoError."""
    doc = load_json(path, DataIoError)
    names = {f.name for f in fields(owner)}
    try:
        return from_document(owner, {k: v for k, v in doc.items() if k in names}, what, **parse)
    except ConfigError as exc:  # the file's contents, not the user's config
        raise DataIoError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class _Dataset:
    """The keys of a data directory's dataset.json that the commands read."""

    scenario: ScenarioConfig
    train_records: tuple[str, ...]  # record paths relative to the data directory
    test_records: tuple[str, ...]


def _read_dataset(data_dir) -> dict:
    """The data directory's scenario and scaling, checked; ``_load_split`` reads its records."""
    data_dir = Path(data_dir)
    path = data_dir / "dataset.json"
    dataset = _read_data_file(path, _Dataset, "dataset", scenario=scenario_from_dict)
    scaling, scaling_hash = load_scaling(data_dir / "scaling.json")
    if scaling_hash != scenario_fingerprint(dataset.scenario):
        raise DataIoError(f"{data_dir / 'scaling.json'}: scaling manifest does not match the scenario "
                          f"in {path}")
    if len(scaling.v_min) != dataset.scenario.n_controls:
        raise DataIoError(f"{data_dir / 'scaling.json'}: 'v_min' and 'v_max' hold {len(scaling.v_min)} "
                          f"bounds, but the scenario in {path} has {dataset.scenario.n_controls} controls")
    return {
        "dir": data_dir,
        "inputs": {name: data_dir / name for name in ("dataset.json", "scaling.json")},
        "scenario": dataset.scenario,
        "scaling": scaling,
        "splits": {"train": dataset.train_records, "test": dataset.test_records},
    }


def _load_split(data: dict, split: str) -> list:
    """The records of the dataset's "train" or "test" split, loaded where a command uses them."""
    return [load_record(data["dir"] / p) for p in data["splits"][split]]


def _read_model(model_dir) -> ParamStore:
    """The model directory's trained store, its architecture read from arch.json."""
    model_dir = Path(model_dir)
    spec = _read_data_file(model_dir / "arch.json", MlpSpec, "architecture")
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


@dataclass(frozen=True)
class _GenData:
    """The gen-data config; ``solver`` holds SolverConfig's keys, ``degradation`` inject_degradation's."""

    preset: str | None = None  # exactly one of preset and scenario
    scenario: ScenarioConfig | None = None
    degradation: partial | None = None  # inject_degradation with the document's keys bound
    solver: SolverConfig = SolverConfig()
    n_train: int = 16
    n_test: int = 4
    export_csv: bool = False

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.scenario is None):
            raise ConfigError("config must contain exactly one of 'preset' or 'scenario'")
        if self.preset is not None and self.preset not in _PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {sorted(_PRESETS)}")
        if self.n_train < 1 or self.n_test < 0:
            raise ConfigError("need n_train >= 1 and n_test >= 0")


def cmd_gen_data(args) -> None:
    t0 = time.time()
    cfg = from_document(_GenData, load_json(args.config), "gen-data config", scenario=scenario_from_dict,
                        solver=_solver,
                        degradation=lambda d: from_document(inject_degradation, d, "degradation"))
    outdir = _out_dir(args)
    scenario = cfg.scenario or _PRESETS[cfg.preset]()
    if cfg.degradation is not None:
        scenario = cfg.degradation(scenario)
    inputs = generate_trajectories(args.seed, scenario, cfg.n_train + cfg.n_test)

    records = run_experiments(scenario, inputs, [steady_state(scenario, v) for v in inputs[:, 0]], cfg.solver)

    _mkdir(outdir / "records")
    rel_paths = []
    outputs = {}
    for i, rec in enumerate(records):
        rel = f"records/exp_{i:03d}.psmd"
        save_record(outdir / rel, rec)
        rel_paths.append(rel)
        outputs[rel] = outdir / rel
        if cfg.export_csv:
            csv_rel = f"records/exp_{i:03d}.csv"
            record_to_csv(outdir / csv_rel, rec)
            outputs[csv_rel] = outdir / csv_rel

    scaling = compute_scaling(records[:cfg.n_train], scenario)
    save_scaling(outdir / "scaling.json", scaling, scenario_fingerprint(scenario))
    doc = {
        "scenario": asdict(scenario),
        "seed": args.seed,
        "n_train": cfg.n_train,
        "n_test": cfg.n_test,
        "delta_t": scenario.delta_t,
        "train_records": rel_paths[:cfg.n_train],
        "test_records": rel_paths[cfg.n_train:],
    }
    write_json(outdir / "dataset.json", doc)
    outputs["scaling.json"] = outdir / "scaling.json"
    outputs["dataset.json"] = outdir / "dataset.json"
    _write_manifest(outdir, "gen-data", args.config, args.seed,
                    {"config": args.config}, outputs, t0)
    print(f"gen-data: {cfg.n_train} train + {cfg.n_test} test records -> {outdir}")


# ===================== train =====================


@dataclass(frozen=True)
class _Train:
    """The train config's own keys; the rest are TrainConfig's, but for seed, which --seed gives."""

    widths: tuple = ()  # head, intermediate and tail; MlpSpec's defaults when left out
    log_every: int = 25


def cmd_train(args) -> None:
    t0 = time.time()
    config, own = from_document(
        (partial(TrainConfig, seed=args.seed), _Train), load_json(args.config), "train config",
        widths=lambda v: tuple(_numbers(v, "widths", (3,), int).tolist()))
    if args.mode == "ann":
        config = replace(config, alpha=1.0, beta=0.0)
    noise = _noise_from_flag(args.noise)
    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    scenario, scaling = data["scenario"], data["scaling"]

    spec = mlp_for_scenario(scenario, own.widths)
    dataset = assemble_dataset(_load_split(data, "train"), scenario, scaling)
    params, history = train(init_params(spec, config.seed), dataset, scenario, scaling, config, noise,
                            log_every=own.log_every)

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


@dataclass(frozen=True)
class _Control:
    """The control config's own keys; horizon, epsilon, update_interval and q_weight are CgConfig's."""

    references: dict  # exactly one of the forms _References declares
    n_steps: int | None = None  # the scenario's episode_duration / delta_t
    schedule: tuple[dict, ...] = ()  # entries that _Entry declares
    environment: Literal["solver", "model"] = "solver"
    solver: SolverConfig = SolverConfig()


@dataclass(frozen=True)
class _References:
    hold: tuple | None = None  # one row of inputs, held for n_steps
    per_step: tuple | None = None  # one row per step
    knots: dict | None = None  # times and values, interpolated at each step


@dataclass(frozen=True)
class _Knots:
    times: tuple
    values: tuple


@dataclass(frozen=True)
class _Entry:
    from_step: int
    constraints: tuple[dict, ...] = ()  # rows of temperature_cap's keys or Constraint's, and a type


def _build_references(doc: dict, n_steps: int | None, scenario) -> np.ndarray:
    ref = from_document(_References, doc, "references")
    if len(doc) != 1:
        raise ConfigError("references must give exactly one of 'hold', 'per_step' or 'knots', "
                          f"got {sorted(doc)}")
    p = scenario.n_controls
    steps = round(scenario.episode_duration / scenario.delta_t) if n_steps is None else n_steps
    if steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if "hold" in doc:
        return np.tile(_numbers(ref.hold, "hold", (p,)), (steps, 1))
    if "per_step" in doc:
        rows = _numbers(ref.per_step, "per_step", (None, p))
        if n_steps is not None and rows.shape[0] != n_steps:
            raise ConfigError(f"'n_steps' is {n_steps} but 'per_step' has {rows.shape[0]} rows")
        return rows
    knots = from_document(_Knots, ref.knots, "knots")
    times = _numbers(knots.times, "times", (None,))
    values = _numbers(knots.values, "values", (times.size, p))
    if np.any(np.diff(times) <= 0.0):
        raise ConfigError(f"knot 'times' must increase strictly, got {times.tolist()}")
    tk = np.arange(steps) * scenario.delta_t
    return np.column_stack([np.interp(tk, times, values[:, j]) for j in range(p)])


def _cap_row(doc: dict, scenario, scaling) -> Constraint:
    """A temperature_cap row, whose cap may instead be given in Celsius as cap_celsius; pops that key."""
    if "cap_celsius" in doc:
        if "cap_kelvin" in doc:
            raise ConfigError("give either cap_kelvin or cap_celsius, not both")
        _check_value("cap_celsius", doc["cap_celsius"], float)
        doc["cap_kelvin"] = doc.pop("cap_celsius") + 273.15
    return from_document(temperature_cap, doc, "temperature_cap constraint")(scenario, scaling)


def _build_schedule(entries: tuple, scenario, scaling) -> tuple[ConstraintSchedule, set]:
    """The schedule, and the names of its temperature_cap rows."""
    n_state = input_layout(scenario).n_state
    schedule = []
    cap_names = set()
    for doc in entries:
        entry = from_document(_Entry, doc, "schedule entry")
        rows = []
        for c in entry.constraints:
            kind = c.get("type", "temperature_cap")
            row = {k: v for k, v in c.items() if k != "type"}
            if kind == "temperature_cap":
                rows.append(_cap_row(row, scenario, scaling))
                cap_names.add(rows[-1].name)
            elif kind == "linear":
                line = from_document(Constraint, row, "linear constraint",
                                     c=lambda v: tuple(_numbers(v, "c", (n_state,)).tolist()))
                rows.append(replace(line, name=line.name or "linear"))
            else:
                raise ConfigError(f"unknown constraint type {kind!r}")
        schedule.append((entry.from_step, ConstraintSet(rows=tuple(rows))))
    schedule.sort(key=lambda e: e[0])
    return ConstraintSchedule(entries=tuple(schedule)), cap_names


def cmd_control(args) -> None:
    t0 = time.time()
    doc = load_json(args.config)
    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    params = _read_model(args.model)
    scenario, scaling = data["scenario"], data["scaling"]

    gov, cfg = from_document((CgConfig, _Control), doc, "control config", solver=_solver,
                             q_weight=lambda v: tuple(_numbers(v, "q_weight", None).ravel().tolist()))
    references = _build_references(cfg.references, cfg.n_steps, scenario)
    schedule, cap_names = _build_schedule(cfg.schedule, scenario, scaling)
    log = ncg_rollout(params, scenario, scaling, references, schedule,
                      config=gov, solver_config=cfg.solver, environment=cfg.environment)
    write_rollout_log(outdir / "rollout.csv", log.steps,
                      control_names=scenario.control_channels,
                      output_names=log.output_names)
    statuses = {}
    for row in log.steps:
        statuses[row["status"]] = statuses.get(row["status"], 0) + 1
    print(f"control: {len(log.steps)} steps, {log.relinearizations} linearizations, "
          f"statuses {statuses}")
    for j, name in enumerate(log.output_names):
        margins = [(row["outputs"][j] - row["bounds"][j], row["bounds"][j]) for row in log.steps
                   if row["bounds"][j] is not None]
        if not margins:
            continue
        worst, bound = max(margins, key=lambda m: m[0])
        line = f"  bound {name}: max(y - d) = {worst:.3e} scaled"
        if name in cap_names:  # the cap in force at the worst step, from that step's bound
            cap = float(scaling.unscale_field("T", bound))
            line += f" ({worst * scaling.span('T'):+.3f} K vs cap {cap:.2f} K)"
        print(line)
    _write_manifest(outdir, "control", args.config, None,
                    {"config": args.config, "checkpoint": Path(args.model) / "checkpoint.psmw",
                     **data["inputs"]},
                    {"rollout.csv": outdir / "rollout.csv"}, t0)


# ===================== diagnose =====================


@dataclass(frozen=True)
class _Diagnose:
    """The diagnose config's own keys; multiplier and percentile are calibrate_zeta's."""

    window: int = DetectorConfig.window
    zeta: float | None = None  # calibrated on calibration_split when left out
    calibration_split: Literal["test", "train"] = "test"
    twin: TrainConfig = twin_config()  # twin_config's keys
    n_conditions: int = 64
    conditions_seed: int | None = None  # sample_conditions's seed when left out
    fault_span: tuple | None = None  # [z_start, z_end] in m

    def __post_init__(self) -> None:
        if self.n_conditions < 1:
            raise ConfigError(f"'n_conditions' must be >= 1, got {self.n_conditions}")


def cmd_diagnose(args) -> None:
    t0 = time.time()
    cfg, calibrate = from_document(
        (_Diagnose, calibrate_zeta), load_json(args.config) if args.config else {}, "diagnose config",
        twin=lambda d: from_document(twin_config, d, "twin")(),
        fault_span=lambda v: tuple(map(float, _numbers(v, "fault_span", (2,)))))
    window, zeta, span = cfg.window, cfg.zeta, cfg.fault_span

    outdir = _out_dir(args)
    data = _read_dataset(args.data)
    params = _read_model(args.model)
    scenario, scaling = data["scenario"], data["scaling"]
    steps = round(scenario.episode_duration / scenario.delta_t) * len(data["splits"]["train"])
    n_rows = 2 * steps * len(scenario.sensor_stations)  # the train corpus sample_conditions draws from
    if cfg.n_conditions > n_rows:
        raise ConfigError(f"'n_conditions' is {cfg.n_conditions}, above the {n_rows} rows of the train corpus")
    streams = [load_record(p) for p in args.stream]
    if span is not None:
        try:
            span_mask(build_grid(scenario).centers, span)
        except ConfigError as exc:
            raise ConfigError(f"'fault_span': {exc}") from exc

    if zeta is None:
        if not data["splits"][cfg.calibration_split]:
            raise ConfigError(f"no {cfg.calibration_split} records available to calibrate zeta")
        # a generator, so calibrate_zeta checks its settings before the errors are computed
        cal_errors = (prediction_errors(params, scenario, scaling, r)
                      for r in _load_split(data, cfg.calibration_split))
        zeta = calibrate(cal_errors, window)
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
        twin, hist = transfer_learn_twin(params, stream_ds, scenario, scaling, cfg.twin)
        verdict.append(f"twin fine-tuned: {len(hist)} epochs, "
                       f"loss {hist[0]['loss_total']:.3e} -> {hist[-1]['loss_total']:.3e}")
        seed = {} if cfg.conditions_seed is None else {"seed": cfg.conditions_seed}
        v_star, x0_star = sample_conditions(assemble_dataset(_load_split(data, "train"), scenario, scaling),
                                            scenario, cfg.n_conditions, **seed)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
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
