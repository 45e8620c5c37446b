"""The three benchmark workloads: channel-study, loop-fault and governor.

A workload writes its configs from the seed (``prepare``) and then runs
rounds of ``flowpsm`` commands (``run_round``), checking every output it can.
channel-study and loop-fault repeat the same command chain on the same
inputs in every round; governor runs one governed rollout per round, each
with its own seeded references and caps.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
GOVERNOR_INPUTS = BENCH_DIR / "governor_inputs"

FLIBE = {"rho_a": 2413.0, "rho_b": 0.488, "cp": 2414.0}


def _pipe(length: float, n: int, **extra) -> dict:
    return {"length": length, "flow_area": 0.449, "hydraulic_diameter": 2.972e-3,
            "n_elements": n, "friction_factor": 0.001, **extra}


def channel_scenario(episode_duration: float) -> dict:
    """The heated_channel preset with a shorter episode."""
    return {
        "kind": "heated_channel",
        "fluid": FLIBE,
        "segments": [_pipe(1.0, 10), _pipe(0.8, 10, heat_source=checks.CHANNEL_SOURCE), _pipe(1.0, 10)],
        "control_channels": ["u_in", "T_in"],
        "input_ranges": [[0.549, 0.749], [804.65, 884.65]],
        "sensor_stations": [0.25, 0.5, 0.75, 2.05, 2.3, 2.55],
        "delta_t": 5.0,
        "episode_duration": episode_duration,
        "outlet_pressure": 0.0,
    }


def loop_scenario(episode_duration: float) -> dict:
    """The loop preset with a shorter episode and a quarter of its input ranges.

    loop-fault trains on a single nominal episode and calibrates the detector
    on another; over the full ranges the two can sit far enough apart that
    the threshold calibrates above the degraded stream's errors.
    """
    return {
        "kind": "loop",
        "fluid": FLIBE,
        "segments": [
            _pipe(1.0, 10),
            _pipe(1.0, 10, volumetric_source_id="q_source", source_scale=1.0),
            _pipe(2.0, 20),
            _pipe(1.0, 10),  # the pipe before the cooler: the fault target
            _pipe(1.0, 10, volumetric_source_id="q_source", source_scale=-1.0),
            _pipe(2.0, 20),
        ],
        "control_channels": ["q_source", "dp_pump"],
        "input_ranges": [[48.75e6, 51.25e6], [1406.25, 1593.75]],
        "sensor_stations": [0.5, 1.5, 3.0, 4.5, 5.5, 7.0],
        "delta_t": 5.0,
        "episode_duration": episode_duration,
        "reference_pressure": 0.0,
        "reference_cell": 0,
        "reference_temperature": 873.15,
    }


def channel_outlet_rise(u_in: float, t_in: float) -> float:
    """Steady temperature rise across the heated pipe, K."""
    rho = FLIBE["rho_a"] - FLIBE["rho_b"] * t_in
    length = checks.CHANNEL_HEATED[1] - checks.CHANNEL_HEATED[0]
    return checks.CHANNEL_SOURCE * length / (rho * u_in * FLIBE["cp"])


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, *keys])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def verify_governor_inputs() -> None:
    """The fixed model and scaling match the digests recorded when they were made."""
    doc = json.loads((GOVERNOR_INPUTS / "inputs.json").read_text())
    for rel, digest in doc["sha256"].items():
        actual = hashlib.sha256((GOVERNOR_INPUTS / rel).read_bytes()).hexdigest()
        if actual != digest:
            raise RuntimeError(f"fixed governor input {rel} does not match inputs.json")


@dataclass
class RoundResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    commands: list = field(default_factory=list)  # (label, seconds, exit code)
    statuses: Counter = field(default_factory=Counter)  # governor statuses, every step
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def command(self, run, label: str, argv: list) -> bool:
        """Run one CLI command as one operation; True when it exits 0."""
        rc, seconds = run.cli(label, argv)
        self.seconds += seconds
        self.commands.append((label, seconds, rc))
        self.attempted += 1
        if rc != 0:
            self.failed += 1
        return rc == 0

    def check(self, fn, *args):
        """Run one output check; a failure is recorded as a problem, not raised."""
        try:
            return fn(*args)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None


class Workload:
    name = ""
    min_rounds = 1  # rounds every run makes; per-layer counts cover these

    def final_checks(self, rounds: list) -> list:
        """Checks over the whole run; returns the problems found."""
        return []


# ===================== channel-study =====================


class ChannelStudy(Workload):
    """Heated channel: gen-data, train psm and ann, eval both, transparent control."""

    name = "channel-study"
    epochs = 60

    def prepare(self, work: Path, seed: int) -> None:
        verify_governor_inputs()
        rng = _rng(seed, 1)
        seeds = {k: _draw_seed(rng) for k in ("gen", "psm", "ann")}
        _write_json(work / "gen.json", {"scenario": channel_scenario(100.0), "n_train": 3, "n_test": 1})
        _write_json(work / "train.json", {"widths": [64, 32, 32], "epochs": self.epochs, "batch_size": 128,
                                          "collocation_size": 256, "base_lr": 1e-3, "log_every": 0})
        u0, u1 = rng.uniform(0.58, 0.72, 2)
        t0, t1 = rng.uniform(810.0, 840.0), rng.uniform(850.0, 880.0)
        ramp = rng.uniform(10.0, 40.0)
        _write_json(work / "control.json", {
            "n_steps": 20,
            "update_interval": 5,
            "references": {"knots": {"times": [0.0, ramp, ramp + 40.0, 100.0],
                                     "values": [[u0, t0], [u0, t0], [u1, t1], [u1, t1]]}},
            "schedule": [{"from_step": 0, "constraints": [
                {"type": "temperature_cap", "station_index": s, "cap_kelvin": 1000.0} for s in (3, 4, 5)]}],
        })
        _write_json(work / "seeds.json", seeds)

    def run_round(self, run, index: int) -> RoundResult:
        work = run.work
        seeds = json.loads((work / "seeds.json").read_text())
        d = work / f"round-{index}"
        res = RoundResult()
        data, psm, ann = d / "data", d / "psm", d / "ann"
        if res.command(run, "gen_data", ["gen-data", "--config", work / "gen.json", "--out", data,
                                         "--seed", seeds["gen"]]):
            res.check(checks.check_manifest, data)
            errs = [res.check(lambda: checks.check_channel_energy_balance(checks.read_record(p), FLIBE))
                    for p in sorted((data / "records").glob("*.psmd"))]
            res.quality["energy_balance_max_err_K"] = max((e for e in errs if e is not None), default=None)
        for mode, out in (("psm", psm), ("ann", ann)):
            if res.command(run, f"train_{mode}", ["train", "--config", work / "train.json", "--data", data,
                                                  "--mode", mode, "--out", out, "--seed", seeds[mode]]):
                res.check(checks.check_manifest, out)
                res.check(checks.check_training_metrics, out / "metrics.csv", self.epochs, mode)
        if res.command(run, "eval", ["eval", "--model", psm, "--model", ann, "--data", data,
                                     "--out", d / "eval"]):
            res.check(checks.check_manifest, d / "eval")
            res.quality["T_rmse_ratio_psm_over_ann"] = res.check(checks.rmse_ratio, d / "eval" / "rmse_table.csv")
        ctl = d / "control"
        if res.command(run, "control", ["control", "--model", GOVERNOR_INPUTS / "model",
                                        "--data", GOVERNOR_INPUTS / "data",
                                        "--config", work / "control.json", "--out", ctl]):
            res.check(checks.check_manifest, ctl)
            rows = checks.read_csv(ctl / "rollout.csv")
            res.statuses.update(r["status"] for r in rows)
            res.check(checks.check_transparent_governor, rows, ["u_in", "T_in"])
        shutil.rmtree(d, ignore_errors=True)
        return res


# ===================== loop-fault =====================


class LoopFault(Workload):
    """Loop: nominal and degraded corpora, psm training, diagnose both streams."""

    name = "loop-fault"
    epochs = 30

    def prepare(self, work: Path, seed: int) -> None:
        rng = _rng(seed, 2)
        seeds = {k: _draw_seed(rng) for k in ("nominal", "degraded", "psm")}
        scenario = loop_scenario(100.0)
        _write_json(work / "gen_nominal.json", {"scenario": scenario, "n_train": 1, "n_test": 1})
        _write_json(work / "gen_degraded.json", {
            "scenario": scenario, "n_train": 1, "n_test": 0,
            "degradation": {"segment_index": 3, "friction_multiplier": 10.0},
        })
        _write_json(work / "train.json", {"widths": [64, 32, 32], "epochs": self.epochs, "batch_size": 128,
                                          "collocation_size": 256, "base_lr": 2e-3, "log_every": 0})
        _write_json(work / "diagnose.json", {"fault_span": [4.0, 5.0]})
        _write_json(work / "seeds.json", seeds)

    def run_round(self, run, index: int) -> RoundResult:
        work = run.work
        seeds = json.loads((work / "seeds.json").read_text())
        dz = np.concatenate([np.full(s["n_elements"], s["length"] / s["n_elements"])
                             for s in loop_scenario(100.0)["segments"]])
        d = work / f"round-{index}"
        res = RoundResult()
        nominal, degraded, psm = d / "nominal", d / "degraded", d / "psm"
        for label, out, cfg in (("gen_data", nominal, "gen_nominal.json"),
                                ("gen_data", degraded, "gen_degraded.json")):
            key = out.name
            if res.command(run, label, ["gen-data", "--config", work / cfg, "--out", out,
                                        "--seed", seeds[key]]):
                res.check(checks.check_manifest, out)
                drifts = [res.check(lambda: checks.check_loop_enthalpy(checks.read_record(p), FLIBE, dz))
                          for p in sorted((out / "records").glob("*.psmd"))]
                res.quality[f"enthalpy_drift_{key}"] = max((x for x in drifts if x is not None), default=None)
        if res.command(run, "train_psm", ["train", "--config", work / "train.json", "--data", nominal,
                                          "--mode", "psm", "--out", psm, "--seed", seeds["psm"]]):
            res.check(checks.check_manifest, psm)
            res.check(checks.check_training_metrics, psm / "metrics.csv", self.epochs, "psm")
        for tag, stream, trips in (("degraded", degraded / "records" / "exp_000.psmd", True),
                                   ("nominal", nominal / "records" / "exp_000.psmd", False)):
            out = d / f"diagnose_{tag}"
            if res.command(run, "diagnose", ["diagnose", "--model", psm, "--data", nominal,
                                             "--stream", stream, "--config", work / "diagnose.json",
                                             "--out", out]):
                res.check(checks.check_manifest, out)
                ratios = res.check(checks.check_detection, out, trips)
                if trips and ratios:
                    res.quality["localization_ratios"] = ratios
        shutil.rmtree(d, ignore_errors=True)
        return res


# ===================== governor =====================


class Governor(Workload):
    """Governed rollouts on the fixed channel model with binding caps."""

    name = "governor"
    min_rounds = 20
    n_steps = 24
    epsilon = 0.01
    input_ranges = [[0.549, 0.749], [804.65, 884.65]]

    def prepare(self, work: Path, seed: int) -> None:
        verify_governor_inputs()
        _write_json(work / "seed.json", {"seed": seed})

    def rollout_config(self, seed: int, index: int) -> dict:
        """Ramp of both inputs toward the hot end against caps at three levels.

        The station-5 cap is the tightest and binds. The levels are kept
        apart: with all three caps within 2 K of one another, their rows are
        nearly coincident, ``hildreth_qp`` ran out of sweeps on some steps
        and the governor fell back, which would fail those steps on some
        seeds only.
        """
        rng = _rng(seed, 3, index)
        u0, u1 = rng.uniform(0.58, 0.72, 2)
        t0, t1 = rng.uniform(815.0, 835.0), rng.uniform(874.0, 884.0)
        top = t1 + channel_outlet_rise(u1, t1)  # steady downstream temperature at the final inputs
        caps = top - np.array([rng.uniform(5.0, 7.0), rng.uniform(8.0, 10.0), rng.uniform(11.0, 13.0)])
        return {
            "environment": "model",
            "n_steps": self.n_steps,
            "update_interval": 2,
            "horizon": 50,
            "epsilon": self.epsilon,
            "references": {"knots": {"times": [0.0, 5.0, 35.0, 5.0 * self.n_steps],
                                     "values": [[u0, t0], [u0, t0], [u1, t1], [u1, t1]]}},
            "schedule": [{"from_step": 0, "constraints": [
                {"type": "temperature_cap", "station_index": s, "cap_kelvin": float(c)}
                for s, c in zip((3, 4, 5), caps)]}],
        }

    def run_round(self, run, index: int) -> RoundResult:
        work = run.work
        seed = json.loads((work / "seed.json").read_text())["seed"]
        d = work / f"round-{index}"
        _write_json(d / "control.json", self.rollout_config(seed, index))
        res = RoundResult()
        ok = res.command(run, "control", ["control", "--model", GOVERNOR_INPUTS / "model",
                                          "--data", GOVERNOR_INPUTS / "data",
                                          "--config", d / "control.json", "--out", d / "out"])
        # an operation is a governed step: a failed command fails all of its steps
        res.attempted, res.failed = self.n_steps, 0 if ok else self.n_steps
        if ok:
            res.check(checks.check_manifest, d / "out")
            rows = checks.read_csv(d / "out" / "rollout.csv")
            statuses = res.check(checks.check_governed_rollout, rows, ["u_in", "T_in"],
                                 self.input_ranges, self.epsilon)
            if statuses is not None:
                res.statuses.update(statuses)
                res.failed = sum(n for s, n in statuses.items() if s.startswith("fallback"))
                if len(rows) != self.n_steps:
                    res.problems.append(f"rollout logged {len(rows)} of {self.n_steps} steps")
        shutil.rmtree(d, ignore_errors=True)
        return res

    def final_checks(self, rounds: list) -> list:
        if sum(r.statuses.get("ok", 0) for r in rounds) == 0:
            return ["the QP never ran: no step was projected by the governor"]
        return []


WORKLOADS = {w.name: w for w in (ChannelStudy(), LoopFault(), Governor())}
