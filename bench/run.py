#!/usr/bin/env python3
"""Benchmark of the flowpsm command line: one workload, one seed, one run.

    python3 bench/run.py --workload channel-study --seed 1 --seconds 30 --trace 0

The run sets up the workload three times (a fresh interpreter importing
flowpsm, plus writing the seeded configs) and reports the median as
``setup_s``. It then calls ``flowpsm.cli.main(argv)`` in this process, round
after round, for about ``--seconds`` seconds, checking every output. With
``--trace 0`` the last line of stdout carries the end-to-end metrics; with
``--trace 1`` the public functions of each layer are wrapped and the line
carries the per-layer metrics instead. BLAS runs on one thread and no
``FLOWPSM_WORKERS`` pool is used. Work files go to ``.bench_runs/`` in the
checkout; the result with machine details and the trace are kept there.
"""

from __future__ import annotations

import os
import sys

# pin BLAS before numpy is first imported, here or in the set-up interpreters
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FLOWPSM_WORKERS", None)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3

sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Runner:
    """Calls the CLI in-process and times each command."""

    def __init__(self, work: Path, tracer) -> None:
        from flowpsm.cli import main

        self.main = main
        self.work = work
        self.tracer = tracer
        self.log: list[str] = []

    def cli(self, label: str, argv: list) -> tuple[int, float]:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{label}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err), span:
            try:
                rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is exit 1 to a user; keep the run going
                traceback.print_exc()
                rc = 1
        seconds = time.perf_counter() - t0
        if rc != 0:
            self.log.append(f"{argv[0]} exited {rc}: {err.getvalue().strip()[-2000:]}")
        return rc, seconds


def set_up(workload, work: Path, seed: int) -> float:
    """One set-up: a fresh interpreter imports flowpsm, then the configs are written."""
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import flowpsm.cli"], env=env, cwd=ROOT, check=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(work, seed)
    return time.perf_counter() - t0


def machine_info() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FLOWPSM_WORKERS")},
    }


def layer_metrics(tracer, rounds: list, count_rounds: int) -> dict:
    """Per-layer metrics: times are median ms per call over the run; counts
    (names ending .calls, .steps, .count, .bytes) cover the first rounds."""
    window = set(range(count_rounds))
    d, med = tracer.durations, tracing.median_ms
    m = {}
    for name in (
        "solver.steady_state", "solver.step", "solver.run_experiment",
        "training.assemble_dataset", "training.physics", "training.backward", "training.optimizer",
        "training.evaluate_records", "network.forward", "network.input_jacobian",
        "control.linearize", "control.build_oinf", "control.cg_solve", "control.hildreth_qp",
        "diagnostics.prediction_errors", "diagnostics.transfer_learn_twin", "diagnostics.signature",
        "formats.save_record", "formats.load_record", "formats.file_digest",
    ):
        m[f"{name}.ms"] = med(d(name))
    for key in ("network.forward", "network.input_jacobian", "control.linearize", "control.hildreth_qp"):
        m[f"{key}.calls"] = len(d(key, window))
    qp = d("control.hildreth_qp")
    m["control.hildreth_qp.max_ms"] = 1e3 * max(qp) if qp else 0.0
    # a batch's measurement pass is its forward_tape plus its measurement_loss
    m["training.measurement.ms"] = med([a + b for a, b in zip(d("training.forward_tape"),
                                                             d("training.measurement_loss"))])
    m["training.batches.count"] = len(d("training.optimizer", window))
    steady = {i for i, s in enumerate(tracer.spans) if s[0] == "solver.steady_state" and s[4] in window}
    marched = sum(1 for s in tracer.spans if s[0] == "solver.step_with_audit" and s[1] in steady)
    m["solver.steady_state.steps"] = marched / len(steady) if steady else 0.0
    for status in ("ok", "at_reference"):
        m[f"control.status.{status}.count"] = sum(r.statuses.get(status, 0) for r in rounds[:count_rounds])
    m["formats.bytes"] = sum(tracer.bytes_written.get(r, 0) for r in window)
    for label in ("gen_data", "train_psm", "train_ann", "eval", "control", "diagnose"):
        m[f"cli.{label}.ms"] = med(d(f"cli.{label}"))
    m["round.ms"] = 1e3 * statistics.median(r.seconds for r in rounds)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = RUNS / f"{tag}-p{os.getpid()}"
    setup = [set_up(workload, work, args.seed) for _ in range(SETUP_REPEATS)]

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(work, tracer)
    if tracer:
        tracer.install()

    rounds = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.round = len(rounds)
        rounds.append(workload.run_round(runner, len(rounds)))
        elapsed = time.perf_counter() - start
        # stop at the round end nearest to --seconds, after the counted rounds
        if len(rounds) >= workload.min_rounds and elapsed + rounds[-1].seconds / 2 >= args.seconds:
            break
    measured = time.perf_counter() - start

    problems = [p for r in rounds for p in r.problems] + workload.final_checks(rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        values = layer_metrics(tracer, rounds, workload.min_rounds)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.seconds for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine_info(), "setup_s": setup, "measured_s": measured,
        "rounds": [{"seconds": r.seconds, "commands": r.commands, "statuses": dict(r.statuses),
                    "quality": r.quality} for r in rounds],
        "problems": problems, "command_errors": runner.log, "metrics": metrics,
    }
    if tracer:
        tracer.dump(RUNS / f"trace-{tag}.json")
        details["layers"] = tracer.layer_summary()
    (RUNS / f"result-{tag}.json").write_text(json.dumps(details, indent=1, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for line in problems + runner.log:
        print(f"bench: {line}", file=sys.stderr)
    print(f"bench: {workload.name} seed {args.seed}: {len(rounds)} rounds in {measured:.1f} s, "
          f"{attempted} operations, {failed} failed, {len(problems)} check failures", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
