#!/usr/bin/env python3
"""Remake the fixed model and scaling that the governor workload reads.

    python3 bench/make_governor_inputs.py

Runs ``flowpsm gen-data`` on a seeded five-episode heated-channel corpus and
``flowpsm train --mode psm`` at narrow widths, then writes into
``bench/governor_inputs/``:

- ``data/dataset.json`` (scenario and split, with the record lists emptied,
  since ``control`` reads only the scenario and the scaling) and
  ``data/scaling.json``;
- ``model/arch.json`` and ``model/checkpoint.psmw`` (parameters only, the
  optimizer moments dropped);
- ``inputs.json`` with the recipe and the SHA-256 of each file, which the
  benchmark verifies before it runs.

The governor workload keeps these files fixed so that a changed solver or
changed training arithmetic does not change the QP problems it solves. The
narrow widths keep linearization cheap next to the QP. The model must
linearize with spectral radius below 1 wherever the workloads take it, or
``control`` exits 3; an under-trained model does not, such as the ann model
trained this way at the default widths 200/100/100.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FLOWPSM_WORKERS", None)

import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from flowpsm.cli import main as flowpsm  # noqa: E402
from flowpsm.formats import load_checkpoint, save_checkpoint  # noqa: E402
from flowpsm.network import MlpSpec, ParamStore  # noqa: E402

OUT = Path(__file__).resolve().parent / "governor_inputs"
SCRATCH = ROOT / ".bench_runs" / "make-governor-inputs"

RECIPE = {
    "gen_data": {"preset": "heated_channel", "n_train": 5, "n_test": 0},
    "gen_seed": 2024,
    "train": {"widths": [64, 32, 32], "epochs": 30, "batch_size": 256, "collocation_size": 256,
              "base_lr": 2e-3, "log_every": 0},
    "train_mode": "psm",
    "train_seed": 7,
}


def _run(argv: list) -> None:
    rc = flowpsm([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"flowpsm {argv[0]} exited {rc}")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    (SCRATCH / "gen.json").write_text(json.dumps(RECIPE["gen_data"]))
    (SCRATCH / "train.json").write_text(json.dumps(RECIPE["train"]))
    _run(["gen-data", "--config", SCRATCH / "gen.json", "--out", SCRATCH / "data",
          "--seed", RECIPE["gen_seed"]])
    _run(["train", "--config", SCRATCH / "train.json", "--data", SCRATCH / "data",
          "--mode", RECIPE["train_mode"], "--out", SCRATCH / "model", "--seed", RECIPE["train_seed"]])

    shutil.rmtree(OUT, ignore_errors=True)
    (OUT / "data").mkdir(parents=True)
    (OUT / "model").mkdir()
    dataset = json.loads((SCRATCH / "data" / "dataset.json").read_text())
    dataset["train_records"], dataset["test_records"] = [], []
    (OUT / "data" / "dataset.json").write_text(json.dumps(dataset, indent=2, sort_keys=True) + "\n")
    shutil.copyfile(SCRATCH / "data" / "scaling.json", OUT / "data" / "scaling.json")
    shutil.copyfile(SCRATCH / "model" / "arch.json", OUT / "model" / "arch.json")
    arch = json.loads((OUT / "model" / "arch.json").read_text())
    spec = MlpSpec(input_dim=arch["input_dim"], head_width=arch["head_width"],
                   intermediate_width=arch["intermediate_width"], tail_width=arch["tail_width"],
                   activation=arch["activation"])
    trained = load_checkpoint(SCRATCH / "model" / "checkpoint.psmw", spec)
    save_checkpoint(OUT / "model" / "checkpoint.psmw",
                    ParamStore(spec=spec, flat=trained.flat, layout=trained.layout))

    files = ["data/dataset.json", "data/scaling.json", "model/arch.json", "model/checkpoint.psmw"]
    doc = {
        "recipe": RECIPE,
        "sha256": {f: hashlib.sha256((OUT / f).read_bytes()).hexdigest() for f in files},
    }
    (OUT / "inputs.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"governor inputs written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
