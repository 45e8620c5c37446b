"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of flowpsm's modules from outside the
program. Each wrapper replaces the function everywhere a caller looks it up:
the defining module and every module that imported the name (``control``
imports ``forward``, ``step`` and ``steady_state``; ``cli`` imports
``steady_state`` and ``run_experiment``).
Spans are kept in memory with their parent span and written out at the end.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager

# (span name, module, attribute) of every traced function. A dotted attribute
# names a method on a class of that module.
TARGETS = (
    ("solver.steady_state", "solver", "steady_state"),
    ("solver.step", "solver", "step"),
    ("solver.step_with_audit", "solver", "step_with_audit"),
    ("solver.run_experiment", "solver", "run_experiment"),
    ("training.assemble_dataset", "training", "assemble_dataset"),
    ("training.train", "training", "train"),
    ("training.forward_tape", "network", "forward_tape"),
    ("training.measurement_loss", "training", "measurement_loss"),
    ("training.physics", "training", "physics_loss"),
    ("training.backward", "autodiff", "Tensor.backward"),
    ("training.optimizer", "network", "optimizer_step"),
    ("training.evaluate_records", "training", "evaluate_records"),
    ("network.forward", "network", "forward"),
    ("network.input_jacobian", "network", "input_jacobian"),
    ("control.ncg_rollout", "control", "ncg_rollout"),
    ("control.linearize", "control", "linearize"),
    ("control.build_oinf", "control", "build_oinf"),
    ("control.cg_solve", "control", "cg_solve"),
    ("control.hildreth_qp", "control", "hildreth_qp"),
    ("diagnostics.prediction_errors", "diagnostics", "prediction_errors"),
    ("diagnostics.transfer_learn_twin", "diagnostics", "transfer_learn_twin"),
    ("diagnostics.pde_residuals", "diagnostics", "pde_residuals"),
    ("diagnostics.signature", "diagnostics", "signature"),
    ("formats.save_record", "formats", "save_record"),
    ("formats.load_record", "formats", "load_record"),
    ("formats.file_digest", "formats", "file_digest"),
    ("formats.save_checkpoint", "formats", "save_checkpoint"),
    ("formats.load_checkpoint", "formats", "load_checkpoint"),
    ("formats.save_scaling", "formats", "save_scaling"),
    ("formats.write_metrics", "formats", "write_metrics"),
    ("formats.write_rollout_log", "formats", "write_rollout_log"),
    ("formats.write_signature_csv", "formats", "write_signature_csv"),
)

# writers whose first argument is the path of the file they write
_WRITERS = {
    "formats.save_record", "formats.save_checkpoint", "formats.save_scaling",
    "formats.write_metrics", "formats.write_rollout_log", "formats.write_signature_csv",
}


class Tracer:
    """Records (name, parent, start, end, round) spans and bytes written."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, t0, t1, round]
        self.bytes_written: dict[int, int] = {}  # round -> bytes
        self.round = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, self.round])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][3] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        is_writer = name in _WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                if is_writer and args and os.path.exists(args[0]):
                    self.bytes_written[self.round] = (
                        self.bytes_written.get(self.round, 0) + os.path.getsize(args[0]))

        return traced

    def install(self) -> None:
        """Wrap every target wherever flowpsm's modules look it up.

        A target whose module or function no longer exists is skipped, and
        its metrics read 0.
        """
        import importlib
        import pkgutil

        import flowpsm

        by_name = {m.name: importlib.import_module(f"flowpsm.{m.name}")
                   for m in pkgutil.iter_modules(flowpsm.__path__)}
        modules = list(by_name.values())
        for name, mod_name, attr in TARGETS:
            owner = by_name.get(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if hasattr(cls, meth):
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    # ----- summaries -----

    def durations(self, name: str, rounds=None) -> list[float]:
        return [s[3] - s[2] for s in self.spans
                if s[0] == name and (rounds is None or s[4] in rounds)]

    def layer_summary(self) -> dict:
        """Per span name: calls, total and self time in ms."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child_time[s[1]] += s[3] - s[2]
        out: dict = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = s[3] - s[2]
            row["calls"] += 1
            row["total_ms"] += 1e3 * dur
            row["self_ms"] += 1e3 * (dur - child_time[i])
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            "fields": ["name", "parent", "start_s", "end_s", "round"],
            "spans": [[s[0], s[1], round(s[2] - t0, 9), round(s[3] - t0, 9), s[4]]
                      for s in self.spans],
            "layers": self.layer_summary(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def median_ms(values: list[float]) -> float:
    """Median in ms; 0.0 when the layer was never called."""
    return 1e3 * statistics.median(values) if values else 0.0
