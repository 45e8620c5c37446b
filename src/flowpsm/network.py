"""Dense head/intermediate/tail network, its derivative kernel and its optimizer.

The surrogate maps a scaled input row (z*, t*, v*, x0*) to the three scaled
field values (p*, u*, T*). Three shared head layers feed one intermediate
layer, which fans out into three independent tail branches, one per field,
each ending in a scalar linear output. Hidden activations are tanh;
outputs are identity.

Every pass goes through one closed-form kernel, ``stacked_forward``. It
carries the B value rows and k forward-mode tangent channels (directional
derivatives along chosen input directions) through each layer as a single
stacked ((k+1)B, w) matmul: the bias enters the value rows only, and the
tanh gate 1 - h^2 scales the tangent rows. ``StackedPass.gradient`` is the
hand-written reverse pass through that stack (forward-over-reverse), so a
loss built from values and directional derivatives gets its exact
parameter gradient. ``forward`` and ``input_jacobian`` are the kernel's
value and tangent outputs.

A pass made for the reverse (``keep``) writes its activations, the saved
tanh gates and pre-gate tangent rows, its outputs and the reverse pass's
scratch into a ``Workspace``. Training holds one per pass kind for the whole
run, sized for its largest batch, so no batch maps fresh pages; a smaller
batch uses the leading part of each buffer. The reverse pass shares one set
of scratch across layers. A StackedPass built on a workspace is valid until
the next pass on that workspace. Passes without ``keep`` (``forward``,
``input_jacobian``, linearization, residual maps) allocate fresh arrays, so
their results stay valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NumericalError
from .transport import ConfigError, _is_int

__all__ = [
    "MlpSpec",
    "ParamStore",
    "init_params",
    "StackedPass",
    "Workspace",
    "stacked_forward",
    "forward",
    "input_jacobian",
    "optimizer_step",
    "learning_rate",
    "FIELD_ORDER",
]

FIELD_ORDER = ("p", "u", "T")  # tail branch order

# adaptive-moment constants
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: widths of the head (3 layers), intermediate, and tails."""

    input_dim: int
    head_width: int = 200
    intermediate_width: int = 100
    tail_width: int = 100
    activation: str = "tanh"  # the only hidden activation; kept so arch.json names it

    def __post_init__(self) -> None:
        for f in fields(self):
            width = getattr(self, f.name)
            if f.name != "activation" and not (_is_int(width) and width >= 1):
                raise ConfigError(f"{f.name!r} must be an integer >= 1, got {width!r}")
        if self.activation != "tanh":
            raise ConfigError(f"unknown activation {self.activation!r}")

    def layer_shapes(self) -> list[tuple[str, tuple[int, int]]]:
        """(name, (out, in)) per weight matrix, in evaluation order."""
        sh, si, st = self.head_width, self.intermediate_width, self.tail_width
        shapes = [
            ("head0", (sh, self.input_dim)),
            ("head1", (sh, sh)),
            ("head2", (sh, sh)),
            ("inter", (si, sh)),
        ]
        for name in FIELD_ORDER:
            shapes.append((f"tail_{name}", (st, si)))
            shapes.append((f"out_{name}", (1, st)))
        return shapes


@dataclass
class ParamStore:
    """Flat parameter vector with named per-layer views, plus Adam moments.

    The views tile the flat vector exactly once: weights first then bias for
    each layer, in evaluation order.
    """

    spec: MlpSpec
    flat: np.ndarray
    layout: tuple[tuple[str, tuple[int, ...], int, int], ...]
    m: np.ndarray | None = None  # first moment
    v: np.ndarray | None = None  # second moment
    step: int = 0
    _views: dict = field(default_factory=dict, repr=False)

    def view(self, name: str) -> np.ndarray:
        """Writable ndarray view into the flat vector for one layer tensor."""
        cached = self._views.get(name)
        if cached is not None:
            return cached
        for nm, shape, start, stop in self.layout:
            if nm == name:
                out = self.flat[start:stop].reshape(shape)
                self._views[name] = out
                return out
        raise KeyError(name)

    @property
    def n_params(self) -> int:
        return self.flat.size


def _layout(spec: MlpSpec) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    entries = []
    cursor = 0
    for name, (out, inp) in spec.layer_shapes():
        entries.append((f"{name}.w", (out, inp), cursor, cursor + out * inp))
        cursor += out * inp
        entries.append((f"{name}.b", (out,), cursor, cursor + out))
        cursor += out
    return tuple(entries)


def init_params(spec: MlpSpec, seed: int) -> ParamStore:
    """Fan-in-scaled symmetric uniform weights, zero biases, seeded."""
    layout = _layout(spec)
    flat = np.zeros(layout[-1][3])
    store = ParamStore(spec=spec, flat=flat, layout=layout)
    rng = np.random.default_rng(seed)
    for name, (out, inp) in spec.layer_shapes():
        bound = 1.0 / np.sqrt(inp)
        store.view(f"{name}.w")[:] = rng.uniform(-bound, bound, size=(out, inp))
        # biases stay zero
    return store


# ===================== forward passes =====================

_TRUNK = ("head0", "head1", "head2", "inter")


class Workspace:
    """Buffers that keep-passes of up to ``rows`` rows write into, pass after pass.

    It holds every layer's output stack, the tanh gate and pre-gate tangent
    rows the reverse pass reads, the stacked outputs, and one set of reverse
    scratch shared by all layers. Each buffer is flat; a pass of n rows uses
    its leading, contiguous part. A StackedPass built on a workspace is valid
    until the next pass on that workspace, which overwrites it.
    """

    def __init__(self, spec: MlpSpec, rows: int, n_directions: int = 0) -> None:
        if rows < 1 or n_directions < 0:
            raise ConfigError("a workspace needs at least one row and no negative direction count")
        self.spec = spec
        self.rows = rows
        self.n_directions = n_directions
        self.passes = 0  # keep-passes made on this workspace
        stack = (n_directions + 1) * rows
        widths = {name: out for name, (out, _) in spec.layer_shapes()}
        wide = max(widths.values())
        sizes = {"input": stack * spec.input_dim, "outputs": stack * 3,
                 "g_a": stack * wide, "g_sum": rows * wide, "ping": stack * wide,
                 "pong": stack * wide, "g_inter": stack * spec.intermediate_width}
        for name, width in widths.items():
            sizes[name] = stack * width
            if not name.startswith("out_"):
                sizes[f"{name}.gate"] = rows * width
                sizes[f"{name}.da"] = n_directions * rows * width
        self._flat = {key: np.empty(size) for key, size in sizes.items()}

    def take(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """The leading part of one buffer, as a contiguous array of ``shape``."""
        return self._flat[key][: math.prod(shape)].reshape(shape)


@dataclass
class StackedPass:
    """One kernel call: stacked outputs, plus what the reverse pass reads.

    ``outputs[0]`` is the (B, 3) field triple per row and ``outputs[1 + i]``
    its directional derivative along direction i. A keep-pass lives in its
    workspace and is valid until the next pass on that workspace.
    """

    spec: MlpSpec
    params: ParamStore
    outputs: np.ndarray  # (k+1, B, 3)
    saved: dict | None  # layer name -> (input stack, tanh value h, pre-gate tangent rows, gate 1 - h^2)
    workspace: Workspace | None = None
    pass_index: int = 0  # the workspace's pass count when this pass was made

    def gradient(self, cotangent) -> np.ndarray:
        """Flat parameter gradient of sum(cotangent * outputs), aligned with the layout."""
        if self.saved is None:
            raise ValueError("stacked_forward was called without keep=True")
        if self.workspace.passes != self.pass_index:
            raise ValueError("a later pass on this workspace has overwritten the saved activations")
        g_out = np.asarray(cotangent, dtype=np.float64)
        if g_out.shape != self.outputs.shape:
            raise ConfigError("cotangent shape does not match the stacked outputs")
        grad = ParamStore(spec=self.spec, flat=np.zeros_like(self.params.flat),
                          layout=self.params.layout)
        n_stack, n_rows, _ = g_out.shape
        ws = self.workspace
        g_inter = ws.take("g_inter", (n_stack, n_rows, self.spec.intermediate_width))
        for f, fname in enumerate(FIELD_ORDER):
            g = self._layer_vjp(f"out_{fname}", g_out[:, :, f : f + 1], grad, "ping")
            if f == 0:
                self._layer_vjp(f"tail_{fname}", g, grad, g_inter)
            else:
                g_inter += self._layer_vjp(f"tail_{fname}", g, grad, "pong")
        g = g_inter
        for name, out in zip(reversed(_TRUNK), ("ping", "pong", "ping", None)):
            g = self._layer_vjp(name, g, grad, out)
        return grad.flat

    def _layer_vjp(self, name: str, g_h: np.ndarray, grad: ParamStore, out) -> np.ndarray | None:
        """Weight and bias gradients of one layer.

        Its input cotangent goes to ``out`` (an array, or the name of a
        workspace buffer) and is returned; with ``out`` None it is skipped.
        """
        h_in, h, da, gate = self.saved[name]
        ws = self.workspace
        if gate is None:
            g_a = g_h
        elif g_h.shape[0] == 1:  # no tangent rows
            g_a = np.multiply(g_h, gate, out=ws.take("g_a", g_h.shape))
        else:
            g_a = ws.take("g_a", g_h.shape)
            g_sum = np.sum(np.multiply(g_h[1:], da, out=g_a[1:]), axis=0,
                           out=ws.take("g_sum", gate.shape))
            v = np.multiply(2.0, h, out=g_a[0])
            v *= g_sum
            np.subtract(g_h[0], v, out=v)
            v *= gate
            np.multiply(g_h[1:], gate, out=g_a[1:])
        rows = g_a.shape[0] * g_a.shape[1]
        w = self.params.view(f"{name}.w")
        g_a2 = g_a.reshape(rows, -1)
        np.matmul(g_a2.T, h_in.reshape(rows, -1), out=grad.view(f"{name}.w"))
        np.sum(g_a[0], axis=0, out=grad.view(f"{name}.b"))
        if out is None:
            return None
        if isinstance(out, str):
            out = ws.take(out, h_in.shape)
        np.matmul(g_a2, w, out=out.reshape(rows, -1))
        return out


def _layer(params: ParamStore, name: str, h_in: np.ndarray,
           ws: Workspace | None = None, saved: dict | None = None) -> np.ndarray:
    """One stacked dense layer; h_in and the result are (k+1, B, width).

    Hidden layers apply tanh; the ``out_`` layers are linear.

    Without a workspace the result is a fresh array, updated in place. With
    one, the result and what the reverse pass reads go into its buffers and
    are recorded in ``saved``.
    """
    n_stack, n_rows, _ = h_in.shape
    w = params.view(f"{name}.w")
    h_in2 = h_in.reshape(n_stack * n_rows, -1)
    if ws is None:
        a = (h_in2 @ w.T).reshape(n_stack, n_rows, -1)
    else:
        a = ws.take(name, (n_stack, n_rows, w.shape[0]))
        np.matmul(h_in2, w.T, out=a.reshape(n_stack * n_rows, -1))
    a[0] += params.view(f"{name}.b")
    if name.startswith("out_"):
        if saved is not None:
            saved[name] = (h_in, None, None, None)
        return a
    h = np.tanh(a[0], out=a[0])
    gate = h * h if ws is None else np.multiply(h, h, out=ws.take(f"{name}.gate", h.shape))
    np.subtract(1.0, gate, out=gate)
    if saved is not None:
        da = ws.take(f"{name}.da", a[1:].shape)
        np.copyto(da, a[1:])
        saved[name] = (h_in, h, da, gate)
    a[1:] *= gate
    return a


def stacked_forward(spec: MlpSpec, params: ParamStore, x, directions=None,
                    keep: bool = False, workspace: Workspace | None = None) -> StackedPass:
    """Values and directional derivatives of the net in one stacked pass.

    ``x`` is (B, input_dim); ``directions`` is a (k, input_dim) stack of
    input-space directions applied to every row. With ``keep`` the layer
    activations are saved so ``gradient`` can run the reverse pass. A keep
    pass writes into ``workspace`` (a fresh one when None), which must have
    k directions and at least B rows; passing a workspace implies ``keep``.
    Without ``keep`` every array is fresh and the pass saves nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    d = np.empty((0, spec.input_dim)) if directions is None else np.asarray(directions, dtype=np.float64)
    if x.ndim != 2 or d.ndim != 2 or x.shape[1] != spec.input_dim or d.shape[1] != spec.input_dim:
        raise ConfigError(
            f"inputs and directions must have {spec.input_dim} columns, got shapes {x.shape} and {d.shape}"
        )
    n_stack, n_rows = 1 + d.shape[0], x.shape[0]
    ws, saved = workspace, None
    if keep or ws is not None:
        if ws is None:
            ws = Workspace(spec, n_rows, d.shape[0])
        if ws.spec != spec or ws.n_directions != d.shape[0] or n_rows > ws.rows:
            raise ConfigError(
                f"workspace holds {ws.rows} rows with {ws.n_directions} directions; "
                f"the pass needs {n_rows} rows with {d.shape[0]}"
            )
        ws.passes += 1
        saved = {}
    shape = (n_stack, n_rows, spec.input_dim)
    h = np.empty(shape) if ws is None else ws.take("input", shape)
    h[0] = x
    h[1:] = d[:, None, :]
    for name in _TRUNK:
        h = _layer(params, name, h, ws, saved)
    cols = [_layer(params, f"out_{fname}", _layer(params, f"tail_{fname}", h, ws, saved), ws, saved)
            for fname in FIELD_ORDER]
    outputs = None if ws is None else ws.take("outputs", (n_stack, n_rows, 3))
    return StackedPass(spec=spec, params=params, outputs=np.concatenate(cols, axis=2, out=outputs),
                       saved=saved, workspace=ws, pass_index=0 if ws is None else ws.passes)


def forward(spec: MlpSpec, params: ParamStore, x) -> np.ndarray:
    """Batched evaluation: (batch, input_dim) -> (batch, 3); one row -> (3,)."""
    x = np.asarray(x, dtype=np.float64)
    out = stacked_forward(spec, params, np.atleast_2d(x)).outputs[0]
    return out[0] if x.ndim == 1 else out


def input_jacobian(spec: MlpSpec, params: ParamStore, x, directions) -> np.ndarray:
    """Directional derivatives d(outputs)/d(inputs) . direction for a stack of directions.

    ``directions`` is one input-space vector, giving an array with x's batch
    shape and 3 output columns, or a (k, input_dim) stack, giving one such
    array per direction along a leading axis. Each direction applies to
    every row.
    """
    x = np.asarray(x, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    out = stacked_forward(spec, params, np.atleast_2d(x), np.atleast_2d(d)).outputs[1:]
    if x.ndim == 1:
        out = out[:, 0]
    return out[0] if d.ndim == 1 else out


# ===================== optimizer =====================


def learning_rate(base_lr: float, epoch: int) -> float:
    """Step-decay schedule: halve every 50 epochs; ``epoch`` is 1-based."""
    if epoch < 1:
        raise ConfigError("epoch numbering starts at 1")
    return base_lr * 0.5 ** (epoch // 50)


def optimizer_step(params: ParamStore, grad: np.ndarray, lr: float) -> ParamStore:
    """In-place adaptive-moment update; returns the store for chaining."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.flat.shape:
        raise ConfigError("gradient shape does not match the parameter vector")
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient; optimizer step aborted")
    if params.m is None:
        params.m = np.zeros_like(params.flat)
        params.v = np.zeros_like(params.flat)
    params.step += 1
    params.m = ADAM_BETA1 * params.m + (1.0 - ADAM_BETA1) * grad
    params.v = ADAM_BETA2 * params.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = params.m / (1.0 - ADAM_BETA1**params.step)
    v_hat = params.v / (1.0 - ADAM_BETA2**params.step)
    params.flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params
