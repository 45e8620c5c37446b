"""Dense head/intermediate/tail network, its derivative kernel and its optimizer.

The surrogate maps a scaled input row (z*, t*, v*, x0*) to the three scaled
field values (p*, u*, T*). Three shared head layers feed one intermediate
layer, which fans out into three independent tail branches, one per field,
each ending in a scalar linear output. Hidden activations are tanh;
outputs are identity. The kernel runs this as one chain of layers,
``CHAIN``; its ``tails`` and ``outs`` carry a leading branch axis of 3 (the
trunk's layers one of 1), with tensors that are views into the unchanged
flat parameter layout.

Every pass goes through one closed-form kernel, ``stacked_forward``. It
carries the B value rows and k forward-mode tangent channels (directional
derivatives along chosen input directions) through each layer as a single
stacked ((k+1)B, w) matmul: the bias enters the value rows only, and the
tanh gate 1 - h^2 scales the tangent rows. ``forward`` is the kernel's value
output. A ``ParamStore`` is the model: its ``spec`` is the architecture.

A pass run in a ``Workspace`` records in the workspace's buffers, which
training reuses batch after batch, what the reverse pass reads;
``Workspace.gradient`` is that hand-written reverse of the last pass
(forward-over-reverse), so a loss built from values and directional
derivatives gets its exact parameter gradient. Passes without one
(``forward``, linearization, residual maps) allocate fresh arrays. A
value-only pass without one (``forward``: model steps, eval rollouts,
prediction errors) forms no tanh gate, since neither tangent rows nor a
reverse read it; its values are bit-identical to a gated pass's.

A pass takes its precision from the store it is given. A store whose flat
vector is float32, as training's copy of the parameters is, runs the pass
and its reverse in float32 in float32 buffers; ``Workspace.gradient`` still
returns float64. The stores that training updates, saves and loads are
float64, so every other pass runs in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Literal

import numpy as np

from .errors import NumericalError
from .transport import ConfigError, _is_kind

__all__ = [
    "MlpSpec",
    "ParamStore",
    "init_params",
    "Workspace",
    "stacked_forward",
    "forward",
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
    activation: Literal["tanh"] = "tanh"  # the only hidden activation; kept so arch.json names it

    def __post_init__(self) -> None:
        for f in fields(self):
            width = getattr(self, f.name)
            if f.name != "activation" and not (_is_kind(width, int) and width >= 1):
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

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views per CHAIN layer, each with a leading branch axis."""
        if "chain" not in self._views:
            self._views["chain"] = _chain_views(self.flat, self.layout)
        return self._views["chain"]

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

CHAIN = ("head0", "head1", "head2", "inter", "tails", "outs")  # the kernel's layers, in order


def _chain_views(flat: np.ndarray, layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of ``flat`` per CHAIN layer, each with a leading branch axis.

    A trunk tensor is its slice of the vector. The fields' [tail.w, tail.b,
    out.w, out.b] blocks have one size and end the vector, so a tails or outs
    tensor is one column slice of those blocks stacked as rows.
    """
    n = len(FIELD_ORDER)
    t0 = layout[-4 * n][2]
    blocks = flat[t0:].reshape(n, -1)
    views = [flat[lo:hi].reshape(1, *shape) for _, shape, lo, hi in layout[: -4 * n]]
    views += [blocks[:, lo - t0 : hi - t0].reshape(n, *shape)
              for _, shape, lo, hi in layout[-4 * n : -4 * (n - 1)]]
    return list(zip(views[::2], views[1::2]))


class Workspace:
    """Buffers that passes of up to ``rows`` rows write into, pass after pass.

    It holds every layer's output stack, the tanh gate and pre-gate tangent
    rows the reverse pass reads, the stacked outputs, and one set of reverse
    scratch shared by all layers. Each buffer is flat and grows to the
    largest pass that takes it; a pass of n rows uses its leading, contiguous
    part. ``gradient`` reverses the last pass, which the next one overwrites.
    """

    def __init__(self, spec: MlpSpec, rows: int, n_directions: int = 0) -> None:
        if rows < 1 or n_directions < 0:
            raise ConfigError("a workspace needs at least one row and no negative direction count")
        self.spec = spec
        self.rows = rows
        self.n_directions = n_directions
        self._flat: dict[str, np.ndarray] = {}
        # the reverse pass's flat gradient and its CHAIN views, in the last pass's dtype like every buffer
        self._grad = self._grad_layers = None
        self._last = None  # last pass: store, outputs, per CHAIN layer (input stack, h, pre-gate tangents, gate)

    def _hold(self, dtype: np.dtype) -> None:
        """Keep buffers of ``dtype`` for the pass about to run, dropping those of another precision."""
        if self._grad is None or self._grad.dtype != dtype:
            layout = _layout(self.spec)
            self._flat = {}
            self._grad = np.empty(layout[-1][3], dtype)
            self._grad_layers = _chain_views(self._grad, layout)

    def take(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """The leading part of one buffer, as a contiguous array of ``shape`` in the workspace's dtype."""
        size = math.prod(shape)
        if key not in self._flat or self._flat[key].size < size:
            self._flat[key] = np.empty(size, self._grad.dtype)
        return self._flat[key][:size].reshape(shape)

    def gradient(self, cotangent) -> np.ndarray:
        """Flat parameter gradient of sum(cotangent * outputs) of the last pass, aligned with the layout.

        The reverse runs in the pass's precision; the gradient is returned as float64.
        """
        if self._last is None:
            raise ValueError("no pass has run in this workspace")
        params, outputs, saved = self._last
        g_out = np.asarray(cotangent, dtype=self._grad.dtype)
        if g_out.shape != outputs.shape:
            raise ConfigError("cotangent shape does not match the stacked outputs")
        g_h = g_out[..., None].transpose(2, 0, 1, 3)  # the outs layer's (branch, stack, row, 1) cotangent
        layers = zip(saved, params.layers(), self._grad_layers)
        for i, ((h_in, h, da, gate), (w, _), (g_w, g_b)) in reversed(list(enumerate(layers))):
            n, n_stack, n_rows, width = g_h.shape
            if gate is None:  # the linear outs
                g_a = g_h
            elif n_stack == 1:  # no tangent rows
                g_a = np.multiply(g_h, gate[:, None], out=self.take("g_a", g_h.shape))
            else:
                g_a = self.take("g_a", g_h.shape)
                g_sum = np.sum(np.multiply(g_h[:, 1:], da, out=g_a[:, 1:]), axis=1,
                               out=self.take("g_sum", gate.shape))
                v = np.multiply(2.0, h, out=g_a[:, 0])
                v *= g_sum
                np.subtract(g_h[:, 0], v, out=v)
                v *= gate
                np.multiply(g_h[:, 1:], gate[:, None], out=g_a[:, 1:])
            g_a2 = g_a.reshape(n, n_stack * n_rows, width)
            np.matmul(g_a2.swapaxes(1, 2), h_in.reshape(h_in.shape[0], n_stack * n_rows, -1), out=g_w)
            # the outs' cotangent keeps the caller's layout; summed from a contiguous
            # copy, each branch's bias sum runs along its rows whatever that layout is
            np.sum(g_a[:, 0] if gate is not None else np.ascontiguousarray(g_a[:, 0]), axis=1, out=g_b)
            if i == 0:  # head0's input cotangent is not needed
                break
            g_in = self.take(("ping", "pong")[i % 2], (n, n_stack, n_rows, w.shape[2]))
            np.matmul(g_a2, w, out=g_in.reshape(n, n_stack * n_rows, -1))
            if h_in.shape[0] < n:  # h_in fed every branch, so its cotangent is their sum
                for part in g_in[1:]:
                    g_in[0] += part
            g_h = g_in[: h_in.shape[0]]
        return self._grad.astype(np.float64)  # a copy; the views tile it, so every entry was written


def _take(ws: Workspace | None, key: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """The workspace's buffer for ``key``, or a fresh ``dtype`` array when there is no workspace."""
    return np.empty(shape, dtype) if ws is None else ws.take(key, shape)


def _layer(name: str, w: np.ndarray, b: np.ndarray, h_in: np.ndarray,
           ws: Workspace | None, saved: list | None) -> np.ndarray:
    """One stacked dense layer on every branch; the result is (branches, k+1, B, width).

    An unbranched ``h_in`` feeds every branch. Hidden layers apply tanh; the
    ``outs`` layer is linear. The tanh gate is formed only when tangent rows
    or a reverse pass read it. With a workspace, the result and what the
    reverse pass reads go into its buffers and are appended to ``saved``.
    """
    _, n_stack, n_rows, _ = h_in.shape
    n, width = w.shape[:2]
    a = _take(ws, name, (n, n_stack, n_rows, width), w.dtype)
    np.matmul(h_in.reshape(h_in.shape[0], n_stack * n_rows, -1), w.swapaxes(1, 2),
              out=a.reshape(n, n_stack * n_rows, width))
    a[:, 0] += b[:, None]
    h = da = gate = None
    if name != "outs":
        h = np.tanh(a[:, 0], out=a[:, 0])
        if n_stack > 1 or saved is not None:  # tangent rows or a reverse pass read the gate
            gate = np.multiply(h, h, out=_take(ws, f"{name}.gate", h.shape, w.dtype))
            np.subtract(1.0, gate, out=gate)
            if saved is not None:
                da = ws.take(f"{name}.da", a[:, 1:].shape)
                np.copyto(da, a[:, 1:])
            a[:, 1:] *= gate[:, None]
    if saved is not None:
        saved.append((h_in, h, da, gate))
    return a


def stacked_forward(params: ParamStore, x, directions=None, workspace: Workspace | None = None) -> np.ndarray:
    """Values and directional derivatives of the net in one stacked pass.

    ``x`` is (B, input_dim); ``directions`` is a (k, input_dim) stack of
    input-space directions applied to every row. Returns the (k+1, B, 3)
    outputs: ``[0]`` the field triple per row, ``[1 + i]`` its derivative
    along direction i. A pass in ``workspace`` (k directions, at least B
    rows) lives in its buffers and records what ``workspace.gradient``
    reads; without one every array is fresh. The pass runs, and returns its
    outputs, in the dtype of ``params.flat``.
    """
    spec, dtype = params.spec, params.flat.dtype
    x = np.asarray(x, dtype=np.float64)
    d = np.empty((0, spec.input_dim)) if directions is None else np.asarray(directions, dtype=np.float64)
    if x.ndim != 2 or d.ndim != 2 or x.shape[1] != spec.input_dim or d.shape[1] != spec.input_dim:
        raise ConfigError(
            f"inputs and directions must have {spec.input_dim} columns, got shapes {x.shape} and {d.shape}"
        )
    n_stack, n_rows = 1 + d.shape[0], x.shape[0]
    ws, saved = workspace, None
    if ws is not None:
        if ws.spec != spec or ws.n_directions != d.shape[0] or n_rows > ws.rows:
            raise ConfigError(
                f"workspace holds {ws.rows} rows with {ws.n_directions} directions; "
                f"the pass needs {n_rows} rows with {d.shape[0]}"
            )
        ws._hold(dtype)
        ws._last, saved = None, []
    shape = (1, n_stack, n_rows, spec.input_dim)
    h = _take(ws, "input", shape, dtype)
    h[0, 0] = x
    h[0, 1:] = d[:, None, :]
    for name, (w, b) in zip(CHAIN, params.layers()):
        h = _layer(name, w, b, h, ws, saved)
    outputs = _take(ws, "outputs", (n_stack, n_rows, len(FIELD_ORDER)), dtype)
    np.copyto(outputs, h[..., 0].transpose(1, 2, 0))
    if ws is not None:
        ws._last = (params, outputs, saved)
    return outputs


def forward(params: ParamStore, x) -> np.ndarray:
    """Batched evaluation: (batch, input_dim) -> (batch, 3); one row -> (3,)."""
    x = np.asarray(x, dtype=np.float64)
    out = stacked_forward(params, np.atleast_2d(x))[0]
    return out[0] if x.ndim == 1 else out


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
    m, v = params.m, params.v
    # the fresh-array formula's ufuncs in its order, on the moments and two scratch vectors: bit-identical
    step, v_hat = np.empty_like(m), np.empty_like(v)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=step)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=step)
    v += np.multiply(step, grad, out=step)
    np.divide(m, 1.0 - ADAM_BETA1**params.step, out=step)  # m_hat
    np.divide(v, 1.0 - ADAM_BETA2**params.step, out=v_hat)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    step *= lr
    step /= v_hat
    params.flat -= step
    return params
