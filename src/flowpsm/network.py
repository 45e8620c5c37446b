"""Dense head/intermediate/tail network, its derivative kernel and its optimizer.

The surrogate maps a scaled input row (z*, t*, v*, x0*) to the three scaled
field values (p*, u*, T*). Three shared head layers feed one intermediate
layer, which fans out into three independent tail branches, one per field,
each ending in a scalar linear output. Hidden activations are tanh;
outputs are identity. The kernel runs this as one chain of plain 2-D
layers, ``CHAIN``: the three tails as one wide (intermediate -> 3 tail)
layer and the three outputs as one block-diagonal (3 tail -> 3) layer. Each
pass gathers those two layers' weights from the unchanged flat parameter
layout, so checkpoints keep their format.

Training and the residual maps go through one closed-form kernel,
``stacked_forward``. Its rows are a value block, value-only rows ahead of
the B rows that carry tangents, and then k blocks of B forward-mode tangent
rows (directional derivatives along chosen input directions). Each layer is
one matmul over all rows: the bias enters the value rows only, and the tanh
gate 1 - h^2 scales the tangent rows. head0's tangent pre-activations are
its directions' d W0^T, broadcast over the rows. A ``ParamStore`` is the
model: its ``spec`` is the architecture.

A pass run in a ``Workspace`` records in the workspace's buffers, which
training reuses batch after batch, what the reverse pass reads;
``Workspace.gradient`` is that hand-written reverse of the last pass
(forward-over-reverse), so a loss built from values and directional
derivatives gets its exact parameter gradient. The tanh reverse reads the
saved post-gate tangents, which are the next layer's input. Training runs a
psm batch as one such pass, its measurement rows as value-only rows beside
the collocation rows, and one reverse. Passes without a workspace allocate
fresh arrays.

``forward`` (model steps, eval rollouts, prediction errors) is a plain value
pass: per CHAIN layer a matmul, the bias and tanh, and no gate, since nothing
reads one; its values are bit-identical to the kernel's value rows.
``input_jacobian`` runs the same value pass, then one reverse sweep for the
input Jacobian of all three outputs, which the governors' linearization
reads: 3B cotangent rows, fewer than the input_dim B tangent rows forward
mode would carry.

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
    _layers: list | None = field(default=None, repr=False)

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views per CHAIN layer; the tails' and outs' carry a leading branch axis."""
        if self._layers is None:
            self._layers = _chain_views(self.flat, self.layout)
        return self._layers

    def view(self, name: str) -> np.ndarray:
        """Writable ndarray view into the flat vector for one layer tensor."""
        for nm, shape, start, stop in self.layout:
            if nm == name:
                return self.flat[start:stop].reshape(shape)
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
_BRANCHES = np.arange(len(FIELD_ORDER))


def _chain_views(flat: np.ndarray, layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of ``flat`` per CHAIN layer.

    A trunk layer's are its (out, in) and (out,) slices. The fields' [tail.w,
    tail.b, out.w, out.b] blocks have one size and end the vector, so each
    tails or outs tensor is one column slice of those blocks stacked as rows:
    tails (3, tail, inter) and (3, tail), outs (3, tail) and (3,).
    """
    n = len(FIELD_ORDER)
    t0 = layout[-4 * n][2]
    blocks = flat[t0:].reshape(n, -1)
    views = [flat[lo:hi].reshape(shape) for _, shape, lo, hi in layout[: -4 * n]]
    tw, tb, ow, ob = (blocks[:, lo - t0 : hi - t0].reshape(n, *shape)
                      for _, shape, lo, hi in layout[-4 * n : -4 * (n - 1)])
    views += [tw, tb, ow[:, 0], ob[:, 0]]
    return list(zip(views[::2], views[1::2]))


class Workspace:
    """Buffers that the passes of one ``spec``'s networks write into, pass after pass.

    It holds the pass's input block and gathered tail and output weights,
    every layer's (rows, width) output, the tanh gates the reverse pass reads,
    and one set of reverse scratch shared by all layers. Each buffer is flat
    and grows to the largest pass that takes it, whatever its row and
    direction counts; a pass uses its leading, contiguous part. ``gradient``
    reverses the last pass, which the next one overwrites.
    """

    def __init__(self, spec: MlpSpec) -> None:
        self.spec = spec
        self._flat: dict[str, np.ndarray] = {}
        # the reverse pass's flat gradient and its CHAIN views, in the last pass's dtype like every buffer
        self._grad = self._grad_layers = None
        # the last pass: its row counts, whether it returned a pair, and per CHAIN layer
        # its (weight, bias) and (input, output, gate)
        self._last = None

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

        ``cotangent`` is shaped as the pass's outputs: the (k+1, B, 3) stack,
        or the (value-row, stack) pair of a pass with value-only rows. The
        reverse runs in the pass's precision; the gradient is returned as
        float64.
        """
        if self._last is None:
            raise ValueError("no pass has run in this workspace")
        (n_values, n_rows, k), paired, weights, saved = self._last
        n_val = n_values + n_rows
        parts = cotangent if paired else (np.empty((0, 3)), cotangent)
        if not isinstance(parts, tuple) or len(parts) != 2:
            raise ConfigError("a pass with value rows takes a (value-row, stack) cotangent pair")
        g_h = self.take("g_out", (n_val + k * n_rows, len(FIELD_ORDER)))
        for rows, part in zip((g_h[:n_values], g_h[n_values:].reshape(k + 1, n_rows, -1)), parts):
            if np.shape(part) != rows.shape:
                raise ConfigError("cotangent shape does not match the pass's outputs")
            np.copyto(rows, part)
        ones = self.take("ones", (n_val,))  # row sums run as matrix-vector products
        ones.fill(1.0)
        for i in reversed(range(len(CHAIN))):
            (w, _), (h_in, out, gate), (g_w, g_b) = weights[i], saved[i], self._grad_layers[i]
            if gate is None:  # the linear outs
                g_a = g_h
            else:
                g_a = self.take("g_a", out.shape)
                np.multiply(g_h[:n_val], gate, out=g_a[:n_val])
                if k:
                    # h = tanh(a) with tangents t = (1 - h^2) da: the value rows' cotangent also takes
                    # -2h * sum over directions of g_t * t
                    g_t, g_at = (y[n_val:].reshape(k, n_rows, -1) for y in (g_h, g_a))
                    # summed into g_at[0], which the gated tangent cotangents overwrite after
                    s, *rest = np.multiply(g_t, out[n_val:].reshape(g_t.shape), out=g_at)
                    for part in rest:
                        s += part
                    s *= out[n_values:n_val]
                    s *= 2.0
                    g_a[n_values:n_val] -= s
                    np.multiply(g_t, gate[n_values:], out=g_at)
            # the tails' and outs' gradient views are per branch, so theirs go through scratch
            w_full = g_w if g_w.shape == w.shape else self.take("g_w", w.shape)
            b_full = g_b if g_b.flags.c_contiguous else self.take("g_b", w.shape[:1])
            rows = n_val if i == 0 else len(g_a)  # head0's tangent input rows are its directions
            np.matmul(g_a[:rows].T, h_in[:rows], out=w_full)
            if i == 0 and k:
                sums = np.matmul(ones[:n_rows], g_a[n_val:].reshape(k, n_rows, -1),
                                 out=self.take("g_sum", (k, w.shape[0])))
                w_full += sums.T @ h_in[n_val:]
            np.matmul(ones, g_a[:n_val], out=b_full)
            if gate is None:  # only the block diagonal of the outs' weight is a parameter
                np.copyto(g_w, w_full.reshape(len(FIELD_ORDER), len(FIELD_ORDER), -1)[_BRANCHES, _BRANCHES])
            elif w_full is not g_w:
                np.copyto(g_w, w_full.reshape(g_w.shape))
            if b_full is not g_b:
                np.copyto(g_b, b_full.reshape(g_b.shape))
            if i == 0:  # head0's input cotangent is not needed
                break
            g_h = np.matmul(g_a, w, out=self.take(("ping", "pong")[i % 2], h_in.shape))
        return self._grad.astype(np.float64)  # a copy; the views tile it, so every entry was written


def _take(ws: Workspace | None, key: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """The workspace's buffer for ``key``, or a fresh ``dtype`` array when there is no workspace."""
    return np.empty(shape, dtype) if ws is None else ws.take(key, shape)


def _pass_weights(params: ParamStore, ws: Workspace | None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight (out, in), bias) per CHAIN layer for one pass.

    The trunk's are the store's views. The three tails are gathered into one
    (3 tail, inter) layer, and the three scalar outputs into one
    block-diagonal (3, 3 tail) layer, held as its contiguous transpose, on
    which its forward matmul runs about twice as fast. Both are gathered
    afresh each pass, since the store is updated in place.
    """
    *trunk, (tw, tb), (ow, ob) = params.layers()
    n, t, width = tw.shape
    dtype = params.flat.dtype
    w_tails = _take(ws, "tails.w", (n * t, width), dtype)
    np.copyto(w_tails.reshape(tw.shape), tw)
    b_tails = _take(ws, "tails.b", (n * t,), dtype)
    np.copyto(b_tails.reshape(tb.shape), tb)
    w_outs = _take(ws, "outs.w", (n * t, n), dtype)
    w_outs.fill(0.0)
    w_outs.reshape(n, t, n)[_BRANCHES, :, _BRANCHES] = ow
    return [*trunk, (w_tails, b_tails), (w_outs.T, ob)]


def _layer(name: str, w: np.ndarray, b: np.ndarray, h_in: np.ndarray, counts: tuple[int, int, int],
           ws: Workspace | None, saved: list | None) -> np.ndarray:
    """One dense layer on the stacked rows; the result is (rows, width).

    The rows are ``counts`` = (M, B, k): M value-only rows and B
    tangent-carrying rows, then k blocks of B tangent rows. head0's input
    holds the k directions in place of its tangent rows, so its tangent
    pre-activations are those directions' rows broadcast. Hidden layers
    apply tanh, and the gate 1 - h^2 scales the tangent rows; the ``outs``
    layer is linear. The gate covers the tangent-carrying rows, and the
    value-only rows too when a reverse pass reads it. With a workspace, the
    result and what the reverse pass reads go into its buffers and are
    appended to ``saved``.
    """
    n_values, n_rows, k = counts
    n_val, width = n_values + n_rows, w.shape[0]
    out = _take(ws, name, (n_val + k * n_rows, width), w.dtype)
    gate = None
    if name == "head0":
        np.matmul(h_in[:n_val], w.T, out=out[:n_val])
    else:
        np.matmul(h_in, w.T, out=out)
    out[:n_val] += b
    if name != "outs":
        h = np.tanh(out[:n_val], out=out[:n_val])
        lo = 0 if saved is not None else n_values
        gate = np.multiply(h[lo:], h[lo:], out=_take(ws, f"{name}.gate", (n_val - lo, width), w.dtype))
        np.subtract(1.0, gate, out=gate)
        tans = out[n_val:].reshape(k, n_rows, width)
        if name == "head0":
            d_w = np.matmul(h_in[n_val:], w.T, out=_take(ws, "head0.dirs", (k, width), w.dtype))
            np.multiply(gate[n_values - lo :], d_w[:, None], out=tans)
        else:
            tans *= gate[n_values - lo :]
    if saved is not None:
        saved.append((h_in, out, gate))
    return out


def stacked_forward(params: ParamStore, x, directions=None, workspace: Workspace | None = None, values=None):
    """Values and directional derivatives of the net in one stacked pass.

    ``x`` is (B, input_dim); ``directions`` is a (k, input_dim) stack of
    input-space directions applied to every row. Returns the (k+1, B, 3)
    outputs: ``[0]`` the field triple per row, ``[1 + i]`` its derivative
    along direction i. ``values``, (M, input_dim), are value-only rows that
    ride in the same pass with no tangent rows; the return is then the pair
    of their (M, 3) outputs and the stack. A pass in ``workspace``, one made
    for ``params.spec``, lives in its buffers, grown to fit, and records what
    ``workspace.gradient`` reads; without one every array is fresh. The pass
    runs, and returns its outputs, in the dtype of ``params.flat``.
    """
    spec, dtype = params.spec, params.flat.dtype
    x = np.asarray(x, dtype=np.float64)
    d = np.empty((0, spec.input_dim)) if directions is None else np.asarray(directions, dtype=np.float64)
    v = np.empty((0, spec.input_dim)) if values is None else np.asarray(values, dtype=np.float64)
    if any(a.ndim != 2 or a.shape[1] != spec.input_dim for a in (x, d, v)):
        raise ConfigError(f"inputs, directions and value rows must have {spec.input_dim} columns, "
                          f"got shapes {x.shape}, {d.shape} and {v.shape}")
    counts = n_values, n_rows, k = v.shape[0], x.shape[0], d.shape[0]
    ws, saved = workspace, None
    if ws is not None:
        if ws.spec != spec:
            raise ConfigError("the workspace was made for another architecture")
        ws._hold(dtype)
        ws._last, saved = None, []
    h = _take(ws, "input", (n_values + n_rows + k, spec.input_dim), dtype)
    h[:n_values], h[n_values : n_values + n_rows], h[n_values + n_rows :] = v, x, d
    weights = _pass_weights(params, ws)
    for name, (w, b) in zip(CHAIN, weights):
        h = _layer(name, w, b, h, counts, ws, saved)
    if ws is not None:
        ws._last = (counts, values is not None, weights, saved)
    stack = h[n_values:].reshape(k + 1, n_rows, len(FIELD_ORDER))
    return stack if values is None else (h[:n_values], stack)


def _value_pass(params: ParamStore, x) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray]]:
    """CHAIN's weights and every layer's output on the (B, input_dim) rows ``x``, inputs first.

    Per layer a matmul, the bias and, on all but ``outs``, tanh, in the dtype
    of ``params.flat``; the same operations as the kernel's value rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim:
        raise ConfigError(f"inputs must have {params.spec.input_dim} columns, got shape {x.shape}")
    weights = _pass_weights(params, None)
    h = [x.astype(params.flat.dtype, copy=False)]
    for w, b in weights:
        a = h[-1] @ w.T
        a += b
        h.append(a if len(h) == len(CHAIN) else np.tanh(a, out=a))
    return weights, h


def forward(params: ParamStore, x) -> np.ndarray:
    """Batched evaluation: (batch, input_dim) -> (batch, 3), by one plain value pass."""
    return _value_pass(params, x)[1][-1]


def input_jacobian(params: ParamStore, x) -> tuple[np.ndarray, np.ndarray]:
    """Values (B, 3) and input Jacobian J (3, B, input_dim): J[f, b] = d y[b, f] / d x[b].

    One value pass keeps each hidden layer's tanh output h; one reverse sweep
    then carries 3B cotangent rows, field-major. It is seeded with the rows
    of the block-diagonal ``outs`` weight, and each cotangent row is gated
    by the 1 - h^2 of its own input row.
    """
    weights, h = _value_pass(params, x)
    n, n_rows = len(FIELD_ORDER), h[0].shape[0]
    g = weights[-1][0][:, None]  # output f's cotangent on the tails' outputs, the same for every row
    for (w, _), out in zip(weights[-2::-1], h[-2:0:-1]):
        g_a = g * (1.0 - out * out)
        g = (g_a.reshape(n * n_rows, -1) @ w).reshape(n, n_rows, -1)
    return h[-1], g


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
