"""Reference computations that only the tests need."""

import warnings

import numpy as np

from flowpsm.control import ADMIT_TOL, ConstraintSet, LinearSSM, OInfApprox
from flowpsm.network import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, FIELD_ORDER, ParamStore


def admits(oinf: OInfApprox, delta_x: np.ndarray, delta_v: np.ndarray) -> bool:
    """Whether the pair lies in the admissible set: every margin >= -ADMIT_TOL, as ``cg_solve`` reads them."""
    return bool(np.all(oinf.margins(delta_x, delta_v) >= -ADMIT_TOL))


def srg_kappa(oinf: OInfApprox, x_k: np.ndarray, v_prev: np.ndarray, r_k: np.ndarray) -> float:
    """Largest admissible step fraction from v_prev toward r_k (scalar reference governor).

    Exact ratio test on the half-spaces, independent of ``cg_solve``: with
    margins m at v_prev and a = H_v (r_k - v_prev),
    kappa = min(1, min over a_i > 0 of m_i / a_i).
    """
    dx = np.asarray(x_k, dtype=float) - oinf.x00
    dv_prev = np.asarray(v_prev, dtype=float) - oinf.v00
    dr = np.asarray(r_k, dtype=float) - oinf.v00
    if not admits(oinf, dx, dv_prev):
        warnings.warn("current (state, input) pair is outside the admissible set; kappa = 0")
        return 0.0
    m = oinf.margins(dx, dv_prev)
    a = oinf.H_v @ (dr - dv_prev)
    rising = a > 0
    kappa = min(1.0, float(np.min(m[rising] / a[rising]))) if np.any(rising) else 1.0
    return max(0.0, kappa)  # admits() takes margins down to -ADMIT_TOL


def oinf_rows_by_powers(ssm: LinearSSM, constraints: ConstraintSet, horizon: int, epsilon: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_x, H_v, h) of ``build_oinf`` from the full powers A^k and sums S_k, one per step.

    Row block k (0..T) is C A^k, C S_k B and d - C x00 - C S_k a0 with
    S_k = sum_{j<k} A^j; the steady block follows, as in ``build_oinf``.
    """
    C, d = constraints.stacked()
    q = ssm.A.shape[0]
    a0 = ssm.offset
    d_tilde = d - C @ ssm.x00
    Hx_blocks, Hv_blocks, h_blocks = [], [], []
    Ak = np.eye(q)
    Sk = np.zeros((q, q))
    for _ in range(horizon + 1):
        Hx_blocks.append(C @ Ak)
        Hv_blocks.append(C @ Sk @ ssm.B)
        h_blocks.append(d_tilde - C @ Sk @ a0)
        Sk = Sk + Ak
        Ak = ssm.A @ Ak
    G = np.linalg.solve(np.eye(q) - ssm.A, np.column_stack([a0, ssm.B]))
    Hx_blocks.append(np.zeros_like(C))
    Hv_blocks.append(C @ G[:, 1:])
    h_blocks.append(d_tilde - C @ G[:, 0] - epsilon * np.linalg.norm(C, axis=1))
    return np.vstack(Hx_blocks), np.vstack(Hv_blocks), np.concatenate(h_blocks)


def per_field_pass(params: ParamStore, x: np.ndarray, axes, cotangent, values=None):
    """Outputs and flat parameter gradient of the net, assembled from each field's named tensors.

    The per-field views are concatenated into one (3 tail, inter) tails layer
    and one block-diagonal (3 tail, 3) outs layer; every layer then runs as
    one 2-D matmul over all rows: the value rows (``values``, then ``x``),
    then one block of tangent rows per axis. The axes enter as unit direction
    rows: head0's tangent pre-activations are their matmul with W0^T, and
    head0's weight gradient takes the row sums' matmul with them. Otherwise it
    uses the kernel's numpy operations in the kernel's order on fresh arrays,
    so ``stacked_forward`` and ``Workspace.gradient`` must match it bit for
    bit. ``cotangent`` and the returned outputs are shaped as the kernel's:
    the pair of the value rows' (M, 3) and the (k+1, B, 3) stack.
    """
    dtype = params.flat.dtype
    directions = np.eye(params.spec.input_dim, dtype=dtype)[list(axes)]
    n, k, n_rows, t = len(FIELD_ORDER), len(directions), len(x), params.spec.tail_width
    v = np.empty((0, x.shape[1]), dtype) if values is None else np.asarray(values, dtype)
    m = len(v)
    n_val = m + n_rows
    tensors = {name: [name] for name in ("head0", "head1", "head2", "inter")}
    tensors["tails"] = [f"tail_{f}" for f in FIELD_ORDER]
    tensors["outs"] = [f"out_{f}" for f in FIELD_ORDER]
    weights = {name: tuple(np.concatenate([params.view(f"{nm}.{p}") for nm in names]) for p in "wb")
               for name, names in tensors.items()}
    w_outs = np.zeros((n * t, n), dtype)  # block diagonal, held as its transpose like the kernel's
    for f in range(n):
        w_outs[f * t : (f + 1) * t, f] = weights["outs"][0][f]
    weights["outs"] = (w_outs.T, weights["outs"][1])
    saved = {}

    def layer(name, h_in):
        w, b = weights[name]
        a = h_in @ w.T if name != "head0" else np.concatenate(
            [h_in[:n_val] @ w.T, np.empty((k * n_rows, w.shape[0]), dtype)])
        a[:n_val] += b
        gate = None
        if name != "outs":
            h = a[:n_val] = np.tanh(a[:n_val])
            gate = 1.0 - h * h
            tans = a[n_val:].reshape(k, n_rows, a.shape[1])
            if name == "head0":
                tans[...] = gate[m:] * (h_in[n_val:] @ w.T)[:, None]
            else:
                tans *= gate[m:]
        saved[name] = (h_in, a, gate)
        return a

    def layer_vjp(name, g_h):
        (w, _), (h_in, a, gate) = weights[name], saved[name]
        g_a = g_h.copy()
        if gate is not None:
            g_a[:n_val] = g_h[:n_val] * gate
            if k:
                g_t = g_h[n_val:].reshape(k, n_rows, g_h.shape[1])
                products = g_t * a[n_val:].reshape(g_t.shape)
                s = products[0].copy()
                for part in products[1:]:
                    s += part
                s *= a[m:n_val]
                s *= 2.0
                g_a[m:n_val] -= s
                g_a[n_val:] = (g_t * gate[m:]).reshape(k * n_rows, gate.shape[1])
        g_w = g_a.T @ h_in if name != "head0" else g_a[:n_val].T @ h_in[:n_val]
        if name == "head0" and k:
            g_w += (np.ones(n_rows, dtype) @ g_a[n_val:].reshape(k, n_rows, g_a.shape[1])).T @ h_in[n_val:]
        if name == "outs":
            g_w = np.stack([g_w[f, f * t : (f + 1) * t] for f in range(n)])
        g_b = np.ones(n_val, dtype) @ g_a[:n_val]
        names = tensors[name]
        for nm, part_w, part_b in zip(names, np.split(g_w, len(names)), np.split(g_b, len(names))):
            grad.view(f"{nm}.w")[...] = part_w.reshape(grad.view(f"{nm}.w").shape)
            grad.view(f"{nm}.b")[...] = part_b
        return g_a @ w

    h = np.concatenate([v, np.asarray(x, dtype), np.asarray(directions, dtype)])
    for name in ("head0", "head1", "head2", "inter", "tails", "outs"):
        h = layer(name, h)
    stack = h[m:].reshape(k + 1, n_rows, n)
    g_values, g_stack = cotangent
    g = np.concatenate([np.asarray(g_values, dtype), np.asarray(g_stack, dtype).reshape(-1, n)])
    grad = ParamStore(spec=params.spec, flat=np.zeros_like(params.flat), layout=params.layout)
    for name in ("outs", "tails", "inter", "head2", "head1", "head0"):
        g = layer_vjp(name, g)
    return (h[:m], stack), grad.flat


def adam_out_of_place(flat: np.ndarray, m: np.ndarray, v: np.ndarray, step: int, grad: np.ndarray,
                      lr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Adam step written as fresh-array expressions; returns the new (flat, m, v).

    ``step`` is the 1-based count after this update. ``optimizer_step`` runs
    the same ufuncs in place, so it must match this bit for bit.
    """
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    return flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v
