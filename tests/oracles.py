"""Reference computations that only the tests need."""

import warnings

import numpy as np

from flowpsm.control import ConstraintSet, LinearSSM, OInfApprox
from flowpsm.network import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, FIELD_ORDER, ParamStore


def srg_kappa(oinf: OInfApprox, x_k: np.ndarray, v_prev: np.ndarray, r_k: np.ndarray) -> float:
    """Largest admissible step fraction from v_prev toward r_k (scalar reference governor).

    Exact ratio test on the half-spaces, independent of ``cg_solve``: with
    margins m at v_prev and a = H_v (r_k - v_prev),
    kappa = min(1, min over a_i > 0 of m_i / a_i).
    """
    dx = np.asarray(x_k, dtype=float) - oinf.x00
    dv_prev = np.asarray(v_prev, dtype=float) - oinf.v00
    dr = np.asarray(r_k, dtype=float) - oinf.v00
    if not oinf.contains(dx, dv_prev):
        warnings.warn("current (state, input) pair is outside the admissible set; kappa = 0")
        return 0.0
    m = oinf.margins(dx, dv_prev)
    a = oinf.H_v @ (dr - dv_prev)
    rising = a > 0
    kappa = min(1.0, float(np.min(m[rising] / a[rising]))) if np.any(rising) else 1.0
    return max(0.0, kappa)  # contains() admits margins down to -1e-9


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


def per_field_pass(params: ParamStore, x: np.ndarray, directions: np.ndarray, cotangent: np.ndarray):
    """Stacked outputs and flat parameter gradient of the net, one field's tail at a time.

    The trunk and each field's tail and output are run layer by layer as
    (k+1)B-row matmuls, in the same numpy operations and order as the
    kernel, so ``stacked_forward`` and ``Workspace.gradient`` must match
    it bit for bit. The three tails' input cotangents are summed p, u, T.
    """
    saved = {}

    def layer(name, h_in, hidden=True):
        n_stack, n_rows, _ = h_in.shape
        a = (h_in.reshape(n_stack * n_rows, -1) @ params.view(f"{name}.w").T).reshape(n_stack, n_rows, -1)
        a[0] += params.view(f"{name}.b")
        h = da = gate = None
        if hidden:
            h = np.tanh(a[0], out=a[0])
            gate = 1.0 - h * h
            da = a[1:].copy()
            a[1:] *= gate
        saved[name] = (h_in, h, da, gate)
        return a

    def layer_vjp(name, g_h):
        h_in, h, da, gate = saved[name]
        if gate is None:
            g_a = g_h
        elif g_h.shape[0] == 1:
            g_a = g_h * gate
        else:
            g_a = np.empty_like(g_h)
            g_a[0] = (g_h[0] - 2.0 * h * np.sum(g_h[1:] * da, axis=0)) * gate
            g_a[1:] = g_h[1:] * gate
        rows = g_a.shape[0] * g_a.shape[1]
        grad.view(f"{name}.w")[...] = g_a.reshape(rows, -1).T @ h_in.reshape(rows, -1)
        grad.view(f"{name}.b")[...] = np.sum(g_a[0], axis=0)
        return (g_a.reshape(rows, -1) @ params.view(f"{name}.w")).reshape(h_in.shape)

    h = np.concatenate([x[None], np.broadcast_to(directions[:, None, :], (len(directions), *x.shape))])
    for name in ("head0", "head1", "head2", "inter"):
        h = layer(name, h)
    outputs = np.concatenate([layer(f"out_{f}", layer(f"tail_{f}", h), hidden=False) for f in FIELD_ORDER],
                             axis=2)
    grad = ParamStore(spec=params.spec, flat=np.zeros_like(params.flat), layout=params.layout)
    g_p, g_u, g_T = (layer_vjp(f"tail_{f}", layer_vjp(f"out_{f}", cotangent[:, :, i : i + 1]))
                     for i, f in enumerate(FIELD_ORDER))
    g = g_p + g_u + g_T
    for name in ("inter", "head2", "head1"):
        g = layer_vjp(name, g)
    layer_vjp("head0", g)
    return outputs, grad.flat


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
