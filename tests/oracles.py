"""Reference computations that only the tests need."""

import warnings

import numpy as np

from flowpsm.control import ConstraintSet, LinearSSM, OInfApprox


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
