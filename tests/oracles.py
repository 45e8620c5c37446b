"""Reference computations that only the tests need."""

import warnings

import numpy as np

from flowpsm.control import OInfApprox


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
