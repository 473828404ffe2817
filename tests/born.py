"""The Born kernel with a complex exp, for tests.

``sampler._born_rows`` forms its unit phasors from a table and short
polynomials (``sampler._unit_phasors``) and multiplies them by a factor of
the state built once per batch. This is the direct form it is checked
against: ``np.exp`` of the phases, and one (d, d) @ (d, K r) product. The
two may differ in the probabilities at rounding level; the outcomes they
pick for a shot's uniform variate may not.
"""

import numpy as np

from hamshadow.sampler import BORN_TOL


def exp_born_rows(v: np.ndarray, w: np.ndarray, l: np.ndarray,
                  phases: np.ndarray) -> np.ndarray:
    """Checked Born distributions, one row per phase vector of (K, d) phases.

    p[k, b] = sum_r w_r |(V diag(e^{i phi_k}) l_r)_b|^2, all K rows from one
    (d, d) @ (d, K r) product.
    """
    k, d = phases.shape
    r = len(w)
    m = np.exp(1j * phases).T[:, :, None] * l[:, None, :]
    a = (v @ m.reshape(d, k * r)).reshape(d, k, r)
    p = np.ascontiguousarray(((a.real ** 2 + a.imag ** 2) @ w).T)
    total = p.sum(axis=1)
    bad = ~(np.abs(total - 1.0) < BORN_TOL)
    if bad.any():
        raise ValueError(f"Born distribution sums to {float(total[bad][0])!r}; "
                         "input is corrupted")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=1, keepdims=True)
