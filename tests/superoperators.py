"""Dense d^2 x d^2 matrices of the shadow map and its inverse, for tests."""

import numpy as np

from hamshadow.shadowmap import ShadowInverter, apply_n, apply_n_inverse


def forward_superoperator(inv: ShadowInverter) -> np.ndarray:
    """Dense d^2 x d^2 matrix of apply_n on vec(sigma)."""
    units = np.eye(inv.dim**2, dtype=complex).reshape(-1, inv.dim, inv.dim)
    return apply_n(inv, units).reshape(len(units), -1).T


def inverse_superoperator(inv: ShadowInverter) -> np.ndarray:
    """Dense d^2 x d^2 matrix of apply_n_inverse on vec(sigma)."""
    units = np.eye(inv.dim**2, dtype=complex).reshape(-1, inv.dim, inv.dim)
    return apply_n_inverse(inv, units).reshape(len(units), -1).T
