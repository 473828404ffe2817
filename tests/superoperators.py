"""The forward shadow map and dense d^2 x d^2 superoperators, for tests.

The package applies only the inverse map. The forward map N here is the
oracle it is checked against: the ideal closed form, or in finite-time
mode the packed real window superoperator R, rebuilt from the inverter's
Hamiltonian and window.
"""

import numpy as np

from hamshadow.qmatrix import as_complex
from hamshadow.shadowmap import (
    ShadowInverter,
    _apply_packed,
    _apply_to_diagonal,
    _window_superoperator,
    apply_n_inverse,
)


def packed_forward(inv: ShadowInverter) -> np.ndarray:
    """Real d^2 x d^2 R of a finite-time inverter, on packed coordinates."""
    return _window_superoperator(inv.hamiltonian, *inv.window)[0]


def apply_n(inv: ShadowInverter, sigma) -> np.ndarray:
    """Forward rotated-frame map N on one d x d matrix or a (..., d, d) stack.

    The packed real window-corrected superoperator in finite-time mode,
    otherwise the ideal-phase closed form.
    """
    sigma = as_complex(sigma)
    if inv.mode == "finite-time":
        return _apply_packed(packed_forward(inv), sigma, adjoint=False)
    i = np.arange(inv.dim)
    out = inv.x_h * sigma
    out[..., i, i] = _apply_to_diagonal(inv.x_h, sigma)
    return out


def shadow_map_forward(inv: ShadowInverter, rho) -> np.ndarray:
    """Average post-measurement record M(rho) = V N(V^dag rho V) V^dag."""
    rho = as_complex(rho)
    v = inv.hamiltonian.eigenbasis
    rho_h = v.conj().T @ rho @ v
    return v @ apply_n(inv, rho_h) @ v.conj().T


def forward_superoperator(inv: ShadowInverter) -> np.ndarray:
    """Dense d^2 x d^2 matrix of apply_n on vec(sigma)."""
    units = np.eye(inv.dim**2, dtype=complex).reshape(-1, inv.dim, inv.dim)
    return apply_n(inv, units).reshape(len(units), -1).T


def inverse_superoperator(inv: ShadowInverter) -> np.ndarray:
    """Dense d^2 x d^2 matrix of apply_n_inverse on vec(sigma)."""
    units = np.eye(inv.dim**2, dtype=complex).reshape(-1, inv.dim, inv.dim)
    return apply_n_inverse(inv, units).reshape(len(units), -1).T
