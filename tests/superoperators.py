"""The forward shadow map and dense d^2 x d^2 superoperators, for tests.

The package applies only the inverse map. The forward map N here is the
oracle it is checked against: the ideal closed form, or in finite-time
mode the packed real window superoperator R, rebuilt from the inverter's
Hamiltonian and window. inverse_one_norm_by_columns is the oracle of the
1-norm behind the finite-time condition number, and apply_packed_dense
the oracle of the package's half read of the packed inverse.
"""

import math

import numpy as np

from hamshadow.qmatrix import as_complex
from hamshadow.qmatrix import SpectralHamiltonian
from hamshadow.shadowmap import (
    BLOCK_ENTRIES,
    ShadowInverter,
    _apply_to_diagonal,
    _pack,
    _packed_halves,
    _packing,
    _unpack,
    _window_superoperator,
    apply_n_inverse,
)
from hamshadow.times import TimeModel


def uniform_window(t_min: float, t_max: float) -> TimeModel:
    """The time model of t uniform on [t_min, t_max] us."""
    return TimeModel("uniform-window", t_min=t_min, t_max=t_max)


def window_characteristic(w: np.ndarray, t_min: float, t_max: float) -> np.ndarray:
    """The window average of e^{-i w t} in closed form, with no resonance
    rule: e^{-i w t_c} sinc(w D / 2 pi) for the window centre t_c and
    length D."""
    centre, length = (t_min + t_max) / 2, t_max - t_min
    return np.exp(-1j * w * centre) * np.sinc(w * length / (2 * np.pi))


def dense_window_superoperator(h: SpectralHamiltonian, t_min: float,
                               t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """R and the absolute column sums of G, from the definition of G.

    G[(m, n), (p, q)] = sum_b P_b[m, n] P_b[q, p] times the window average
    of e^{-i w t}, w = E_p + E_n - E_q - E_m (window_characteristic);
    column j of R is the packed image of the Hermitian matrix that packed
    coordinate j stands for.
    """
    e, v = h.energies, h.eigenbasis
    d = len(e)
    p = v.conj()[:, :, None] * v[:, None, :]  # P_b = V^dag |b><b| V
    outcomes = np.einsum("bmn,bqp->mnpq", p, p)
    w = (e[None, None, :, None] + e[None, :, None, None]
         - e[None, None, None, :] - e[:, None, None, None])
    g = (outcomes * window_characteristic(w, t_min, t_max)).reshape(d * d, d * d)
    r = np.column_stack([_pack(g @ unit) for unit in _unpack(np.eye(d * d))])
    return r, np.abs(g).sum(axis=0)


def inverse_one_norm_by_columns(r_inv: np.ndarray) -> float:
    """||G^-1||_1 of the complex map whose packed real inverse is r_inv.

    With Y_j the unpacked column j of r_inv and p < q, column (p, q) of
    G^-1 is (Y_pq - i Y_qp)/2, column (q, p) is (Y_pq + i Y_qp)/2 and
    column (p, p) is Y_pp. Built in blocks of columns.
    """
    size = len(r_inv)
    t, upper, sign = _packing(math.isqrt(size))
    j = np.arange(size)
    re_col, im_col = np.where(upper, j, t), np.where(upper, t, j)
    scale = np.where(sign == 0, 1.0, 0.5)
    norm = 0.0
    rows = max(1, BLOCK_ENTRIES // size)
    for start in range(0, size, rows):
        c = j[start:start + rows]
        cols = (scale[c, None] * _unpack(r_inv[:, re_col[c]].T)
                - 0.5j * sign[c, None] * _unpack(r_inv[:, im_col[c]].T))
        norm = max(norm, float(np.abs(cols).sum(axis=1).max()))
    return norm


def apply_packed_dense(m: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Any packed real map m on one complex d x d matrix or a (..., d, d)
    stack, by the full product of its two packed Hermitian halves with m.

    shadowmap._apply_packed reads only half of a map that is symmetric
    under the packed weights; this reads all of m, so it also applies the
    forward R and maps with no symmetry.
    """
    halves = _packed_halves(sigma)
    h, k = _unpack(halves @ m.T)
    return (h + 1j * k).reshape(sigma.shape)


def packed_forward(inv: ShadowInverter) -> np.ndarray:
    """Real d^2 x d^2 R of a finite-time inverter, on packed coordinates."""
    return _window_superoperator(inv.hamiltonian, uniform_window(*inv.window))[0]


def apply_n(inv: ShadowInverter, sigma) -> np.ndarray:
    """Forward rotated-frame map N on one d x d matrix or a (..., d, d) stack.

    The packed real window-corrected superoperator in finite-time mode,
    otherwise the ideal-phase closed form.
    """
    sigma = as_complex(sigma)
    if inv.mode == "finite-time":
        return apply_packed_dense(packed_forward(inv), sigma)
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
