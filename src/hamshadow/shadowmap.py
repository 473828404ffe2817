"""Construction, diagnosis, and inversion of the quench shadow map.

Given a Hamiltonian with eigenbasis V and eigen-energies E, a round of the
protocol evolves the state by U = V diag(e^{i phi}) V^dag (phi = -E t for a
time snapshot) and measures in the computational basis. The average
post-measurement record is a linear map of the state; this module builds
that map, decides whether it is invertible, and applies its inverse, or
the adjoint of the inverse, to one matrix or a stack of them. Estimates
need only the inverse; the forward map is kept with the tests as an oracle.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .qmatrix import SpectralHamiltonian, as_complex
from .rdu import DegeneracySpec, check_window

SINGULAR_CONDITION = 1e12
BLOCK_ENTRIES = 2**14  # entries per block of the d^4 passes of finite_time_choi
PACKED_BLOCK_ENTRIES = 2**18  # packed real rho-hat entries per block, finite time
SIGMA_BLOCK_ENTRIES = 2**15  # complex sigma-hat entries per packing step
ZERO_OFFDIAG_TOL = 1e-12
ZERO_DIAG_TOL = 1e-10
ENERGY_RESOLUTION = 1e-9


class IncompleteInverterError(ValueError):
    """Raised when an operation requires a tomography-complete inverter."""


@dataclass(frozen=True)
class CompletenessDiagnosis:
    """Why (or why not) the shadow map is invertible for this Hamiltonian."""

    x_h_singular: bool
    zero_offdiagonal: list
    energy_degeneracy: list
    basis_aligned: list
    condition_number: float      # cond(X_H), 2-norm
    map_condition_number: float  # cond(N), 2-norm: the amplification of N^-1
    resonances: list = field(default_factory=list)  # informational only

    @property
    def complete(self) -> bool:
        return not (self.x_h_singular or self.zero_offdiagonal
                    or self.energy_degeneracy or self.basis_aligned)

    @property
    def verdict(self) -> str:
        return "complete" if self.complete else "incomplete"

    def summary(self) -> str:
        lines = [self.verdict,
                 f"  cond(X_H)={self.condition_number:.3e}, "
                 f"cond(N)={self.map_condition_number:.3e}"]
        if not self.complete:
            if self.energy_degeneracy:
                lines.append(f"  degenerate energy pairs: {self.energy_degeneracy}")
            if self.basis_aligned:
                lines.append(f"  basis-aligned eigenstates: {self.basis_aligned}")
            if self.x_h_singular:
                lines.append("  X_H singular")
            if self.zero_offdiagonal:
                lines.append(f"  zero off-diagonals of X_H: {self.zero_offdiagonal[:8]}")
        if self.resonances:
            lines.append(f"  note: second-order resonances (harmless): {self.resonances[:8]}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FiniteTimeChoi:
    """Inverse of the window-corrected superoperator G of the rotated-frame map N.

    G maps Hermitian matrices to Hermitian matrices, so on the packed real
    coordinates of _pack it is a real d^2 x d^2 matrix R. Only R^-1 is
    stored; it is applied to the Hermitian and anti-Hermitian halves of a
    complex input. R itself is rebuilt by _window_superoperator.
    """

    packed_inverse: np.ndarray         # real d^2 x d^2 R^-1, acts on _pack(sigma)
    condition_number: float            # 1-norm of G: ||G||_1 ||G^-1||_1


@dataclass(frozen=True)
class ShadowInverter:
    """Precomputed inversion data for one Hamiltonian.

    mode is "ideal" (closed-form inverse, assumes ideal random phases),
    "finite-time" (dense inverse of the window-corrected superoperator) or
    "pseudo-inverse" (diagonal dropped, only off-diagonals with nonzero
    X_H entries recovered).
    """

    hamiltonian: SpectralHamiltonian
    x_h: np.ndarray
    x_h_inverse: np.ndarray | None
    diagnosis: CompletenessDiagnosis
    mode: str = "ideal"
    window: tuple[float, float] | None = None
    finite: FiniteTimeChoi | None = None

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def require_complete(self):
        if self.mode == "pseudo-inverse":
            return
        if not self.diagnosis.complete:
            raise IncompleteInverterError(
                "shadow map is not invertible:\n" + self.diagnosis.summary())


def hamiltonian_fingerprint(h: SpectralHamiltonian) -> str:
    """Stable digest of (energies, eigenbasis) for dataset/inverter matching."""
    payload = np.round(h.energies, 10).tobytes()
    payload += np.round(h.eigenbasis, 10).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def _basis_aligned_eigenstates(v_sq: np.ndarray, tol: float = 1e-10) -> list:
    """Eigenvector columns that coincide with a computational basis vector."""
    out = []
    for k in range(v_sq.shape[1]):
        if np.max(v_sq[:, k]) >= 1.0 - tol:
            out.append(k)
    return out


def _ratio(hi: float, lo: float) -> float:
    """hi / lo as a condition number: inf where lo is zero."""
    return float(hi / lo) if lo > 0 else np.inf


def diagnose_detection(h: SpectralHamiltonian) -> CompletenessDiagnosis:
    """Full tomography-completeness diagnosis for a Hamiltonian."""
    v_sq = np.abs(h.eigenbasis) ** 2
    x_h = v_sq.T @ v_sq
    # N applies X_H to the diagonal and scales each off-diagonal (m, n) by
    # X_mn, so its singular values are those of X_H and the |X_mn|
    sv = np.linalg.svd(x_h, compute_uv=False)
    x_off = np.abs(x_h[~np.eye(h.dim, dtype=bool)])
    cond = _ratio(sv[0], sv[-1])
    map_cond = _ratio(max(sv[0], x_off.max(initial=0.0)),
                      min(sv[-1], x_off.min(initial=np.inf)))
    singular = not np.isfinite(cond) or cond > SINGULAR_CONDITION
    off = [(i, j) for i in range(h.dim) for j in range(i + 1, h.dim)
           if abs(x_h[i, j]) < ZERO_OFFDIAG_TOL]
    spec = DegeneracySpec(h.energies, ENERGY_RESOLUTION)
    degen = spec.first_order_pairs()
    aligned = _basis_aligned_eigenstates(v_sq)
    try:
        resonances = spec.second_order_resonances()
    except ValueError:
        resonances = []
    return CompletenessDiagnosis(
        x_h_singular=singular,
        zero_offdiagonal=off,
        energy_degeneracy=degen,
        basis_aligned=aligned,
        condition_number=cond,
        map_condition_number=map_cond,
        resonances=resonances,
    )


def build_inverter(h: SpectralHamiltonian, mode: str = "ideal",
                   t_min: float | None = None,
                   t_max: float | None = None) -> ShadowInverter:
    if mode not in ("ideal", "finite-time", "pseudo-inverse"):
        raise ValueError(f"unknown inverter mode {mode!r}")
    v_sq = np.abs(h.eigenbasis) ** 2
    x_h = v_sq.T @ v_sq
    diagnosis = diagnose_detection(h)
    x_inv = None
    if not diagnosis.x_h_singular:
        x_inv = np.linalg.inv(x_h)
    finite = None
    window = None
    if mode == "finite-time":
        if t_min is None or t_max is None:
            raise ValueError("finite-time mode needs t_min and t_max")
        finite = finite_time_choi(h, t_min, t_max)
        window = (float(t_min), float(t_max))
    return ShadowInverter(h, x_h, x_inv, diagnosis, mode, window, finite)


def _apply_to_diagonal(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Real x applied to the diagonal of sigma or of each matrix of a stack."""
    diag = np.diagonal(sigma, axis1=-2, axis2=-1)
    if diag.ndim == 1:
        return x @ diag
    # real and imaginary parts in separate real products: a real diagonal
    # then gives the bits of one real GEMM
    flat = diag.reshape(-1, diag.shape[-1])
    return (flat.real @ x.T + 1j * (flat.imag @ x.T)).reshape(diag.shape)


def _packing(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat-index tables of the packed real coordinates of d x d matrices.

    For the row-major flat index j of (m, n): t[j] is the index of (n, m),
    upper[j] marks m <= n, and sign[j] is +1 above the diagonal, -1 below
    it and 0 on it.
    """
    m, n = np.divmod(np.arange(d * d), d)
    return n * d + m, m <= n, np.sign(n - m)


def _pack(sigma: np.ndarray) -> np.ndarray:
    """Packed real coordinates of Hermitian vec(sigma) rows, shape (..., d^2).

    r[m, n] is Re sigma_mn for m <= n and Im sigma_nm = -Im sigma_mn for
    m > n, so that Tr(A B) = sum w a b with the weights w of _packed_weights.
    """
    _, upper, _ = _packing(math.isqrt(sigma.shape[-1]))
    out = sigma.real.copy()  # negated in place below: no second temporary
    return np.negative(sigma.imag, out=out, where=~upper)


def _unpack(r: np.ndarray) -> np.ndarray:
    """Hermitian vec(sigma) rows of packed coordinates r, the inverse of _pack."""
    t, upper, sign = _packing(math.isqrt(r.shape[-1]))
    r_t = r[..., t]
    out = np.empty(r.shape, dtype=complex)
    out.real = np.where(upper, r, r_t)
    out.imag = sign * np.where(upper, r_t, r)
    return out


def _packed_weights(d: int) -> np.ndarray:
    """w with Tr(A B) = sum w a b on packed Hermitian A, B: 1 on the
    diagonal, 2 off it."""
    _, _, sign = _packing(d)
    return np.where(sign == 0, 1.0, 2.0)


def _apply_packed(m: np.ndarray, sigma: np.ndarray, adjoint: bool) -> np.ndarray:
    """Packed real map m on one complex d x d matrix or a (..., d, d) stack.

    sigma = H + iK with Hermitian halves H = (sigma + sigma^dag)/2 and
    K = (sigma - sigma^dag)/2i; both go through one real GEMM with m, or
    with W^-1 m^T W, the adjoint of m under Tr(A B), and are unpacked.
    """
    d = sigma.shape[-1]
    t, _, _ = _packing(d)
    flat = sigma.reshape(-1, d * d)
    dag = flat.conj()[:, t]
    halves = _pack(np.stack([(flat + dag) / 2, (flat - dag) / 2j]))
    if adjoint:
        w = _packed_weights(d)
        out = (halves * w) @ m / w
    else:
        out = halves @ m.T
    h, k = _unpack(out)
    return (h + 1j * k).reshape(sigma.shape)


def apply_n_inverse(inv: ShadowInverter, sigma) -> np.ndarray:
    """Inverse rotated-frame map on one d x d matrix or a (..., d, d) stack.

    Ideal mode: diagonal output (X_H^-1 applied to the input diagonal),
    off-diagonal elements divided by the matching X_H entry. Pseudo-inverse
    mode: diagonal zeroed, only off-diagonals with nonzero X_H recovered.
    Finite-time mode: the packed real inverse on the two Hermitian halves.
    """
    sigma = as_complex(sigma)
    if inv.mode == "finite-time":
        return _apply_packed(inv.finite.packed_inverse, sigma, adjoint=False)
    i = np.arange(inv.dim)
    if inv.mode == "pseudo-inverse":
        safe = np.where(np.abs(inv.x_h) >= ZERO_OFFDIAG_TOL, inv.x_h, np.inf)
        out = sigma / safe
        out[..., i, i] = 0.0
        return out
    inv.require_complete()
    out = sigma / inv.x_h
    out[..., i, i] = _apply_to_diagonal(inv.x_h_inverse, sigma)
    return out


def apply_n_inverse_adjoint(inv: ShadowInverter, a) -> np.ndarray:
    """A-tilde with Tr(A-tilde sigma) = Tr(A N^-1(sigma)) for every sigma.

    The ideal and pseudo-inverse maps are self-adjoint under this pairing;
    the finite-time map uses its explicit adjoint. The pseudo-inverse drops
    the diagonal, so there A must have a zero diagonal.
    """
    a = as_complex(a)
    if inv.mode == "finite-time":
        return _apply_packed(inv.finite.packed_inverse, a, adjoint=True)
    if inv.mode == "pseudo-inverse" and np.max(np.abs(np.diag(a))) > ZERO_DIAG_TOL:
        raise ValueError(
            "pseudo-inverse mode supports only observables with zero "
            "diagonal in the eigenbasis frame")
    return apply_n_inverse(inv, a)


def snapshot_sigmas(z: np.ndarray) -> np.ndarray:
    """Stack of sigma-hat_k = conj(z_k) z_k^T of amplitude rows z, eigenframe."""
    d = z.shape[-1]
    sig = z.conj()[:, :, None] * z[:, None, :]
    sig[:, np.arange(d), np.arange(d)] = np.abs(z) ** 2  # exactly real
    return sig


def _packed_sigmas(z: np.ndarray) -> np.ndarray:
    """Packed real coordinates of each sigma-hat_k = conj(z_k) z_k^T, (K, d^2).

    The complex sigma-hat stacks are built SIGMA_BLOCK_ENTRIES entries at a
    time and packed into the one real output, so no complex stack of all
    K rows is formed.
    """
    k, d = z.shape
    out = np.empty((k, d * d))
    rows = max(1, SIGMA_BLOCK_ENTRIES // d**2)
    for start in range(0, k, rows):
        blk = slice(start, start + rows)
        out[blk] = _pack(snapshot_sigmas(z[blk]).reshape(-1, d * d))
    return out


def _offdiagonal_weights(inv: ShadowInverter) -> np.ndarray:
    """Y with Tr(N^-1(sigma)^2) off the diagonal = sum_mn Y_mn |sigma_mn|^2:
    1/X_mn^2 on every off-diagonal N^-1 recovers, 0 on the diagonal and,
    in pseudo-inverse mode, wherever |X_mn| < ZERO_OFFDIAG_TOL."""
    keep = ~np.eye(inv.dim, dtype=bool)
    if inv.mode == "pseudo-inverse":
        keep &= np.abs(inv.x_h) >= ZERO_OFFDIAG_TOL
    return np.divide(1.0, inv.x_h**2, out=np.zeros_like(inv.x_h), where=keep)


def inverted_snapshot_moments(inv: ShadowInverter,
                              z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of rho-hat_k = N^-1(sigma-hat_k) over the amplitude rows z_k, in
    the eigenframe, and Tr(rho-hat_k^2) of each row.

    Ideal and pseudo-inverse modes use the closed form in q_k = |z_k|^2:
    S = N^-1(Z^dag Z), one GEMM and one d x d inversion, and
    Tr(rho-hat_k^2) = ||X_H^-1 q_k||^2 + q_k^T Y q_k with Y from
    _offdiagonal_weights (the pseudo-inverse drops the first term), so no
    rho-hat_k is formed. In finite-time mode one real GEMM per block of
    PACKED_BLOCK_ENTRIES entries maps the packed sigma-hat_k of that block
    to every packed rho-hat_k, and Tr(rho-hat_k^2) is a w-weighted squared
    row norm. That block is 256 rows at d = 32, since 64-row blocks ran
    the GEMMs about a third slower.
    """
    k, d = z.shape
    if inv.mode != "finite-time":
        s = apply_n_inverse(inv, z.conj().T @ z)
        q = np.abs(z) ** 2
        tr_sq = np.einsum("km,km->k", q @ _offdiagonal_weights(inv), q)
        if inv.mode == "ideal":
            diag = q @ inv.x_h_inverse.T
            tr_sq += np.einsum("km,km->k", diag, diag)
        return s, tr_sq
    r_inv_t = inv.finite.packed_inverse.T
    w = _packed_weights(d)
    s = np.zeros(d * d)
    tr_sq = np.empty(k)
    rows = max(1, PACKED_BLOCK_ENTRIES // d**2)
    for start in range(0, k, rows):
        blk = slice(start, start + rows)
        rhos = _packed_sigmas(z[blk]) @ r_inv_t
        s += rhos.sum(axis=0)
        tr_sq[blk] = (rhos * rhos) @ w
        del rhos  # freed before the next block's packed sigmas are built
    return _unpack(s).reshape(d, d), tr_sq


def _pack_superoperator(g: np.ndarray) -> np.ndarray:
    """Real R with _pack(g vec(sigma)) = R _pack(sigma) for Hermitian sigma.

    Packed input coordinate j of (m, n) stands for |m><n| + |n><m| (m < n),
    i|n><m| - i|m><n| (m > n) or |m><m|, so column j of R combines columns
    j and t[j] of g; output row k takes the real part of row k (m <= n) or
    the imaginary part of row t[k]. Built in blocks of rows.
    """
    size = len(g)
    t, upper, sign = _packing(math.isqrt(size))
    r = np.empty(g.shape)
    rows = max(1, BLOCK_ENTRIES // size)
    for start in range(0, size, rows):
        k = np.arange(start, min(start + rows, size))
        gk = g[np.where(upper[k], k, t[k])]
        gt = gk[:, t]
        cols = np.where(upper, gk + gt, 1j * (gt - gk))
        cols[:, sign == 0] *= 0.5
        r[k] = np.where(upper[k, None], cols.real, cols.imag)
    return r


def _inverse_one_norm(r_inv: np.ndarray) -> float:
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


def _window_superoperator(h: SpectralHamiltonian, t_min: float,
                          t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Packed real R of the window-corrected superoperator G of N, and the
    absolute column sums of G, whose maximum is ||G||_1.

    Each element carries the uniform-window average of the residual phase
    e^{-i w t} with w = E_p + E_n - E_q - E_m; resonant elements (|w| below
    ENERGY_RESOLUTION) keep weight 1 and match the ideal map exactly. The
    d^4 passes run in blocks of BLOCK_ENTRIES entries.
    """
    check_window(t_min, t_max)
    if not t_max > t_min:
        raise ValueError("t_max must exceed t_min")
    d = h.dim
    e = h.energies
    v = h.eigenbasis
    # P_b = V^dag |b><b| V stacked over outcomes, one row vec(P_b) per b;
    # P_b[q, p] = conj(P_b[p, q]), so sum_b P_b[m, n] P_b[q, p] is one GEMM
    p = (v.conj()[:, :, None] * v[:, None, :]).reshape(d, d * d)
    g = p.T @ p.conj()
    # w = gap(m, n) - gap(p, q) with gap(m, n) = E_n - E_m, so e^{-i w t}
    # is the outer product of e^{-i gap t} and its conjugate
    gap = (e[None, :] - e[:, None]).reshape(-1)
    ph_min, ph_max = np.exp(-1j * np.multiply.outer((t_min, t_max), gap))
    conj_min, conj_max = ph_min.conj(), ph_max.conj()
    dt = t_max - t_min
    col_sums = np.zeros(d * d)
    rows = max(1, BLOCK_ENTRIES // (d * d))
    for start in range(0, d * d, rows):
        blk = slice(start, start + rows)
        omega = gap[blk, None] - gap
        small = np.abs(omega) < ENERGY_RESOLUTION
        weight = np.outer(ph_max[blk], conj_max)
        weight -= np.outer(ph_min[blk], conj_min)
        weight /= -1j * np.where(small, 1.0, omega) * dt
        weight[small] = 1.0
        g[blk] *= weight
        col_sums += np.abs(g[blk]).sum(axis=0)
    return _pack_superoperator(g), col_sums


def finite_time_choi(h: SpectralHamiltonian, t_min: float,
                     t_max: float) -> FiniteTimeChoi:
    """Inverse of the packed real window-corrected superoperator of N.

    R from _window_superoperator is inverted and dropped, so the inverter
    holds one real d^2 x d^2 array.
    """
    r, col_sums = _window_superoperator(h, t_min, t_max)
    # exact 1-norm condition number from the inverse the apply path needs
    # anyway; a full SVD for the 2-norm value cost more than the inverse
    try:
        r_inv = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        cond = np.inf
    else:
        cond = float(col_sums.max() * _inverse_one_norm(r_inv))
    if not np.isfinite(cond) or cond > SINGULAR_CONDITION:
        raise np.linalg.LinAlgError("finite-time superoperator is numerically "
                                    f"singular (cond={cond:.3e}, 1-norm)")
    return FiniteTimeChoi(r_inv, cond)
