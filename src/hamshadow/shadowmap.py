"""Construction, diagnosis, and inversion of the quench shadow map.

Given a Hamiltonian with eigenbasis V and eigen-energies E, a round of the
protocol evolves the state by U = V diag(e^{i phi}) V^dag (phi = -E t for a
time snapshot) and measures in the computational basis. The average
post-measurement record is a linear map of the state; this module builds
that map, decides whether it is invertible, and applies its inverse to
one matrix or a stack of them. Every inverse is its own adjoint under
Tr(A B), so the same apply path maps snapshots and observables. Estimates
need only the inverse; the forward map is kept with the tests as an oracle.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import SpectralHamiltonian, as_complex
from .rdu import ENERGY_RESOLUTION, check_window

SINGULAR_CONDITION = 1e12
BLOCK_ENTRIES = 2**14  # entries per block of the d^4 passes of finite_time_choi
PACKED_BLOCK_ENTRIES = 2**18  # packed real rho-hat entries per block, finite time
SIGMA_BLOCK_ENTRIES = 2**14  # complex sigma-hat entries per packing step
# rows per block of finite_time_choi's Cholesky inverse: 64 to 96 rows ran
# fastest at d = 32, and 96 to 192 at d = 64, with 1 BLAS thread
INVERSE_BLOCK = 96
# entries d^4 of the real d^2 x d^2 array finite_time_choi holds: 2 GiB, so
# d = 128 builds and d = 256 (32 GiB) is refused before anything is allocated
MAX_WINDOW_ENTRIES = 2**28
ZERO_DIAG_TOL = 1e-10


class IncompleteInverterError(ValueError):
    """Raised when an inverter cannot recover what an operation needs."""


@dataclass(frozen=True)
class CompletenessDiagnosis:
    """Why (or why not) the shadow map is invertible for this Hamiltonian.

    One number decides: the map is complete when cond(N) is at most
    SINGULAR_CONDITION and no energies are degenerate and no eigenvector is
    a basis vector. As X_H is doubly stochastic, its top singular value is
    1 and cond(N) = 1 / min(sigma_min(X_H), min |X_mn|), so the gate covers
    a singular X_H and a vanishing X_mn alike; zero_offdiagonal and
    cond(X_H) only explain a refusal.
    """

    zero_offdiagonal: list  # the first 8 (m, n), m < n, with |X_mn| < 1/SINGULAR_CONDITION
    energy_degeneracy: list  # the first 8 (a, b), a < b, with E_a == E_b
    basis_aligned: list
    condition_number: float      # cond(X_H), 2-norm
    map_condition_number: float  # cond(N), 2-norm: the amplification of N^-1

    @property
    def complete(self) -> bool:
        return (not (self.energy_degeneracy or self.basis_aligned)
                and self.map_condition_number <= SINGULAR_CONDITION)

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
            if not self.map_condition_number <= SINGULAR_CONDITION:
                lines.append(f"  N singular: cond(N) above {SINGULAR_CONDITION:.0e}")
            if not self.condition_number <= SINGULAR_CONDITION:
                lines.append("  X_H singular")
            if self.zero_offdiagonal:
                lines.append(f"  zero off-diagonals of X_H: {self.zero_offdiagonal}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FiniteTimeChoi:
    """Inverse of the window-corrected superoperator G of the rotated-frame map N.

    G maps Hermitian matrices to Hermitian matrices, so on the packed real
    coordinates of _pack it is a real d^2 x d^2 matrix R. Only R^-1 is
    stored, in the array that held R (finite_time_choi inverts it in
    place); it is applied to the Hermitian and anti-Hermitian halves of a
    complex input. R itself is rebuilt by _window_superoperator.
    """

    packed_inverse: np.ndarray         # real d^2 x d^2 R^-1, acts on _pack(sigma)
    condition_number: float            # 1-norm of G: ||G||_1 ||G^-1||_1


@dataclass(frozen=True)
class MomentTable:
    """Outcome moments of the eigenbasis, q = |V|^2 (q[b, m] = |V[b, m]|^2).

    m2 = (q^2)^T q is M[x, y] = sum_b q_bx^2 q_by, and t3 is the real third
    moment T_mnp = sum_b q_bm q_bn q_bp. They depend on the Hamiltonian only,
    so every exact second moment of one inverter reads the same table.
    """

    q: np.ndarray   # real (d, d)
    m2: np.ndarray  # real (d, d)
    t3: np.ndarray  # real (d, d, d)


def moment_table(h: SpectralHamiltonian) -> MomentTable:
    """The read-only MomentTable of h: one (d, d) x (d, d^2) GEMM for T."""
    d = h.dim
    q = np.abs(h.eigenbasis) ** 2
    m2 = (q * q).T @ q
    t3 = (q.T @ (q[:, :, None] * q[:, None, :]).reshape(d, d * d)).reshape(d, d, d)
    for table in (q, m2, t3):
        table.flags.writeable = False
    return MomentTable(q, m2, t3)


@dataclass(frozen=True)
class ShadowInverter:
    """Precomputed inversion data for one Hamiltonian.

    mode is "ideal" (closed-form inverse, assumes ideal random phases),
    "finite-time" (dense inverse of the window-corrected superoperator) or
    "pseudo-inverse" (the ideal closed form on the entries it recovers).
    recovered, set by build_inverter, is the one record of the eigenframe
    entries the inverse recovers: all of them, except that the pseudo-inverse
    recovers only the off-diagonals with |X_mn| >= 1/SINGULAR_CONDITION.
    The other modes' elementwise map is sigma_mn / D_mn off the diagonal
    and M diag(sigma) on it: divisor D is X_mn on the recovered off-diagonals
    and inf elsewhere; diagonal_map M is X_H^-1, or 0 for the pseudo-inverse.

    moments, the Hamiltonian's MomentTable, is built on first use, by the
    first exact second moment, and kept for the inverter's lifetime:
    d^3 + 2 d^2 doubles, dominated by T (0.25 MB at d = 32, 2 MB at d = 64,
    128 MB at the variance module's limit of d = 256). build_inverter does
    not build it, so an inverter that never asks for a second moment never
    holds it.
    """

    hamiltonian: SpectralHamiltonian
    x_h: np.ndarray
    diagnosis: CompletenessDiagnosis
    recovered: np.ndarray  # bool (d, d)
    divisor: np.ndarray | None
    diagonal_map: np.ndarray | None
    mode: str = "ideal"
    window: tuple[float, float] | None = None
    finite: FiniteTimeChoi | None = None

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @functools.cached_property
    def moments(self) -> MomentTable:
        return moment_table(self.hamiltonian)

    def require_recovered(self, a: np.ndarray) -> None:
        """ValueError if the eigenframe observable a, or a matrix of a stack,
        is nonzero beyond ZERO_DIAG_TOL on an entry this inverter does not
        recover."""
        big = (np.abs(a) > ZERO_DIAG_TOL).reshape(-1, self.dim, self.dim).any(axis=0)
        dropped = np.argwhere(big & ~self.recovered)
        if len(dropped):
            m, n = dropped[0]
            why = ("it supports only observables with zero diagonal in the "
                   "eigenbasis frame" if m == n
                   else f"|X_mn| = {abs(self.x_h[m, n]):.1e}")
            raise ValueError(f"the {self.mode} inverter does not recover eigenframe "
                             f"entry ({m}, {n}), where the observable is nonzero; {why}")

    def require_whole_state(self):
        """Refuse an inverter that drops any entry, as the purity needs every
        entry of the state."""
        if not self.recovered.all():
            raise IncompleteInverterError(
                f"the {self.mode} inverter recovers {self.recovered.sum()} of the "
                f"{self.recovered.size} eigenframe entries; the purity needs all of them")


def hamiltonian_fingerprint(h: SpectralHamiltonian) -> str:
    """Stable digest of (energies, eigenbasis) for dataset/inverter matching."""
    payload = np.round(h.energies, 10).tobytes()
    payload += np.round(h.eigenbasis, 10).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def _ratio(hi: float, lo: float) -> float:
    """hi / lo as a condition number: inf where lo is zero."""
    return float(hi / lo) if lo > 0 else np.inf


def diagnose_detection(h: SpectralHamiltonian) -> CompletenessDiagnosis:
    """Full tomography-completeness diagnosis for a Hamiltonian."""
    v_sq = np.abs(h.eigenbasis) ** 2
    return _diagnose(h, v_sq, v_sq.T @ v_sq)


def _first_pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(m, n), m < n, of the first 8 True entries of a square mask, row-major:
    all that summary() reports."""
    upper = np.flatnonzero(np.triu(mask, k=1))[:8]
    return [divmod(int(k), len(mask)) for k in upper]


def _diagnose(h: SpectralHamiltonian, v_sq: np.ndarray,
              x_h: np.ndarray) -> CompletenessDiagnosis:
    """diagnose_detection from q = |V|^2 and X_H = q^T q."""
    gaps = np.subtract.outer(h.energies, h.energies)
    np.abs(gaps, out=gaps)
    degen = _first_pairs(gaps <= ENERGY_RESOLUTION)
    del gaps
    # eigenvector columns that coincide with a computational basis vector
    aligned = np.flatnonzero(v_sq.max(axis=0) >= 1.0 - 1e-10).tolist()
    # N applies X_H to the diagonal and scales each off-diagonal (m, n) by
    # X_mn, so its singular values are those of X_H and the |X_mn|. The
    # largest is sv[0] = 1: X_H is doubly stochastic, and positive
    # semidefinite, so X_mn^2 <= X_mm X_nn <= (1 - X_mn)^2 and |X_mn| <= 1/2
    sv = np.linalg.svd(x_h, compute_uv=False)
    x_off = np.abs(x_h)
    np.fill_diagonal(x_off, np.inf)  # so that only the |X_mn| count below
    return CompletenessDiagnosis(
        zero_offdiagonal=_first_pairs(x_off < 1 / SINGULAR_CONDITION),
        energy_degeneracy=degen,
        basis_aligned=aligned,
        condition_number=_ratio(sv[0], sv[-1]),
        map_condition_number=_ratio(sv[0], min(sv[-1], x_off.min())),
    )


def build_inverter(h: SpectralHamiltonian, mode: str = "ideal",
                   t_min: float | None = None,
                   t_max: float | None = None) -> ShadowInverter:
    """The inverse map of one mode; IncompleteInverterError, with the
    diagnosis, for the ideal map of an incomplete Hamiltonian."""
    if mode not in ("ideal", "finite-time", "pseudo-inverse"):
        raise ValueError(f"unknown inverter mode {mode!r}")
    v_sq = np.abs(h.eigenbasis) ** 2
    x_h = v_sq.T @ v_sq
    diagnosis = _diagnose(h, v_sq, x_h)
    if mode == "ideal" and not diagnosis.complete:
        raise IncompleteInverterError(
            "Hamiltonian is not tomography-complete:\n" + diagnosis.summary())
    recovered = np.ones(x_h.shape, dtype=bool)
    if mode == "pseudo-inverse":
        recovered = np.abs(x_h) >= 1 / SINGULAR_CONDITION
        np.fill_diagonal(recovered, False)
    divisor = diag_map = finite = window = None
    if mode == "finite-time":
        if t_min is None or t_max is None:
            raise ValueError("finite-time mode needs t_min and t_max")
        finite = finite_time_choi(h, t_min, t_max)
        window = (float(t_min), float(t_max))
    else:
        divisor = np.where(recovered & ~np.eye(len(x_h), dtype=bool), x_h, np.inf)
        diag_map = np.linalg.inv(x_h) if mode == "ideal" else np.zeros_like(x_h)
    return ShadowInverter(h, x_h, diagnosis, recovered, divisor, diag_map,
                          mode, window, finite)


def _apply_to_diagonal(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Real x applied to the diagonal of sigma or of each matrix of a stack."""
    diag = np.diagonal(sigma, axis1=-2, axis2=-1)
    if diag.ndim == 1:
        return x @ diag
    # real and imaginary parts in separate real products: a real diagonal
    # then gives the bits of one real GEMM
    flat = diag.reshape(-1, diag.shape[-1])
    return (flat.real @ x.T + 1j * (flat.imag @ x.T)).reshape(diag.shape)


@functools.lru_cache(maxsize=8)
def _packing(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat-index tables of the packed real coordinates of d x d matrices.

    For the row-major flat index j of (m, n): t[j] is the index of (n, m),
    upper[j] marks m <= n, and sign[j] is +1 above the diagonal, -1 below
    it and 0 on it. Built once per d, since every block that is packed or
    unpacked needs them, and read-only, since every caller shares them.
    """
    m, n = np.divmod(np.arange(d * d), d)
    tables = n * d + m, m <= n, np.sign(n - m)
    for table in tables:
        table.flags.writeable = False
    return tables


def _pack(sigma: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Packed real coordinates of Hermitian vec(sigma) rows, shape (..., d^2),
    written into out if it is given.

    r[m, n] is Re sigma_mn for m <= n and Im sigma_nm = -Im sigma_mn for
    m > n, so that Tr(A B) = sum w a b with the weights w of _packed_weights.
    """
    _, upper, _ = _packing(math.isqrt(sigma.shape[-1]))
    if out is None:
        out = np.empty(sigma.shape)
    out[...] = sigma.real  # negated in place below: no second temporary
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


def _apply_packed(m: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Packed real map m on one complex d x d matrix or a (..., d, d) stack.

    sigma = H + iK with Hermitian halves H = (sigma + sigma^dag)/2 and
    K = (sigma - sigma^dag)/2i; both go through one real GEMM with m and
    are unpacked.
    """
    d = sigma.shape[-1]
    t, _, _ = _packing(d)
    flat = sigma.reshape(-1, d * d)
    dag = flat.conj()[:, t]
    halves = _pack(np.stack([(flat + dag) / 2, (flat - dag) / 2j]))
    h, k = _unpack(halves @ m.T)
    return (h + 1j * k).reshape(sigma.shape)


def apply_n_inverse(inv: ShadowInverter, sigma) -> np.ndarray:
    """Inverse rotated-frame map on one d x d matrix or a (..., d, d) stack.

    Ideal and pseudo-inverse modes: the stored elementwise map (divisor D,
    diagonal_map M), zero on every entry the inverter does not recover.
    Finite-time mode: the packed real inverse on the two Hermitian halves.

    Every mode is its own adjoint under Tr(A B): Tr(A N^-1(sigma)) =
    Tr(N^-1(A) sigma). The elementwise maps are, as X_H is symmetric; the
    finite-time map is, as G is a Hermitian Gram average, so that
    W R^-1 is symmetric and W^-1 R^-T W = R^-1. So this one function
    also transforms observables.
    """
    sigma = as_complex(sigma)
    if inv.mode == "finite-time":
        return _apply_packed(inv.finite.packed_inverse, sigma)
    out = sigma / inv.divisor
    i = np.arange(inv.dim)
    out[..., i, i] = _apply_to_diagonal(inv.diagonal_map, sigma)
    return out


def snapshot_sigmas(z: np.ndarray) -> np.ndarray:
    """Stack of sigma-hat_k = conj(z_k) z_k^T of amplitude rows z, eigenframe."""
    d = z.shape[-1]
    sig = z.conj()[:, :, None] * z[:, None, :]
    sig[:, np.arange(d), np.arange(d)] = np.abs(z) ** 2  # exactly real
    return sig


def _packed_sigmas(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Packed real coordinates of each sigma-hat_k = conj(z_k) z_k^T, written
    into the (K, d^2) out.

    The complex sigma-hat stacks are built SIGMA_BLOCK_ENTRIES entries at a
    time and packed straight into out, so no complex stack of all K rows
    and no real copy of one is formed.
    """
    k, d = z.shape
    rows = max(1, SIGMA_BLOCK_ENTRIES // d**2)
    for start in range(0, k, rows):
        blk = slice(start, start + rows)
        _pack(snapshot_sigmas(z[blk]).reshape(-1, d * d), out[blk])
    return out


def inverted_snapshot_moments(inv: ShadowInverter,
                              z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of rho-hat_k = N^-1(sigma-hat_k) over the amplitude rows z_k, in
    the eigenframe, and Tr(rho-hat_k^2) of each row.

    Ideal and pseudo-inverse modes use the closed form in q_k = |z_k|^2:
    S = N^-1(Z^dag Z), one GEMM and one d x d inversion, and
    Tr(rho-hat_k^2) = ||M q_k||^2 + q_k^T (1/D^2) q_k with the inverter's
    divisor D and diagonal_map M, so no rho-hat_k is formed. In finite-time
    mode one real GEMM per block of PACKED_BLOCK_ENTRIES entries maps the packed
    sigma-hat_k of that block to every packed rho-hat_k, and Tr(rho-hat_k^2)
    is a w-weighted squared row norm. That block is 256 rows at d = 32,
    since 64-row blocks ran the GEMMs about a third slower. Every block
    reuses one packed sigma-hat and one rho-hat buffer, squared in place.
    """
    k, d = z.shape
    if inv.mode != "finite-time":
        s = apply_n_inverse(inv, z.conj().T @ z)
        q = np.abs(z) ** 2
        diag = q @ inv.diagonal_map.T
        tr_sq = np.einsum("km,km->k", q @ (1.0 / inv.divisor**2), q)
        tr_sq += np.einsum("km,km->k", diag, diag)
        return s, tr_sq
    r_inv_t = inv.finite.packed_inverse.T
    w = _packed_weights(d)
    s = np.zeros(d * d)
    tr_sq = np.empty(k)
    rows = max(1, min(k, PACKED_BLOCK_ENTRIES // d**2))
    # fresh 2 MB arrays per block would each be a new mmap whose pages
    # fault in again
    sig_buf, rho_buf = np.empty((rows, d * d)), np.empty((rows, d * d))
    for start in range(0, k, rows):
        blk = slice(start, start + rows)
        n = min(rows, k - start)
        rhos = np.matmul(_packed_sigmas(z[blk], sig_buf[:n]), r_inv_t,
                         out=rho_buf[:n])
        s += rhos.sum(axis=0)
        tr_sq[blk] = np.square(rhos, out=rhos) @ w
    return _unpack(s).reshape(d, d), tr_sq


def _modulus_sums(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Column sums of |re + i im| = sqrt(re^2 + im^2), overwriting re and im.

    Half the time of np.hypot. A square overflows to inf only for an entry
    above 1e154, where ||G^-1||_1 is far above the 1e12 gate anyway: G
    preserves traces, so ||G||_1 >= 1, and the verdict is the same.
    """
    np.square(re, out=re)
    re += np.square(im, out=im)
    return np.sqrt(re, out=re).sum(axis=0)


def _inverse_one_norm(r_inv: np.ndarray) -> float:
    """||G^-1||_1 of the complex map whose packed real inverse is r_inv.

    With Y_j the unpacked column j of r_inv and p < q, column (p, q) of
    G^-1 is (Y_pq - i Y_qp)/2 and column (p, p) is Y_pp. For m < n, rows
    (m, n) and (n, m) of r_inv hold u and v, with Y_j = u_j + i v_j at
    (m, n) and u_j - i v_j at (n, m); a diagonal row holds a real x. So,
    with j1 = (p, q) and j2 = (q, p), column (p, q) has the entries
    |u_1 + v_2 + i(v_1 - u_2)|/2 and |u_1 - v_2 + i(v_1 + u_2)|/2 on each
    pair of rows and |x_1 + i x_2|/2 on each diagonal row, and column
    (p, p) has |u + i v| twice and |x|. Column (q, p) is the conjugate
    transpose of column (p, q), since a map of Hermitian matrices to
    Hermitian matrices commutes with the conjugate transpose, so it has
    the same 1-norm and is not summed. This regroups the column sums of
    any real packed map, in real arithmetic. Rows are read a block of
    BLOCK_ENTRIES entries at a time, and a non-finite entry gives a
    non-finite norm.
    """
    size = len(r_inv)
    t, _, sign = _packing(math.isqrt(size))
    pairs = np.flatnonzero(sign > 0)  # j1; t[pairs] is j2
    diag = np.flatnonzero(sign == 0)
    n = len(pairs)
    # each row read is reordered to the columns j1, then j2, then diagonal
    cols = np.concatenate([pairs, t[pairs], diag])
    pair_sums, diag_sums = np.zeros(n), np.zeros(len(diag))
    rows = max(1, BLOCK_ENTRIES // size)
    for start in range(0, n, rows):
        j = pairs[start:start + rows]
        u = r_inv[np.ix_(j, cols)]
        v = r_inv[np.ix_(t[j], cols)]
        u1, u2, v1, v2 = u[:, :n], u[:, n:2 * n], v[:, :n], v[:, n:2 * n]
        pair_sums += _modulus_sums(u1 + v2, v1 - u2)
        pair_sums += _modulus_sums(u1 - v2, v1 + u2)
        diag_sums += 2 * _modulus_sums(u[:, 2 * n:], v[:, 2 * n:])
    for start in range(0, len(diag), rows):
        x = r_inv[np.ix_(diag[start:start + rows], cols)]
        diag_sums += np.abs(x[:, 2 * n:]).sum(axis=0)
        pair_sums += _modulus_sums(x[:, :n], x[:, n:2 * n])
    # np.max, unlike Python's max, propagates a nan
    return float(np.concatenate([pair_sums / 2, diag_sums]).max())


def _window_superoperator(h: SpectralHamiltonian, t_min: float,
                          t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Packed real R of the window-corrected superoperator G of N, and the
    absolute column sums of G, whose maximum is ||G||_1.

    R satisfies _pack(G vec(sigma)) = R _pack(sigma) for Hermitian sigma.
    Each element of G carries the uniform-window average of the residual
    phase e^{-i w t} with w = E_p + E_n - E_q - E_m; resonant elements (|w|
    below ENERGY_RESOLUTION) keep weight 1 at every window length, where
    ideal phases keep only (p, q) = (m, n) and m = n, p = q.
    Only the rows (m, n), m <= n, of G are formed, BLOCK_ENTRIES entries at
    a time: row (n, m) is the conjugate of row (m, n) with its columns
    permuted by t, so one row gives both packed rows of R.
    """
    check_window(t_min, t_max)
    d = h.dim
    e = h.energies
    v = h.eigenbasis
    t, upper, sign = _packing(d)
    # P_b = V^dag |b><b| V stacked over outcomes, one row vec(P_b) per b;
    # P_b[q, p] = conj(P_b[p, q]), so G's rows are sum_b P_b[m, n] P_b[q, p]
    p = (v.conj()[:, :, None] * v[:, None, :]).reshape(d, d * d)
    p_conj = p.conj()
    # w = gap(m, n) - gap(p, q) with gap(m, n) = E_n - E_m, so e^{-i w t}
    # is the outer product of e^{-i gap t} and its conjugate
    gap = (e[None, :] - e[:, None]).reshape(-1)
    ph_min, ph_max = np.exp(-1j * np.multiply.outer((t_min, t_max), gap))
    conj_min, conj_max = ph_min.conj(), ph_max.conj()
    dt = t_max - t_min
    r = np.empty((d * d, d * d))
    col_sums = np.zeros(d * d)
    rows_upper = np.flatnonzero(upper)
    rows = max(1, BLOCK_ENTRIES // (d * d))
    for start in range(0, len(rows_upper), rows):
        j = rows_upper[start:start + rows]
        omega = gap[j, None] - gap
        small = np.abs(omega) < ENERGY_RESOLUTION
        weight = np.outer(ph_max[j], conj_max)
        weight -= np.outer(ph_min[j], conj_min)
        weight /= -1j * np.where(small, 1.0, omega) * dt
        weight[small] = 1.0
        g = p.T[j] @ p_conj
        g *= weight
        # packed input coordinate (m, n) stands for |m><n| + |n><m| (m < n),
        # i|n><m| - i|m><n| (m > n) or |m><m|
        g_t = g[:, t]
        cols = np.where(upper, g + g_t, 1j * (g_t - g))
        cols[:, sign == 0] *= 0.5
        r[j] = cols.real
        off = sign[j] != 0
        r[t[j[off]]] = cols.imag[off]
        mag = np.abs(g)
        col_sums += mag.sum(axis=0) + mag[off][:, t].sum(axis=0)
    return r, col_sums


def _invert_spd_in_place(a: np.ndarray) -> None:
    """Overwrite the symmetric positive-definite a, read from its upper
    triangle, with its inverse; LinAlgError if a block Cholesky fails.

    Three passes over the upper triangle in blocks of INVERSE_BLOCK rows
    or columns, each about n^3/6 multiply-adds of GEMMs:
    - a = U^T U, one block row of U at a time;
    - U becomes V = U^-1, one block column j at a time, as
      V_ij = -(sum over i <= l < j of V_il U_lj) V_jj reads U only in
      column j and V only in the columns already finished;
    - V becomes a^-1 = V V^T, one block column i at a time: its rows up to
      block i are one GEMM of V's rows up to block i with V's row block i,
      both over the columns from block i on, which are not yet overwritten.
    Only diagonal blocks go to np.linalg.cholesky and np.linalg.inv, and
    the lower triangle is mirrored from the upper at the end. Beside a the
    passes hold one INVERSE_BLOCK x n buffer.
    """
    n = len(a)
    blocks = [slice(k0, min(k0 + INVERSE_BLOCK, n))
              for k0 in range(0, n, INVERSE_BLOCK)]
    flat = np.empty(min(INVERSE_BLOCK, n) * n)

    def scratch(rows: int, cols: int) -> np.ndarray:
        return flat[:rows * cols].reshape(rows, cols)

    def symmetric(block: np.ndarray) -> np.ndarray:
        return np.triu(block) + np.triu(block, 1).T

    for k in blocks:  # a = U^T U
        rows = a[k, k.start:]
        if k.start:
            above = a[:k.start, k.start:]
            rows -= np.matmul(above[:, :k.stop - k.start].T, above,
                              out=scratch(*rows.shape))
        low = np.linalg.cholesky(symmetric(a[k, k]))  # U_kk^T
        right = a[k, k.stop:]
        right[...] = np.matmul(np.linalg.inv(low), right, out=scratch(*right.shape))
        a[k, k] = low.T
    for j in blocks:  # U -> V = U^-1
        v_jj = np.triu(np.linalg.inv(a[j, j]))
        if j.start:
            col = scratch(j.start, j.stop - j.start)
            for i in blocks[:j.start // INVERSE_BLOCK]:
                np.matmul(a[i, i.start:j.start], a[i.start:j.start, j], out=col[i])
            np.matmul(col, -v_jj, out=a[:j.start, j])
        a[j, j] = v_jj
    for i in blocks:  # V -> V V^T
        a[:i.stop, i] = np.matmul(a[:i.stop, i.start:], a[i, i.start:].T,
                                  out=scratch(i.stop, i.stop - i.start))
    for k in blocks:
        a[k.stop:, k] = a[k, k.stop:].T
        a[k, k] = symmetric(a[k, k])


def finite_time_choi(h: SpectralHamiltonian, t_min: float,
                     t_max: float) -> FiniteTimeChoi:
    """Inverse of the packed real window-corrected superoperator of N.

    G is the average of sum_b |sigma-hat_b(t)>><<sigma-hat_b(t)| over the
    outcomes b and the window times t, a Gram average, so it is Hermitian
    positive semidefinite under Tr(A^dag B), and positive definite when the
    window map is invertible. In packed coordinates that pairing is
    sum w a b, so S = W R is symmetric positive definite, and it is formed
    exactly in place, as w holds only 1s and 2s (the similarity
    W^1/2 R W^-1/2 would round by sqrt 2). _invert_spd_in_place overwrites
    S with S^-1 by a blocked Cholesky inverse, about half the multiply-adds
    of a general inverse and closer to the exact one, and R^-1 = S^-1 W.
    So the inverter holds one real d^2 x d^2 array from the window build to
    the end. A failed block Cholesky (S not numerically positive definite)
    or a non-finite entry of the result reports cond = inf.
    ValueError, before any allocation, if d^4 exceeds MAX_WINDOW_ENTRIES.
    """
    entries = h.dim**4
    if entries > MAX_WINDOW_ENTRIES:
        raise ValueError(f"the finite-time superoperator of d = {h.dim} holds "
                         f"d^4 = {entries} doubles ({entries / 2**27:g} GiB), "
                         f"above MAX_WINDOW_ENTRIES = {MAX_WINDOW_ENTRIES}")
    r, col_sums = _window_superoperator(h, t_min, t_max)
    w = _packed_weights(h.dim)
    r *= w[:, None]  # S = W R, exactly, as w holds 1s and 2s
    # exact 1-norm condition number from the inverse the apply path needs
    # anyway; a full SVD for the 2-norm value cost more than the inverse
    try:
        _invert_spd_in_place(r)
    except np.linalg.LinAlgError:
        cond = np.inf
    else:  # R^-1 = S^-1 W; the norm is non-finite if any entry of it is
        r *= w
        cond = float(col_sums.max() * _inverse_one_norm(r))
    if not np.isfinite(cond):
        cond = np.inf
    if cond > SINGULAR_CONDITION:
        raise np.linalg.LinAlgError("finite-time superoperator is numerically "
                                    f"singular (cond={cond:.3e}, 1-norm)")
    return FiniteTimeChoi(r, cond)
