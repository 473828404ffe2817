"""Construction, diagnosis, and inversion of the quench shadow map.

Given a Hamiltonian with eigenbasis V and eigen-energies E, a round of the
protocol evolves the state by U = V diag(e^{i phi}) V^dag (phi = -E t for a
time snapshot) and measures in the computational basis. The average
post-measurement record is a linear map of the state; this module builds
that map, decides whether it is invertible, and applies the inverse to
single snapshots to produce unbiased per-shot state estimators.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .qmatrix import SpectralHamiltonian, as_complex
from .rdu import DegeneracySpec

SINGULAR_CONDITION = 1e12
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
    condition_number: float
    resonances: list = field(default_factory=list)  # informational only

    @property
    def complete(self) -> bool:
        return not (self.x_h_singular or self.zero_offdiagonal
                    or self.energy_degeneracy or self.basis_aligned)

    @property
    def verdict(self) -> str:
        return "complete" if self.complete else "incomplete"

    def summary(self) -> str:
        if self.complete:
            lines = ["complete"]
        else:
            lines = ["incomplete"]
            if self.energy_degeneracy:
                lines.append(f"  degenerate energy pairs: {self.energy_degeneracy}")
            if self.basis_aligned:
                lines.append(f"  basis-aligned eigenstates: {self.basis_aligned}")
            if self.x_h_singular:
                lines.append(f"  X_H singular (cond={self.condition_number:.3e})")
            if self.zero_offdiagonal:
                lines.append(f"  zero off-diagonals of X_H: {self.zero_offdiagonal[:8]}")
        if self.resonances:
            lines.append(f"  note: second-order resonances (harmless): {self.resonances[:8]}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Snapshot:
    """One experiment record: evolution time or phase vector, plus outcome."""

    bitstring: int
    time: float | None = None
    phases: np.ndarray | None = None

    def __post_init__(self):
        if (self.time is None) == (self.phases is None):
            raise ValueError("exactly one of time/phases must be set")
        if self.phases is not None:
            object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        if self.bitstring < 0:
            raise ValueError("bitstring must be a non-negative basis index")


@dataclass(frozen=True)
class FiniteTimeChoi:
    """Window-corrected forward superoperator of the rotated-frame map N."""

    superoperator: np.ndarray          # d^2 x d^2, acts on vec(sigma)
    inverse_superoperator: np.ndarray
    condition_number: float


@dataclass(frozen=True)
class ShadowInverter:
    """Precomputed inversion data for one Hamiltonian.

    mode is "ideal" (closed-form inverse, assumes ideal random phases),
    "finite-time" (dense inverse of the window-corrected superoperator) or
    "pseudo-inverse" (diagonal dropped, only off-diagonals with nonzero
    X_H entries recovered).
    """

    hamiltonian: SpectralHamiltonian
    v_sq: np.ndarray
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


def diagnose_detection(h: SpectralHamiltonian,
                       resolution: float = ENERGY_RESOLUTION) -> CompletenessDiagnosis:
    """Full tomography-completeness diagnosis for a Hamiltonian."""
    v_sq = np.abs(h.eigenbasis) ** 2
    x_h = v_sq.T @ v_sq
    cond = float(np.linalg.cond(x_h))
    singular = not np.isfinite(cond) or cond > SINGULAR_CONDITION
    off = [(i, j) for i in range(h.dim) for j in range(i + 1, h.dim)
           if abs(x_h[i, j]) < ZERO_OFFDIAG_TOL]
    spec = DegeneracySpec(h.energies, resolution)
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
        resonances=resonances,
    )


def build_inverter(h: SpectralHamiltonian, mode: str = "ideal",
                   t_min: float | None = None, t_max: float | None = None,
                   resolution: float = ENERGY_RESOLUTION) -> ShadowInverter:
    if mode not in ("ideal", "finite-time", "pseudo-inverse"):
        raise ValueError(f"unknown inverter mode {mode!r}")
    v_sq = np.abs(h.eigenbasis) ** 2
    x_h = v_sq.T @ v_sq
    diagnosis = diagnose_detection(h, resolution)
    x_inv = None
    if not diagnosis.x_h_singular:
        x_inv = np.linalg.inv(x_h)
    finite = None
    window = None
    if mode == "finite-time":
        if t_min is None or t_max is None:
            raise ValueError("finite-time mode needs t_min and t_max")
        finite = finite_time_choi(h, t_min, t_max, resolution)
        window = (float(t_min), float(t_max))
    return ShadowInverter(h, v_sq, x_h, x_inv, diagnosis, mode, window, finite)


def _apply_to_diagonal(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Real x applied to the diagonal of sigma or of each matrix of a stack."""
    diag = np.diagonal(sigma, axis1=-2, axis2=-1)
    if diag.ndim == 1:
        return x @ diag
    # real and imaginary parts in separate real products: a real diagonal
    # then gives the bits of one real GEMM
    flat = diag.reshape(-1, diag.shape[-1])
    return (flat.real @ x.T + 1j * (flat.imag @ x.T)).reshape(diag.shape)


def _apply_superoperator(g: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """g acting on vec(sigma) for one matrix or for each matrix of a stack."""
    if sigma.ndim == 2:
        return (g @ sigma.reshape(-1)).reshape(sigma.shape)
    return (sigma.reshape(-1, len(g)) @ g.T).reshape(sigma.shape)


def apply_n(inv: ShadowInverter, sigma) -> np.ndarray:
    """Forward rotated-frame map N on one d x d matrix or a (..., d, d) stack.

    The window-corrected superoperator in finite-time mode, otherwise the
    ideal-phase closed form.
    """
    sigma = as_complex(sigma)
    if inv.mode == "finite-time":
        return _apply_superoperator(inv.finite.superoperator, sigma)
    i = np.arange(inv.dim)
    out = inv.x_h * sigma
    out[..., i, i] = _apply_to_diagonal(inv.x_h, sigma)
    return out


def apply_n_inverse(inv: ShadowInverter, sigma) -> np.ndarray:
    """Inverse rotated-frame map on one d x d matrix or a (..., d, d) stack.

    Ideal mode: diagonal output (X_H^-1 applied to the input diagonal),
    off-diagonal elements divided by the matching X_H entry. Pseudo-inverse
    mode: diagonal zeroed, only off-diagonals with nonzero X_H recovered.
    Finite-time mode: dense inverse superoperator applied to vec(sigma).
    """
    sigma = as_complex(sigma)
    if inv.mode == "finite-time":
        return _apply_superoperator(inv.finite.inverse_superoperator, sigma)
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
        return (a.T.reshape(-1) @ inv.finite.inverse_superoperator).reshape(a.shape).T
    if inv.mode == "pseudo-inverse" and np.max(np.abs(np.diag(a))) > ZERO_DIAG_TOL:
        raise ValueError(
            "pseudo-inverse mode supports only observables with zero "
            "diagonal in the eigenbasis frame")
    return apply_n_inverse(inv, a)


def forward_superoperator(inv: ShadowInverter) -> np.ndarray:
    """Dense d^2 x d^2 matrix of apply_n on vec(sigma)."""
    units = np.eye(inv.dim**2, dtype=complex).reshape(-1, inv.dim, inv.dim)
    return apply_n(inv, units).reshape(len(units), -1).T


def inverse_superoperator(inv: ShadowInverter) -> np.ndarray:
    """Dense d^2 x d^2 matrix of apply_n_inverse on vec(sigma)."""
    units = np.eye(inv.dim**2, dtype=complex).reshape(-1, inv.dim, inv.dim)
    return apply_n_inverse(inv, units).reshape(len(units), -1).T


def finite_time_choi(h: SpectralHamiltonian, t_min: float, t_max: float,
                     resolution: float = ENERGY_RESOLUTION) -> FiniteTimeChoi:
    """Window-corrected superoperator of N and its numerical inverse.

    Each element carries the uniform-window average of the residual phase
    e^{-i w t} with w = E_p + E_n - E_q - E_m; resonant elements (|w| below
    resolution) keep weight 1 and match the ideal map exactly.
    """
    if not t_max > t_min:
        raise ValueError("t_max must exceed t_min")
    d = h.dim
    e = h.energies
    v = h.eigenbasis
    # P_b = V^dag |b><b| V stacked over outcomes: P[b, m, n]
    p = v.conj()[:, :, None] * v[:, None, :]
    a = np.einsum("bqp,bmn->mnpq", p, p)
    omega = (e[None, None, :, None] + e[None, :, None, None]
             - e[None, None, None, :] - e[:, None, None, None])  # E_p+E_n-E_q-E_m
    dt = t_max - t_min
    small = np.abs(omega) < resolution
    om = np.where(small, 1.0, omega)
    weight = np.where(
        small, 1.0,
        (np.exp(-1j * om * t_max) - np.exp(-1j * om * t_min)) / (-1j * om * dt))
    g = (a * weight).reshape(d * d, d * d)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > SINGULAR_CONDITION:
        raise np.linalg.LinAlgError(
            f"finite-time superoperator is numerically singular (cond={cond:.3e})")
    g_inv = np.linalg.inv(g)
    return FiniteTimeChoi(g, g_inv, cond)


def snapshot_phases(h: SpectralHamiltonian, snap: Snapshot) -> np.ndarray:
    """Diagonal phases phi of the evolution U = V diag(e^{i phi}) V^dag."""
    if snap.time is not None:
        return -h.energies * snap.time
    if len(snap.phases) != h.dim:
        raise ValueError("phase vector length does not match dimension")
    return snap.phases


def rotated_snapshot(h: SpectralHamiltonian, snap: Snapshot) -> np.ndarray:
    """sigma-hat = conj(Lam) V^dag |b><b| V Lam for one snapshot."""
    if snap.bitstring >= h.dim:
        raise ValueError("bitstring exceeds Hilbert-space dimension")
    phi = snapshot_phases(h, snap)
    v = h.eigenbasis
    z = v[snap.bitstring, :] * np.exp(1j * phi)
    return np.outer(z.conj(), z)


def build_estimator(inv: ShadowInverter, snap: Snapshot) -> np.ndarray:
    """Per-snapshot state estimator rho-hat = V N^-1(sigma-hat) V^dag."""
    inv.require_complete()
    sigma = rotated_snapshot(inv.hamiltonian, snap)
    v = inv.hamiltonian.eigenbasis
    return v @ apply_n_inverse(inv, sigma) @ v.conj().T


def build_local_estimator(invs, snaps) -> np.ndarray:
    """Tensor product of per-patch estimators (patch 0 most significant)."""
    if len(invs) != len(snaps):
        raise ValueError("one snapshot per patch is required")
    for a in invs:
        a.require_complete()
    _warn_shared_patch_energies(invs, snaps)
    out = np.array([[1.0 + 0j]])
    for a, s in zip(invs, snaps):
        out = np.kron(out, build_estimator(a, s))
    return out


def _warn_shared_patch_energies(invs, snaps) -> None:
    import warnings
    shared_time = all(s.time is not None for s in snaps) and \
        len({s.time for s in snaps}) == 1 and len(snaps) > 1
    if not shared_time:
        return
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            ei = invs[i].hamiltonian.energies
            ej = invs[j].hamiltonian.energies
            if np.any(np.abs(ei[:, None] - ej[None, :]) <= ENERGY_RESOLUTION):
                warnings.warn(
                    f"patches {i} and {j} share eigen-energies under a common "
                    "evolution time; the joint phase ensemble is degenerate",
                    stacklevel=3)


def shadow_map_forward(inv: ShadowInverter, rho) -> np.ndarray:
    """Average post-measurement record M(rho) = V N(V^dag rho V) V^dag."""
    rho = as_complex(rho)
    v = inv.hamiltonian.eigenbasis
    rho_h = v.conj().T @ rho @ v
    return v @ apply_n(inv, rho_h) @ v.conj().T
