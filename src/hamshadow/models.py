"""Physical model builders: Rydberg chains, benchmark states, and
parameterized eigenbasis families for sweeps.

Units follow the package convention: energies are angular frequencies in
rad/us (a "1.1 x 2pi MHz" quantity is stored as 1.1 * 2 * pi), lengths
are um, times are us.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmatrix import SpectralHamiltonian, as_complex, hermitian_spectral
from .sampler import substream

MAX_ATOMS = 12

TWO_PI = 2 * np.pi

# default chain parameters: Rabi 1.1x2pi MHz, phase 2.1 rad, detuning
# 1.2x2pi MHz, van der Waals coefficient 2pi x 862690 MHz um^6,
# lattice spacing 8.781 um with 0.488 um placement jitter
DEFAULT_OMEGA = 1.1 * TWO_PI
DEFAULT_PHI = 2.1
DEFAULT_DELTA = 1.2 * TWO_PI
DEFAULT_C6 = TWO_PI * 862690.0
DEFAULT_SPACING = 8.781
DEFAULT_JITTER = 0.488

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_tensor(labels: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, leftmost on qubit 0 (MSB)."""
    out = np.array([[1.0 + 0j]])
    for c in labels:
        out = np.kron(out, PAULI[c])
    return out


@dataclass(frozen=True)
class RydbergParams:
    """Chain of two-level atoms driven between ground and Rydberg states."""

    positions: np.ndarray
    omega: float = DEFAULT_OMEGA
    phi: float = DEFAULT_PHI
    delta: float = DEFAULT_DELTA
    c6: float = DEFAULT_C6

    def __post_init__(self):
        # a flat list is a chain of 1-D coordinates; a 2-D array has one
        # row per atom
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim == 1:
            pos = pos.reshape(-1, 1)
        if pos.ndim != 2:
            raise ValueError("positions must be a flat chain or one row per atom")
        object.__setattr__(self, "positions", pos)
        n = len(pos)
        for i in range(n):
            for j in range(i + 1, n):
                if np.linalg.norm(pos[i] - pos[j]) <= 1e-6:
                    raise ValueError(f"atoms {i} and {j} coincide")

    @property
    def num_atoms(self) -> int:
        return len(self.positions)


def rydberg_hamiltonian(p: RydbergParams) -> SpectralHamiltonian:
    """Driven Rydberg chain with van der Waals interactions.

    H = (omega/2) sum_j (e^{i phi}|g_j><r_j| + h.c.) - delta sum_j n_j
        + sum_{j<k} C / |x_j - x_k|^6 n_j n_k
    with |g> = |0>, |r> = |1>, n = |r><r|. The diagonal is a real sum over
    the occupation bits of each basis index; the drive flips one bit.
    """
    n = p.num_atoms
    if n > MAX_ATOMS:
        raise ValueError(f"atom count {n} exceeds the dimension guard")
    d = 2**n
    idx = np.arange(d)
    shift = n - 1 - np.arange(n)  # qubit 0 is the most significant bit
    occ = (idx[:, None] >> shift) & 1
    diag = np.zeros(d)
    for j in range(n):
        diag -= p.delta * occ[:, j]
    for j in range(n):
        for k in range(j + 1, n):
            r = np.linalg.norm(p.positions[j] - p.positions[k])
            diag += p.c6 / r**6 * (occ[:, j] & occ[:, k])
    h = np.diag(diag.astype(complex))
    g_to_r = (p.omega / 2) * np.exp(1j * p.phi)  # <g_j| H |r_j>
    for j in range(n):
        h[idx, idx ^ (1 << shift[j])] = np.where(occ[:, j], g_to_r.conjugate(),
                                                 g_to_r)
    return hermitian_spectral(h)


def random_positions(n: int, spacing_d: float = DEFAULT_SPACING,
                     jitter: float = DEFAULT_JITTER, seed: int = 0) -> np.ndarray:
    """1D chain at j * spacing with iid uniform placement jitter."""
    if not jitter < spacing_d / 2:
        raise ValueError("jitter must be below half the lattice spacing")
    rng = substream(seed)
    base = spacing_d * np.arange(n, dtype=float)
    if jitter > 0:
        base = base + rng.uniform(-jitter, jitter, size=n)
    return base.reshape(n, 1)


def ghz_state(n: int) -> np.ndarray:
    """Superposition of the two alternating occupation patterns.

    (|0101...> + |1010...>)/sqrt(2), qubit 0 most significant.
    """
    if n < 1 or n > MAX_ATOMS:
        raise ValueError("unsupported qubit count")
    d = 2**n
    a = int("".join("01"[j % 2] for j in range(n)), 2)
    b = int("".join("10"[j % 2] for j in range(n)), 2)
    psi = np.zeros(d, dtype=complex)
    psi[a] = psi[b] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def cluster_state(n: int) -> np.ndarray:
    """Open-chain graph state: |+>^n with CZ on every neighboring pair."""
    if n < 2 or n > MAX_ATOMS:
        raise ValueError("unsupported qubit count")
    d = 2**n
    psi = np.full(d, 1 / np.sqrt(d), dtype=complex)
    idx = np.arange(d)
    for j in range(n - 1):
        bit_j = (idx >> (n - 1 - j)) & 1
        bit_k = (idx >> (n - 2 - j)) & 1
        psi = psi * np.where(bit_j & bit_k, -1.0, 1.0)
    return np.outer(psi, psi.conj())


def ladder_product_state(n_zero: int, n_one: int) -> np.ndarray:
    """Product state |0>^{n_zero} (x) |1>^{n_one}."""
    n = n_zero + n_one
    if n < 1 or n > MAX_ATOMS:
        raise ValueError("unsupported qubit count")
    idx = int("0" * n_zero + "1" * n_one, 2)
    psi = np.zeros(2**n, dtype=complex)
    psi[idx] = 1.0
    return np.outer(psi, psi.conj())


def random_pure_state(d: int, seed: int) -> np.ndarray:
    rng = substream(seed)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def thermal_state(h: SpectralHamiltonian, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta H) / Z via the spectral decomposition."""
    w = np.exp(-beta * (h.energies - h.energies.min()))
    w /= w.sum()
    v = h.eigenbasis
    return (v * w) @ v.conj().T


def random_hermitian(d: int, seed: int) -> np.ndarray:
    """Gaussian-ensemble Hermitian sample, exactly self-adjoint."""
    rng = substream(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def exp_family_vh(d: int, theta: float, seed: int) -> np.ndarray:
    """Eigenbasis family exp(i P theta) for a seeded fixed Hermitian P."""
    p = random_hermitian(d, seed)
    w, u = np.linalg.eigh(p)
    return (u * np.exp(1j * theta * w)) @ u.conj().T


def hadamard_basis(n: int) -> np.ndarray:
    """N-fold tensor power of the single-qubit Hadamard matrix."""
    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, h1)
    return out


def hamiltonian_from_unitary(v: np.ndarray,
                             energies=None) -> SpectralHamiltonian:
    """Hamiltonian with a prescribed eigenbasis and generic spectrum.

    With ideal random phases only the eigenbasis matters, so benchmark
    sweeps fix V and use evenly spaced non-degenerate energies by default.
    """
    v = as_complex(v)
    d = v.shape[0]
    if energies is None:
        energies = np.arange(d, dtype=float)
    return SpectralHamiltonian(np.asarray(energies, dtype=float), v)


def single_qubit_theta(theta: float) -> SpectralHamiltonian:
    """One-qubit Hamiltonian cos(theta) Z + sin(theta) X."""
    h = np.cos(theta) * PAULI["Z"] + np.sin(theta) * PAULI["X"]
    return hermitian_spectral(h)


def gue_hamiltonian(d: int, seed: int) -> SpectralHamiltonian:
    return hermitian_spectral(random_hermitian(d, seed))
