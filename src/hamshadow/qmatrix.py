"""Dense complex linear algebra and quantum primitives shared by all modules.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a computational basis index, so
  ``np.kron(A, B)`` puts ``A`` on the most significant subsystem.
* Energies are angular frequencies in rad/us (a value quoted as
  "1.1 x 2pi MHz" is stored as ``1.1 * 2 * pi``), times are in us, so
  phases ``E * t`` are plain radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def is_hermitian(m, tol: float = 1e-10) -> bool:
    m = as_complex(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


def is_unitary(m, tol: float = 1e-10) -> bool:
    m = as_complex(m)
    if m.shape[0] != m.shape[1]:
        return False
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol


def is_density(m, herm_tol: float = 1e-10, trace_tol: float = 1e-10,
               eig_tol: float = 1e-8) -> bool:
    m = as_complex(m)
    if not is_hermitian(m, herm_tol):
        return False
    if abs(np.trace(m).real - 1.0) > trace_tol or abs(np.trace(m).imag) > trace_tol:
        return False
    return np.linalg.eigvalsh(m).min() >= -eig_tol


def check_density(m, name: str = "rho") -> np.ndarray:
    m = as_complex(m)
    if not is_density(m):
        raise ValueError(f"{name} is not a valid density matrix")
    return m


def partial_trace(m, subsystem_dims, keep) -> np.ndarray:
    """Reduced matrix on the subsystems listed in ``keep``.

    ``subsystem_dims`` lists the dimension of each subsystem, most
    significant first; their product must equal the dimension of ``m``.
    """
    m = as_complex(m)
    dims = list(subsystem_dims)
    n = len(dims)
    d = int(np.prod(dims))
    if m.shape != (d, d):
        raise ValueError(
            f"matrix dimension {m.shape} does not match subsystem dims {dims}")
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = m.reshape(dims + dims)
    # einsum with integer subscripts: traced subsystems share row/col labels
    row = list(range(n))
    col = [i if i not in keep else n + i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row + col, out)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(dk, dk)


def _sealed(array, dtype) -> np.ndarray:
    """array as a read-only C-ordered array of dtype that no other array
    writes into: array itself if it already is one and owns its memory, as
    the snapshot columns that run_batch and load_snapshots build are, else a
    copy, which leaves the caller's array writeable. Keeping those columns
    saves a K x d copy at the sampler's peak memory."""
    if (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.flags.owndata and array.flags.c_contiguous
            and not array.flags.writeable):
        return array
    a = np.array(array, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def swap_operator(d: int) -> np.ndarray:
    """SWAP on two d-dimensional copies: S|ij> = |ji>."""
    s = np.zeros((d, d, d, d), dtype=complex)
    i, j = np.indices((d, d))
    s[i, j, j, i] = 1.0
    return s.reshape(d * d, d * d)


@dataclass(frozen=True)
class SpectralHamiltonian:
    """A Hermitian operator stored via its eigen-decomposition.

    ``energies`` are ascending (rad/us) and ``eigenbasis`` holds the
    matching eigenvectors as columns (unitary). Both are read-only arrays
    of their own, so no later write, by the caller or through the fields,
    can change a Hamiltonian that inverters, fingerprints and the amplitude
    matrices kept on snapshot sets were built from.
    """

    energies: np.ndarray
    eigenbasis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "energies", _sealed(self.energies, float))
        object.__setattr__(self, "eigenbasis", _sealed(self.eigenbasis, complex))
        if self.eigenbasis.shape != (self.dim, self.dim):
            raise ValueError("eigenbasis shape does not match energies")
        if not is_unitary(self.eigenbasis, 1e-10):
            raise ValueError("eigenbasis is not unitary within 1e-10")

    @property
    def dim(self) -> int:
        return len(self.energies)

    def matrix(self) -> np.ndarray:
        v = self.eigenbasis
        return (v * self.energies) @ v.conj().T


def _fix_eigenvector_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real-positive."""
    v = v.copy()
    for k in range(v.shape[1]):
        j = int(np.argmax(np.abs(v[:, k])))
        phase = v[j, k] / abs(v[j, k])
        v[:, k] = v[:, k] / phase
    return v


def hermitian_spectral(h, tol: float = 1e-8) -> SpectralHamiltonian:
    """Eigen-decompose a Hermitian matrix with a deterministic gauge."""
    h = as_complex(h)
    if not is_hermitian(h, tol):
        raise ValueError("input is not Hermitian within tolerance")
    energies, v = np.linalg.eigh((h + h.conj().T) / 2)
    return SpectralHamiltonian(energies, _fix_eigenvector_phases(v))


def evolve(h: SpectralHamiltonian, t: float, rho) -> np.ndarray:
    """Unitary evolution exp(-iHt) rho exp(iHt)."""
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    rho = as_complex(rho)
    v = h.eigenbasis
    lam = np.exp(-1j * h.energies * t)
    u = (v * lam) @ v.conj().T
    return u @ rho @ u.conj().T
