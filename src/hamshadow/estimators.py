"""Observable estimation from snapshot sets.

Linear functionals use the fast path: per snapshot, the estimate is a
quadratic form of the measured eigenbasis row, with the observable
pre-transformed once through the inverse map. Purity, the one two-copy
functional, uses the pair U-statistic with a delete-one jackknife error.
The biased wrong-inversion variant is provided for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import SpectralHamiltonian, as_complex, is_hermitian
from .sampler import SnapshotSet, _snapshot_columns
from .shadowmap import ShadowInverter, apply_n_inverse, inverted_snapshot_moments

HERMITIAN_TOL = 1e-10
# Complex entries per row block of the (K, d) amplitude work, so that no
# K x d temporary is made beside Z itself. The quadratic forms' (rows, d) x
# (d, d) GEMM ran fastest at 2^15 to 2^16 entries with 1 BLAS thread (2^15:
# 1 024 rows at d = 32, 512 at d = 64), 1.3 to 1.4 times faster than at
# 2^12. The gather keeps 2^12: its three temporaries per block grow with
# the block, and 2^15-entry gather blocks raised the peak memory of a light
# estimate run.
ROW_BLOCK_ENTRIES = 2**15
GATHER_BLOCK_ENTRIES = 2**12


def _is_swap(m: np.ndarray) -> bool:
    """m is exactly the SWAP of two copies, checked without a second d^4 array.

    m must be (d^2, d^2), hold exactly d^2 nonzero entries and a 1 at each
    (ij, ji). A C-contiguous complex128 or float64 m is counted by its
    64-bit words, each one real or imaginary part, as a SIMD integer count
    at about memory bandwidth (one read of the d^4 entries: about 30 ms at
    d = 64, against about 55 ms for numpy's complex count). A word is
    nonzero if its double is, and also for -0.0, whose sign bit is set, so
    a word count of d^2 with d^2 entries equal to 1 leaves every other word
    +0.0, and the entry count is d^2 as well. Any other word count, and any
    other dtype or layout, takes the exact entry count, so the verdict is
    that of the entry count for every input: -0.0 parts are accepted, and
    NaN, subnormal or imaginary parts refused.
    """
    d = math.isqrt(m.shape[0])
    if m.shape != (d * d, d * d):
        return False
    count = -1
    if m.flags.c_contiguous and m.dtype in (np.complex128, np.float64):
        count = np.count_nonzero(m.view(np.uint64))
    if count != d * d:
        count = np.count_nonzero(m)
    i, j = np.indices((d, d))
    return count == d * d and bool(np.all(m[i * d + j, j * d + i] == 1))


@dataclass(frozen=True)
class Observable:
    """Hermitian observable on one copy, or SWAP on two (the purity)."""

    matrix: np.ndarray
    copies: int = 1
    name: str = "O"

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_complex(self.matrix))
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"observable {self.name} must be a square 2-D "
                             f"matrix, not of shape {shape}")
        if shape[0] == 0:
            raise ValueError(f"observable {self.name} is an empty 0 x 0 matrix")
        if self.copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        if self.copies == 2:
            if not _is_swap(self.matrix):
                raise ValueError(f"two-copy observable {self.name} is not the "
                                 "SWAP of two copies, the only one supported")
        elif not is_hermitian(self.matrix, HERMITIAN_TOL):
            raise ValueError(f"observable {self.name} is not Hermitian within 1e-10")


@dataclass(frozen=True)
class EstimateReport:
    value: float
    std_error: float
    num_snapshots: int
    method: str

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be non-negative")


def _eigenframe_observable(inv: ShadowInverter, o: Observable) -> np.ndarray:
    v = inv.hamiltonian.eigenbasis
    return v.conj().T @ o.matrix @ v


def transformed_observable(inv: ShadowInverter, o: Observable) -> np.ndarray:
    """O-tilde with Tr(O-tilde sigma-hat) equal to the per-snapshot estimate.

    That is the adjoint of the inverse map applied to the eigenframe
    observable, and every inverse is its own adjoint (apply_n_inverse). The
    observable must vanish on every entry the inverter does not recover.
    """
    if o.copies != 1:
        raise ValueError("transformed_observable expects a one-copy observable")
    a = _eigenframe_observable(inv, o)
    inv.require_recovered(a)
    return apply_n_inverse(inv, a)


def snapshot_amplitudes(inv: ShadowInverter, snaps) -> np.ndarray:
    """Read-only matrix Z with row k = V[b_k, :] * exp(i phi_k), shape (K, d),
    of a SnapshotSet or a sequence of Snapshot rows; a time t gives phi = -E t.

    Z depends only on the snapshots and the Hamiltonian, not on the inverter
    mode. A SnapshotSet keeps the Z of its last call, keyed by the identity
    of ``inv.hamiltonian``: a later call on the same set with the same
    SpectralHamiltonian object returns that Z without a new gather, so every
    estimator run on one set shares one gather; a call with another object
    replaces it. A sequence of rows is gathered anew on each call.
    """
    h = inv.hamiltonian
    kept = snaps._amplitudes if isinstance(snaps, SnapshotSet) else None
    if kept is not None and kept[0] is h:
        return kept[1]
    z = _gather_amplitudes(h, snaps)
    z.setflags(write=False)
    if isinstance(snaps, SnapshotSet):
        object.__setattr__(snaps, "_amplitudes", (h, z))
    return z


def _gather_amplitudes(h: SpectralHamiltonian, snaps) -> np.ndarray:
    """Z of snapshot_amplitudes, computed in row blocks."""
    bits, times, phases = _snapshot_columns(snaps)
    if bits.size and bits.max() >= h.dim:
        raise ValueError("bitstring exceeds Hilbert-space dimension")
    if times is None and phases.shape[1] != h.dim:
        raise ValueError("phase vector length does not match dimension")
    z = np.empty((len(bits), h.dim), dtype=complex)
    step = max(1, GATHER_BLOCK_ENTRIES // h.dim)
    for start in range(0, len(z), step):
        blk = slice(start, start + step)
        phi = phases[blk] if times is None else -np.outer(times[blk], h.energies)
        # V[b] stays the first operand: the complex product is not bitwise symmetric
        np.multiply(h.eigenbasis[bits[blk]], np.exp(1j * phi), out=z[blk])
    return z


def _quadratic_values(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Re sum_mn z_m B[m,n] conj(z_n), the value itself for Hermitian B.

    Per row block, one GEMM and a real row dot: Re(w conj(z)) is
    Re w Re z + Im w Im z, so the interleaved float views of w = z B and z
    give it with no conj(z) or product temporary. Each value has the bits
    of one pass over all K rows, whatever the block size: gemm sums a row
    in the same order for any row count above one.
    """
    k, d = z.shape
    out = np.empty(k)
    step = max(2, ROW_BLOCK_ENTRIES // d)
    for start in range(0, k, step):
        # numpy hands a one-row product to gemv, which sums in another order:
        # a lone last row is done again with the row before it
        blk = slice(min(start, max(0, k - 2)), start + step)
        zb = np.ascontiguousarray(z[blk])
        out[blk] = np.einsum("kj,kj->k", (zb @ b).view(float), zb.view(float))
    return out


def snapshot_values(inv: ShadowInverter, snaps, o: Observable) -> np.ndarray:
    """Per-snapshot estimates of Tr(O rho), cost O(d^2) per snapshot."""
    o_t = transformed_observable(inv, o)
    z = snapshot_amplitudes(inv, snaps)
    return _quadratic_values(z, o_t)


def median_of_means(per_snapshot_values, num_batches: int) -> EstimateReport:
    """Median of contiguous batch means; remainder shots are dropped."""
    vals = np.asarray(per_snapshot_values, dtype=float)
    if len(vals) == 0:
        raise ValueError("no values to aggregate")
    if num_batches < 1:
        raise ValueError("num_batches must be at least 1")
    if num_batches == 1:
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        return EstimateReport(float(np.mean(vals)), se, len(vals), "mean")
    size = len(vals) // num_batches
    if size == 0:
        raise ValueError("more batches than values")
    used = vals[:size * num_batches].reshape(num_batches, size)
    means = used.mean(axis=1)
    se = float(np.std(means, ddof=1) / np.sqrt(num_batches)) if num_batches > 1 else 0.0
    return EstimateReport(float(np.median(means)), se, size * num_batches,
                          f"median-of-means({num_batches})")


def estimate_linear(inv: ShadowInverter, snaps, o: Observable,
                    num_batches: int = 1) -> EstimateReport:
    return median_of_means(snapshot_values(inv, snaps, o), num_batches)


def estimate_nonlinear(inv: ShadowInverter, snaps, o: Observable) -> EstimateReport:
    """Unbiased purity estimate; o must be the SWAP of two copies."""
    if o.copies != 2:
        raise ValueError("estimate_nonlinear expects a two-copy observable")
    if o.matrix.shape != (inv.dim ** 2, inv.dim ** 2):
        raise ValueError("two-copy observable dimension mismatch")
    return _purity_u_statistic(inv, snaps)


def estimate_purity(inv: ShadowInverter, snaps) -> EstimateReport:
    return _purity_u_statistic(inv, snaps)


def _purity_u_statistic(inv: ShadowInverter, snaps) -> EstimateReport:
    """Tr(rho^2) by the symmetric pair U-statistic.

    The pair term is Tr(rho-hat_i rho-hat_j), and the sum follows from
    S = sum_k rho-hat_k, Tr(rho-hat_k^2) and Tr(rho-hat_k S).
    `inverted_snapshot_moments` gives the first two straight from the
    amplitude matrix Z (closed forms in the ideal modes, one packed real
    GEMM per block in finite-time mode); the last is the linear fast path,
    a quadratic form of each row of Z. Standard error is the delete-one
    jackknife. The inverter must recover every entry of the state.
    """
    inv.require_whole_state()
    z = snapshot_amplitudes(inv, snaps)
    k = len(z)
    if k < 2:
        raise ValueError("nonlinear estimation needs at least 2 snapshots")
    s, diag = inverted_snapshot_moments(inv, z)  # s: eigenframe sum of rho-hat
    cross = _quadratic_values(z, apply_n_inverse(inv, s))
    full = np.trace(s @ s)
    dsum = diag.sum()
    value = float(((full - dsum) / (k * (k - 1))).real)
    if k == 2:
        return EstimateReport(value, 0.0, k, "u-statistic")
    # delete-one totals recombine from the running sums
    loo_full = full - 2 * cross + diag
    loo = ((loo_full - (dsum - diag)) / ((k - 1) * (k - 2))).real
    se = float(np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2)))
    return EstimateReport(value, se, k, "u-statistic")


def wrong_postprocessing_values(inv: ShadowInverter, snaps,
                                o: Observable) -> np.ndarray:
    """Quench snapshots inverted with the global-shadow formula.

    The data come from a single fixed Hamiltonian, whose evolution ensemble
    is far from Haar, so this estimator is biased; it exists as the
    comparison baseline and is labeled as such.
    """
    a = _eigenframe_observable(inv, o)
    z = snapshot_amplitudes(inv, snaps)
    d = inv.dim
    tr_o = float(np.trace(o.matrix).real)
    return (d + 1) * _quadratic_values(z, a) - tr_o
