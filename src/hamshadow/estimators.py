"""Observable estimation from snapshot sets.

Linear functionals use the fast path: per snapshot, the estimate is a
quadratic form of the measured eigenbasis row, with the observable
pre-transformed once through the inverse map. Purity, the one two-copy
functional, uses the pair U-statistic with a delete-one jackknife error.
A Haar-unitary global-shadow baseline and the biased wrong-inversion
variant are provided for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import SpectralHamiltonian, as_complex, check_density, is_hermitian
from .sampler import (
    SnapshotSet,
    _born_rows,
    _factor_state,
    _snapshot_columns,
    substream,
)
from .shadowmap import (
    ShadowInverter,
    apply_n_inverse_adjoint,
    inverted_snapshot_moments,
)

HERMITIAN_TOL = 1e-10
# complex entries per row block of the (K, d) amplitude work: each block's
# temporaries stay in cache and below the allocator's default mmap threshold,
# so a call makes no K x d temporary beside Z itself
ROW_BLOCK_ENTRIES = 2**12


def _is_swap(m: np.ndarray) -> bool:
    """m is exactly the SWAP of two copies, checked without a second d^4 array."""
    d = math.isqrt(m.shape[0])
    i, j = np.indices((d, d))
    return (m.shape == (d * d, d * d) and np.count_nonzero(m) == d * d
            and bool(np.all(m.reshape(d, d, d, d)[i, j, j, i] == 1)))


@dataclass(frozen=True)
class Observable:
    """Hermitian observable on one copy, or SWAP on two (the purity)."""

    matrix: np.ndarray
    copies: int = 1
    name: str = "O"

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_complex(self.matrix))
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

    def csv_row(self, name: str, seed, fingerprint: str) -> str:
        return (f"{name},{self.value!r},{self.std_error!r},"
                f"{self.num_snapshots},{self.method},{seed},{fingerprint}")


CSV_HEADER = "observable,value,std_error,num_snapshots,method,seed,fingerprint"


def _eigenframe_observable(inv: ShadowInverter, o: Observable) -> np.ndarray:
    v = inv.hamiltonian.eigenbasis
    return v.conj().T @ o.matrix @ v


def transformed_observable(inv: ShadowInverter, o: Observable) -> np.ndarray:
    """O-tilde with Tr(O-tilde sigma-hat) equal to the per-snapshot estimate.

    Applies the adjoint of the inverse map to the eigenframe observable.
    """
    if o.copies != 1:
        raise ValueError("transformed_observable expects a one-copy observable")
    return apply_n_inverse_adjoint(inv, _eigenframe_observable(inv, o))


def _row_blocks(k: int, d: int):
    """Slices of ROW_BLOCK_ENTRIES // d rows (at least one) covering k rows."""
    step = max(1, ROW_BLOCK_ENTRIES // d)
    return (slice(s, s + step) for s in range(0, k, step))


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
    for blk in _row_blocks(*z.shape):
        phi = phases[blk] if times is None else -np.outer(times[blk], h.energies)
        # V[b] stays the first operand: the complex product is not bitwise symmetric
        np.multiply(h.eigenbasis[bits[blk]], np.exp(1j * phi), out=z[blk])
    return z


def _quadratic_values(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Re sum_mn z_m B[m,n] conj(z_n), the value itself for Hermitian B.

    Per row block, one GEMM and a real row dot: Re(w conj(z)) is
    Re w Re z + Im w Im z, so the interleaved float views of w = z B and z
    give it with no conj(z) or product temporary.
    """
    out = np.empty(len(z))
    for blk in _row_blocks(*z.shape):
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
    vals = snapshot_values(inv, snaps, o)
    return median_of_means(vals, num_batches)


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
    jackknife.
    """
    inv.require_complete()
    z = snapshot_amplitudes(inv, snaps)
    k = len(z)
    if k < 2:
        raise ValueError("nonlinear estimation needs at least 2 snapshots")
    s, diag = inverted_snapshot_moments(inv, z)  # s: eigenframe sum of rho-hat
    cross = _quadratic_values(z, apply_n_inverse_adjoint(inv, s))
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


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    # scipy.stats takes most of a package import; only this baseline needs it
    from scipy.stats import unitary_group

    return unitary_group.rvs(d, random_state=rng)


def global_shadow_values(rho, o: Observable, num_shots: int, seed: int) -> np.ndarray:
    """Per-shot estimates from Haar-unitary global shadows.

    One shot applies a Haar-random unitary, measures, and inverts with
    rho-hat = (d+1) U^dag |b><b| U - I, so the per-shot estimate is
    (d+1) (U O U^dag)_bb - Tr(O).
    """
    rho = check_density(rho)
    d = rho.shape[0]
    w, l = _factor_state(rho)
    no_phases = np.zeros((1, d))
    tr_o = float(np.trace(o.matrix).real)
    vals = np.empty(num_shots)
    for i in range(num_shots):
        rng = substream(seed, i)
        u = haar_unitary(d, rng)
        b = int(rng.choice(d, p=_born_rows(u, w, l, no_phases)[0]))
        row = u[b, :]
        vals[i] = ((row @ o.matrix @ row.conj()).real) * (d + 1) - tr_o
    return vals


def baseline_global_shadow(rho, num_shots: int, seed: int, o: Observable,
                           num_batches: int = 1) -> EstimateReport:
    vals = global_shadow_values(rho, o, num_shots, seed)
    return median_of_means(vals, num_batches)


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
