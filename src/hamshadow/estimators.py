"""Observable estimation from snapshot sets.

Linear functionals use the fast path: per snapshot, the estimate is a
quadratic form of the measured eigenbasis row, with the observable
pre-transformed once through the inverse map. Nonlinear (two-copy)
functionals use symmetric U-statistics with delete-one jackknife errors.
A Haar-unitary global-shadow baseline and the biased wrong-inversion
variant are provided for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import unitary_group

from .qmatrix import as_complex, check_density, is_hermitian, swap_operator
from .sampler import _born_rows, _factor_state, born_probabilities, substream
from .shadowmap import (
    ShadowInverter,
    Snapshot,
    ZERO_OFFDIAG_TOL,
    apply_n_inverse,
    snapshot_phases,
)

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class Observable:
    """Hermitian observable on one or two copies of the system."""

    matrix: np.ndarray
    copies: int = 1
    name: str = "O"
    patch_support: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_complex(self.matrix))
        if self.copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        if not is_hermitian(self.matrix, HERMITIAN_TOL):
            raise ValueError(f"observable {self.name} is not Hermitian within 1e-10")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    The ideal and pseudo-inverse maps are self-adjoint, so this is a
    direct application; the finite-time map uses its explicit adjoint.
    """
    if o.copies != 1:
        raise ValueError("transformed_observable expects a one-copy observable")
    a = _eigenframe_observable(inv, o)
    if inv.mode == "pseudo-inverse":
        if np.max(np.abs(np.diag(a))) > HERMITIAN_TOL:
            raise ValueError(
                "pseudo-inverse mode supports only observables with zero "
                "diagonal in the eigenbasis frame")
        return apply_n_inverse(inv, a)
    if inv.mode == "finite-time":
        d = inv.dim
        b = (a.T.reshape(-1) @ inv.finite.inverse_superoperator).reshape(d, d)
        return b.T
    inv.require_complete()
    return apply_n_inverse(inv, a)


def snapshot_amplitudes(inv: ShadowInverter, snapshots) -> np.ndarray:
    """Matrix Z with row k = V[b_k, :] * exp(i phi_k), shape (K, d)."""
    h = inv.hamiltonian
    v = h.eigenbasis
    z = np.empty((len(snapshots), h.dim), dtype=complex)
    for k, s in enumerate(snapshots):
        if s.bitstring >= h.dim:
            raise ValueError("bitstring exceeds Hilbert-space dimension")
        z[k] = v[s.bitstring, :] * np.exp(1j * snapshot_phases(h, s))
    return z


def _quadratic_values(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row values sum_mn z_m B[m,n] conj(z_n)."""
    return np.einsum("km,mn,kn->k", z, b, z.conj())


def snapshot_values(inv: ShadowInverter, snapshots, o: Observable) -> np.ndarray:
    """Per-snapshot estimates of Tr(O rho), cost O(d^2) per snapshot."""
    o_t = transformed_observable(inv, o)
    z = snapshot_amplitudes(inv, snapshots)
    return _quadratic_values(z, o_t).real


def _inverted_sigmas(inv: ShadowInverter, z: np.ndarray) -> np.ndarray:
    """Stack of inverse-mapped single-snapshot matrices, eigenframe."""
    d = inv.dim
    sig = z.conj()[:, :, None] * z[:, None, :]
    if inv.mode == "finite-time":
        flat = sig.reshape(len(z), d * d) @ inv.finite.inverse_superoperator.T
        return flat.reshape(len(z), d, d)
    if inv.mode == "pseudo-inverse":
        safe = np.where(np.abs(inv.x_h) >= ZERO_OFFDIAG_TOL, inv.x_h, np.inf)
        out = sig / safe[None, :, :]
        out[:, np.arange(d), np.arange(d)] = 0.0
        return out
    inv.require_complete()
    out = sig / inv.x_h[None, :, :]
    out[:, np.arange(d), np.arange(d)] = (np.abs(z) ** 2) @ inv.x_h_inverse.T
    return out


def snapshot_states(inv: ShadowInverter, snapshots) -> np.ndarray:
    """Stack of per-snapshot state estimators, computational basis."""
    z = snapshot_amplitudes(inv, snapshots)
    n = _inverted_sigmas(inv, z)
    v = inv.hamiltonian.eigenbasis
    return np.einsum("am,kmn,bn->kab", v, n, v.conj())


def _as_snapshot_list(snaps):
    return snaps.snapshots if hasattr(snaps, "snapshots") else list(snaps)


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
    vals = snapshot_values(inv, _as_snapshot_list(snaps), o)
    return median_of_means(vals, num_batches)


def estimate_nonlinear(inv: ShadowInverter, snaps, o: Observable) -> EstimateReport:
    """Unbiased two-copy estimate via the symmetric pair U-statistic.

    For O = SWAP the pair term reduces to Tr(rho-hat_i rho-hat_j) and the
    whole sum is evaluated from running totals in O(K d^2). Standard error
    is the delete-one jackknife.
    """
    snapshots = _as_snapshot_list(snaps)
    k = len(snapshots)
    if k < 2:
        raise ValueError("nonlinear estimation needs at least 2 snapshots")
    if o.copies != 2:
        raise ValueError("estimate_nonlinear expects a two-copy observable")
    inv.require_complete()
    d = inv.dim
    if o.matrix.shape != (d * d, d * d):
        raise ValueError("two-copy observable dimension mismatch")
    z = snapshot_amplitudes(inv, snapshots)
    rhos = _inverted_sigmas(inv, z)  # eigenframe copies of rho-hat
    s = rhos.sum(axis=0)
    if np.allclose(o.matrix, swap_operator(d), atol=1e-12):
        diag = np.einsum("kmn,knm->k", rhos, rhos)
        cross = np.einsum("kmn,nm->k", rhos, s)
        full = np.trace(s @ s)
        cross2 = cross
    else:
        v = inv.hamiltonian.eigenbasis
        w2 = np.kron(v, v)
        o4 = (w2.conj().T @ o.matrix @ w2).reshape(d, d, d, d)
        full = np.einsum("mpnq,nm,qp->", o4, s, s)
        diag = np.einsum("mpnq,knm,kqp->k", o4, rhos, rhos)
        t1 = np.einsum("mpnq,qp->mn", o4, s)
        t2 = np.einsum("mpnq,nm->pq", o4, s)
        cross = np.einsum("mn,knm->k", t1, rhos)
        cross2 = np.einsum("pq,kqp->k", t2, rhos)
    dsum = diag.sum()
    value = float(((full - dsum) / (k * (k - 1))).real)
    if k == 2:
        return EstimateReport(value, 0.0, k, "u-statistic")
    # delete-one totals recombine from the running sums
    loo_full = full - cross - cross2 + diag
    loo = ((loo_full - (dsum - diag)) / ((k - 1) * (k - 2))).real
    se = float(np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2)))
    return EstimateReport(value, se, k, "u-statistic")


def estimate_purity(inv: ShadowInverter, snaps) -> EstimateReport:
    d = inv.dim
    return estimate_nonlinear(
        inv, snaps, Observable(swap_operator(d), copies=2, name="SWAP"))


def exact_average_state(inv: ShadowInverter, rho, phase_vectors) -> np.ndarray:
    """Deterministic expectation of the state estimator over a phase set.

    Averages rho-hat over every (phase vector, outcome) pair weighted by
    the Born probability; with a moment-matching phase set this recovers
    rho exactly, with no sampling involved.
    """
    rho = check_density(rho)
    h = inv.hamiltonian
    v = h.eigenbasis
    rho_h = v.conj().T @ rho @ v
    d = h.dim
    acc = np.zeros((d, d), dtype=complex)
    phase_vectors = np.atleast_2d(np.asarray(phase_vectors, dtype=float))
    probs = born_probabilities(h, rho_h, phase_vectors)
    for phi, p in zip(phase_vectors, probs):
        z = v * np.exp(1j * phi)[None, :]  # rows b
        n = _inverted_sigmas(inv, z)
        acc += np.einsum("b,bmn->mn", p, n)
    acc /= len(phase_vectors)
    return v @ acc @ v.conj().T


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
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
    snapshots = _as_snapshot_list(snaps)
    a = _eigenframe_observable(inv, o)
    z = snapshot_amplitudes(inv, snapshots)
    d = inv.dim
    tr_o = float(np.trace(o.matrix).real)
    return (d + 1) * _quadratic_values(z, a).real - tr_o


def write_reports_csv(path, rows, comment: str = "") -> None:
    with open(path, "w") as f:
        if comment:
            f.write(f"# {comment}\n")
        f.write(CSV_HEADER + "\n")
        for r in rows:
            f.write(r + "\n")
