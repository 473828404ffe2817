"""Second-moment theory of the per-snapshot estimator.

The exact second moment E o-hat^2 is a third-order phase average. With
ideal random phases only index patterns whose row and column triples
agree as multisets survive, so the sum splits by multiplicity class:
six permutation-matched unconstrained sums, minus nine two-free-index
sums over the twice-repeated class, plus a one-index correction. The
counting identity (all factors set to 1) reproduces 6d^3 - 9d^2 + 4d,
the third frame potential, which pins the coefficients.

The sum is linear in the state, so the class sums are evaluated once with
the state factor left out: each gives the coefficients of the state
entries it picks, and together they form a d x d kernel G with
E o-hat^2 = sum_mn G[m, n] rho_h[m, n] in the eigenframe. The exact
second moment of a state and the shadow norm (the worst case over all
states, the top eigenvalue of G^T) are both read off that one kernel.

Closed-form approximations for linear and two-copy observables are also
provided.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import Observable, transformed_observable
from .qmatrix import check_density
from .shadowmap import ShadowInverter, ZERO_OFFDIAG_TOL

CONTRACTION_GUARD = 2**24  # limit on d^3 for the dense third-moment pass


@dataclass(frozen=True)
class VarianceReport:
    approx_f: float
    dims_note: str
    exact_second_moment: float | None = None
    shadow_norm_sq: float | None = None
    empirical_variance: float | None = None

    def __post_init__(self):
        for name in ("approx_f", "exact_second_moment", "shadow_norm_sq",
                     "empirical_variance"):
            val = getattr(self, name)
            if val is not None and val < -1e-12:
                raise ValueError(f"{name} must be non-negative, got {val}")

    def csv_row(self, name: str, seed, fingerprint: str) -> str:
        def fmt(x):
            return "" if x is None else repr(x)
        return (f"{name},{fmt(self.exact_second_moment)},{fmt(self.shadow_norm_sq)},"
                f"{self.approx_f!r},{fmt(self.empirical_variance)},"
                f"{self.dims_note},{seed},{fingerprint}")


VARIANCE_CSV_HEADER = ("observable,exact_second_moment,shadow_norm_sq,approx_f,"
                      "empirical_variance,dims_note,seed,fingerprint")


def _check_guard(d: int) -> None:
    if d**3 > CONTRACTION_GUARD:
        raise ValueError(
            f"dimension {d} exceeds the third-moment contraction guard")


def _pair_factor(mats: np.ndarray, row_is_b: bool, col_is_b: bool) -> np.ndarray:
    """One factor of a twice-repeated-index sum as a (B, d, d) array in (a, b)."""
    d = mats.shape[1]
    diag = mats[:, np.arange(d), np.arange(d)]
    if not row_is_b and not col_is_b:
        return np.broadcast_to(diag[:, :, None], mats.shape)  # M[a, a]
    if row_is_b and col_is_b:
        return np.broadcast_to(diag[:, None, :], mats.shape)  # M[b, b]
    if not row_is_b and col_is_b:
        return mats                                           # M[a, b]
    return mats.transpose(0, 2, 1)                            # M[b, a]


def _pair_scatter(coef: np.ndarray, row_is_b: bool, col_is_b: bool) -> np.ndarray:
    """Place the (a, b) coefficients of the state factor _pair_factor picks."""
    if not row_is_b and not col_is_b:
        return np.diag(coef.sum(axis=1))                      # rho_h[a, a]
    if row_is_b and col_is_b:
        return np.diag(coef.sum(axis=0))                      # rho_h[b, b]
    if not row_is_b and col_is_b:
        return coef                                           # rho_h[a, b]
    return coef.T                                             # rho_h[b, a]


def _second_moment_kernel(inv: ShadowInverter, o_t: np.ndarray) -> np.ndarray:
    """Kernel G with E o-hat^2 = sum_mn G[m, n] rho_h[m, n], ideal random phases.

    o_t is the transformed observable and rho_h the state in the eigenframe.
    The state enters every term through r[b, m, n] = rho_h[m, n] u[b, m, n],
    so each term contributes its remaining factors, summed over outcomes,
    as the coefficient of the rho_h entry it picks. The identity holds for
    any matrix rho_h, so G is the kernel of the complex linear functional.
    """
    d = inv.dim
    _check_guard(d)
    v = inv.hamiltonian.eigenbasis
    # factor stacks over outcomes: u[b, m, n] = V[b, m] conj(V[b, n]), w = o_t u
    u = v[:, :, None] * v.conj()[:, None, :]
    w = o_t[None, :, :] * u
    v_sq = np.abs(v) ** 2                                     # u[b, m, m]
    tr_w = np.einsum("bmm->b", w)
    tr_ww = np.einsum("bmn,bnm->b", w, w)
    # permutation terms tr_w^2 tr_r + tr_ww tr_r + 2 tr_wr tr_w + 2 tr_wwr
    kern = np.diag((tr_w * tr_w + tr_ww) @ v_sq)
    kern += 2 * np.einsum("b,bmn,bnm->nm", tr_w, w, u)
    kern += 2 * np.einsum("bmp,bpm->pm", w @ w, u)
    # twice-repeated class: positions of the distinct index in rows/columns
    for i_pos in range(3):
        for j_pos in range(3):
            coef = np.einsum("bxy,bxy,bxy->xy",
                             _pair_factor(w, i_pos == 0, j_pos == 0),
                             _pair_factor(w, i_pos == 1, j_pos == 1),
                             _pair_factor(u, i_pos == 2, j_pos == 2))
            kern -= _pair_scatter(coef, i_pos == 2, j_pos == 2)
    dw = w[:, np.arange(d), np.arange(d)]
    kern += np.diag(4 * np.einsum("ba,ba,ba->a", dw, dw, v_sq))
    return kern


def second_moment_exact(inv: ShadowInverter, o: Observable, rho) -> float:
    """E o-hat^2 under ideal random phases for a given state."""
    rho = check_density(rho)
    v = inv.hamiltonian.eigenbasis
    o_t = transformed_observable(inv, o)
    rho_h = v.conj().T @ rho @ v
    return float(np.sum(_second_moment_kernel(inv, o_t) * rho_h).real)


def variance_exact(inv: ShadowInverter, o: Observable, rho) -> float:
    rho = check_density(rho)
    mean = float(np.trace(o.matrix @ rho).real)
    val = second_moment_exact(inv, o, rho) - mean**2
    return max(val, 0.0)


def shadow_norm_sq(inv: ShadowInverter, o: Observable) -> float:
    """Worst-case second moment over states, max_rho E o-hat^2.

    E o-hat^2 = Tr(G^T rho_h) is linear in the state, so the maximum over
    all states, complex ones included, is the largest eigenvalue of G^T,
    read off the one kernel of _second_moment_kernel. G^T is Hermitian up
    to rounding; its Hermitian part is what a Hermitian state sees.
    """
    kmat = _second_moment_kernel(inv, transformed_observable(inv, o)).T
    return float(np.linalg.eigvalsh((kmat + kmat.conj().T) / 2)[-1])


def variance_approx_linear(inv: ShadowInverter, o: Observable,
                           dim_prefactor: bool = True) -> float:
    """Closed-form variance proxy from eigenframe off-diagonals.

    Returns (1/d) sum_{i != j} |A_ij|^2 / X_ij with A the eigenframe
    observable. ``dim_prefactor=False`` drops the 1/d factor, matching an
    alternative normalization of the same quantity.
    """
    inv.require_complete()
    v = inv.hamiltonian.eigenbasis
    a = v.conj().T @ o.matrix @ v
    d = inv.dim
    off = ~np.eye(d, dtype=bool)
    x_off = inv.x_h[off]
    if np.any(np.abs(x_off) < ZERO_OFFDIAG_TOL):
        raise ValueError("zero off-diagonal weight encountered")
    total = float(np.sum(np.abs(a[off]) ** 2 / x_off))
    return total / d if dim_prefactor else total


def purity_variance_proxy(inv: ShadowInverter) -> float:
    """Closed-form variance proxy of the purity, (1/d^2) sum_{i != j} X_ij^-2.

    For O = SWAP the sum over off-diagonal pairs of |two-copy eigenframe
    element|^2 divided by the product of weights collapses to this sum of
    X_H entries, so no d^2 x d^2 SWAP matrix is needed.
    """
    inv.require_complete()
    d = inv.dim
    off = ~np.eye(d, dtype=bool)
    if np.any(np.abs(inv.x_h[off]) < ZERO_OFFDIAG_TOL):
        raise ValueError("zero off-diagonal weight encountered")
    return float(np.sum(1.0 / inv.x_h[off] ** 2)) / d**2


def variance_approx_nonlinear(inv: ShadowInverter, o: Observable) -> float:
    """purity_variance_proxy, for o the SWAP of two copies (the purity, the
    one two-copy observable)."""
    d = inv.dim
    if o.copies != 2 or o.matrix.shape != (d * d, d * d):
        raise ValueError("expected a two-copy observable")
    return purity_variance_proxy(inv)


def empirical_variance(per_snapshot_values) -> float:
    vals = np.asarray(per_snapshot_values, dtype=float)
    if len(vals) < 2:
        raise ValueError("need at least 2 values")
    return float(np.var(vals, ddof=1))


def sample_complexity(epsilon: float, num_observables: int,
                      max_norm_sq: float, delta: float = 0.01) -> int:
    """Shots needed so all estimates land within epsilon, asymptotic form.

    K = ceil(max_norm_sq * log(2 M / delta) / epsilon^2) with unit leading
    constant; the true constant prefactors are not pinned down by the
    analysis, so this is an order-of-magnitude planning number.
    """
    if epsilon <= 0 or delta <= 0 or num_observables < 1 or max_norm_sq < 0:
        raise ValueError("invalid sample-complexity inputs")
    warnings.warn(
        "sample_complexity uses conventional unit constants; the bound's "
        "true prefactors are not specified", stacklevel=2)
    return int(math.ceil(max_norm_sq * math.log(2 * num_observables / delta)
                         / epsilon**2))


def variance_report(inv: ShadowInverter, o: Observable, rho=None,
                    per_snapshot_values=None) -> VarianceReport:
    approx = variance_approx_linear(inv, o) if o.copies == 1 \
        else variance_approx_nonlinear(inv, o)
    exact = None
    if rho is not None and o.copies == 1:
        exact = second_moment_exact(inv, o, rho)
    norm = shadow_norm_sq(inv, o) if o.copies == 1 else None
    emp = empirical_variance(per_snapshot_values) \
        if per_snapshot_values is not None else None
    note = f"d={inv.dim};mode={inv.mode}"
    return VarianceReport(approx_f=approx, dims_note=note,
                          exact_second_moment=exact, shadow_norm_sq=norm,
                          empirical_variance=emp)


def purity_variance_report(inv: ShadowInverter) -> VarianceReport:
    """variance_report of the purity, with no SWAP matrix built."""
    return VarianceReport(approx_f=purity_variance_proxy(inv),
                          dims_note=f"d={inv.dim};mode={inv.mode}")
