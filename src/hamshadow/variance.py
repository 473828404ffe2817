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
E o-hat^2 = sum_mn G[m, n] rho_h[m, n] in the eigenframe. In a surviving
pattern every eigenbasis entry V[b, x] meets its conjugate, so each sum
over outcomes b is a product of the real matrix q = |V|^2 with itself:
(d, d) GEMMs, plus one (d, d) x (d, d^2) GEMM for the real third moment
T_mnp = sum_b q_bm q_bn q_bp, which the tr(w w r) term contracts with two
entries of the observable. The kernel costs O(d^4) flops in BLAS and
O(d^3) memory for T; no complex (d, d, d) array is formed. The exact
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

from .estimators import Observable, _eigenframe_observable, transformed_observable
from .qmatrix import check_density
from .shadowmap import ShadowInverter

CONTRACTION_GUARD = 2**24  # limit on d^3, the entries of the real third moment T


@dataclass(frozen=True)
class VarianceReport:
    approx_f: float
    exact_second_moment: float | None = None
    shadow_norm_sq: float | None = None

    def __post_init__(self):
        for name in ("approx_f", "exact_second_moment", "shadow_norm_sq"):
            val = getattr(self, name)
            if val is not None and val < -1e-12:
                raise ValueError(f"{name} must be non-negative, got {val}")


def _check_guard(d: int) -> None:
    if d**3 > CONTRACTION_GUARD:
        raise ValueError(
            f"dimension {d} exceeds the third-moment contraction guard")


def _second_moment_kernel(inv: ShadowInverter, o_t: np.ndarray) -> np.ndarray:
    """Kernel G with E o-hat^2 = sum_mn G[m, n] rho_h[m, n], ideal random phases.

    o_t (O below) is the transformed observable and rho_h the state in the
    eigenframe. Every factor of every term is an entry of O or rho_h times
    u[b, m, n] = V[b, m] conj(V[b, n]), and the surviving patterns pair each
    V[b, x] with a conj(V[b, x]), so every sum over outcomes b is a sum of
    products of q[b, x] = |V[b, x]|^2: a (d, d) matrix product of q's.

    - tr_w[b] = sum_m O_mm q_bm and tr_ww[b] = sum_mn O_mn O_nm q_bm q_bn;
    - the state-trace terms (tr_w^2 + tr_ww) tr_r put (tr_w^2 + tr_ww) @ q
      on the diagonal;
    - 2 tr_wr tr_w puts 2 O_mn sum_b tr_w[b] q_bm q_bn on G[n, m];
    - 2 tr_wwr puts 2 sum_n O_mn O_np T_mnp on G[p, m], with the real third
      moment T_mnp = sum_b q_bm q_bn q_bp, one (d, d) x (d, d^2) GEMM;
    - each of the nine twice-repeated sums (index x twice, y once, in rows
      and in columns) carries sum_b q_bx^2 q_by = M[x, y], M = (q^2)^T q,
      times the O entries of its two w factors; which rho_h entry it picks
      (x x, x y, y x or y y) sets where it lands in G;
    - the one-index correction adds 4 O_aa^2 M[a, a] on the diagonal.

    The identity holds for any matrix rho_h, so G is the kernel of the
    complex linear functional.
    """
    d = inv.dim
    _check_guard(d)
    q = np.abs(inv.hamiltonian.eigenbasis) ** 2
    od = np.diagonal(o_t)
    o_ot = o_t * o_t.T                                        # O_mn O_nm
    tr_w = q @ od
    tr_ww = np.sum((q @ o_ot) * q, axis=1)
    m2 = (q * q).T @ q
    t3 = (q.T @ (q[:, :, None] * q[:, None, :]).reshape(d, d * d)).reshape(d, d, d)
    ww_u = np.empty((d, d), dtype=complex)
    for m in range(d):
        ww_u[m] = o_t[m] @ (t3[m] * o_t)                      # sum_n O_mn O_np T_mnp
    # permutation terms 2 tr_wr tr_w + 2 tr_wwr, and the twice-repeated sums
    # that pick rho_h[x, y] (O_yx O_xx M) or rho_h[y, x] (O_xy O_xx M)
    kern = 2 * (o_t * (q.T @ (tr_w[:, None] * q)) + ww_u).T
    kern -= 2 * od[:, None] * o_t.T * m2
    kern -= 2 * (od[:, None] * o_t * m2).T
    # diagonal: trace terms, twice-repeated sums that pick rho_h[x, x]
    # (2 O_xx O_yy M + 2 O_xy O_yx M) or rho_h[y, y] (O_xx^2 M), correction
    diag = (tr_w * tr_w + tr_ww) @ q
    diag -= np.sum(2 * (od[:, None] * od[None, :] + o_ot) * m2, axis=1)
    diag -= (od * od) @ m2
    diag += 4 * od * od * np.diagonal(m2)
    kern[np.diag_indices(d)] += diag
    return kern


def _state_moment(inv: ShadowInverter, kern: np.ndarray, rho: np.ndarray) -> float:
    """sum_mn G[m, n] rho_h[m, n] for the kernel G and a checked state."""
    v = inv.hamiltonian.eigenbasis
    rho_h = v.conj().T @ rho @ v
    return float(np.sum(kern * rho_h).real)


def _top_eigenvalue(kern: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part of G^T."""
    kmat = kern.T
    return float(np.linalg.eigvalsh((kmat + kmat.conj().T) / 2)[-1])


def second_moment_exact(inv: ShadowInverter, o: Observable, rho) -> float:
    """E o-hat^2 under ideal random phases for a given state.

    With a finite-time inverter this is still the moment under ideal random
    phases, not under the inverter's time window: the finite-time
    estimator's second moment over the window is not computed here.
    """
    rho = check_density(rho)
    return _state_moment(
        inv, _second_moment_kernel(inv, transformed_observable(inv, o)), rho)


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
    to rounding; its Hermitian part is what a Hermitian state sees. As in
    second_moment_exact, a finite-time inverter still gets the worst case
    under ideal random phases, not under its window.
    """
    return _top_eigenvalue(_second_moment_kernel(inv, transformed_observable(inv, o)))


def _divisor(inv: ShadowInverter) -> np.ndarray:
    if inv.divisor is None:  # the proxies are closed forms for ideal phases
        raise ValueError(f"the variance proxies need the elementwise map of "
                         f"an ideal-phase inverter, not the {inv.mode} one")
    return inv.divisor


def variance_approx_linear(inv: ShadowInverter, o: Observable) -> float:
    """Closed-form variance proxy from eigenframe off-diagonals.

    Returns (1/d) sum |A_ij|^2 / X_ij over the off-diagonals (i, j) the
    inverter recovers, with A the eigenframe observable, which must vanish
    on every entry it does not recover.
    """
    divisor = _divisor(inv)
    a = _eigenframe_observable(inv, o)
    inv.require_recovered(a)
    keep = np.isfinite(divisor)
    return float(np.sum(np.abs(a[keep]) ** 2 / divisor[keep])) / inv.dim


def purity_variance_proxy(inv: ShadowInverter) -> float:
    """Closed-form variance proxy of the purity, (1/d^2) sum_{i != j} X_ij^-2.

    For O = SWAP the sum over off-diagonal pairs of |two-copy eigenframe
    element|^2 divided by the product of weights collapses to this sum of
    X_H entries, so no d^2 x d^2 SWAP matrix is needed. It needs an
    inverter that recovers every entry.
    """
    divisor = _divisor(inv)
    inv.require_whole_state()
    d = inv.dim
    off = ~np.eye(d, dtype=bool)
    return float(np.sum(1.0 / divisor[off] ** 2)) / d**2


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


def variance_report(inv: ShadowInverter, o: Observable, rho=None) -> VarianceReport:
    if o.copies != 1:
        raise ValueError("variance_report takes one-copy observables; "
                         "purity_variance_report gives the purity row")
    approx = variance_approx_linear(inv, o)
    # one kernel for both fields: the same numbers as the separate calls
    kern = _second_moment_kernel(inv, transformed_observable(inv, o))
    exact = None if rho is None else _state_moment(inv, kern, check_density(rho))
    return VarianceReport(approx_f=approx, exact_second_moment=exact,
                          shadow_norm_sq=_top_eigenvalue(kern))


def purity_variance_report(inv: ShadowInverter) -> VarianceReport:
    """variance_report of the purity, with no SWAP matrix built."""
    return VarianceReport(approx_f=purity_variance_proxy(inv))
