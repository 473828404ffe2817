import itertools

import numpy as np
import pytest

from hamshadow.estimators import Observable, snapshot_values, transformed_observable
from hamshadow.models import (
    gue_hamiltonian,
    hadamard_basis,
    hamiltonian_from_unitary,
    pauli_tensor,
    random_hermitian,
    random_pure_state,
)
from hamshadow.qmatrix import swap_operator
from hamshadow.sampler import TimeModel, run_batch
from hamshadow.shadowmap import IncompleteInverterError, build_inverter
from hamshadow.variance import (
    VarianceReport,
    _second_moment_kernel,
    empirical_variance,
    sample_complexity,
    second_moment_exact,
    shadow_norm_sq,
    variance_approx_linear,
    variance_approx_nonlinear,
    variance_exact,
    variance_report,
)

from moments import diagonal_design


def random_density(d, seed=0):
    g = np.random.default_rng(seed)
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def brute_moment_functional(inv, o, x):
    """Direct sum over all surviving index patterns of the phase average.

    The squared per-snapshot value times the outcome probability expands
    into a six-index sum; a term survives iid uniform phases iff the row
    triple and column triple agree as multisets. The sum is linear in the
    state, so any matrix ``x`` may stand in for it; the complex value is
    returned.
    """
    v = inv.hamiltonian.eigenbasis
    d = v.shape[0]
    o_t = transformed_observable(inv, o)
    x_h = v.conj().T @ x @ v
    w = o_t[None, :, :] * v[:, :, None] * v.conj()[:, None, :]
    r = x_h[None, :, :] * v[:, :, None] * v.conj()[:, None, :]
    total = 0.0 + 0.0j
    for m, p, rr, n, q, s in itertools.product(range(d), repeat=6):
        if sorted((m, p, rr)) != sorted((n, q, s)):
            continue
        total += np.sum(w[:, m, n] * w[:, p, q] * r[:, rr, s])
    return complex(total)


def brute_second_moment(inv, o, rho):
    return brute_moment_functional(inv, o, rho).real


def brute_kernel(inv, o):
    """K with brute_moment_functional(x) = Tr(K x), from unit matrices |p><q|."""
    d = inv.dim
    kmat = np.empty((d, d), dtype=complex)
    for p, q in itertools.product(range(d), repeat=2):
        unit = np.zeros((d, d), dtype=complex)
        unit[p, q] = 1.0
        kmat[q, p] = brute_moment_functional(inv, o, unit)
    return kmat


def _pair_factor(mats, row_is_b, col_is_b):
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


def _pair_scatter(coef, row_is_b, col_is_b):
    """Place the (a, b) coefficients of the state factor _pair_factor picks."""
    if not row_is_b and not col_is_b:
        return np.diag(coef.sum(axis=1))                      # rho_h[a, a]
    if row_is_b and col_is_b:
        return np.diag(coef.sum(axis=0))                      # rho_h[b, b]
    if not row_is_b and col_is_b:
        return coef                                           # rho_h[a, b]
    return coef.T                                             # rho_h[b, a]


def einsum_kernel(inv, o_t):
    """The moment kernel from (d, d, d) factor stacks u and w = o_t u, one
    einsum per multiplicity-class sum: the reference for the GEMM form."""
    d = inv.dim
    v = inv.hamiltonian.eigenbasis
    u = v[:, :, None] * v.conj()[:, None, :]
    w = o_t[None, :, :] * u
    v_sq = np.abs(v) ** 2
    tr_w = np.einsum("bmm->b", w)
    tr_ww = np.einsum("bmn,bnm->b", w, w)
    kern = np.diag((tr_w * tr_w + tr_ww) @ v_sq)
    kern += 2 * np.einsum("b,bmn,bnm->nm", tr_w, w, u)
    kern += 2 * np.einsum("bmp,bpm->pm", w @ w, u)
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


def inverter_in_mode(mode, d):
    """A d-dimensional inverter; the pseudo-inverse on the flat Fourier basis."""
    if mode == "pseudo-inverse":
        fourier = np.fft.fft(np.eye(d)) / np.sqrt(d)
        return build_inverter(hamiltonian_from_unitary(fourier), mode=mode)
    if mode == "finite-time":
        return build_inverter(gue_hamiltonian(d, 30 + d), mode=mode,
                              t_min=0.0, t_max=5.0)
    return build_inverter(gue_hamiltonian(d, 30 + d))


def random_complex(d, seed):
    g = np.random.default_rng(seed)
    return g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))


def design_second_moment(inv, o, rho):
    """Exact enumeration over a third-order phase design."""
    h = inv.hamiltonian
    v = h.eigenbasis
    o_t = transformed_observable(inv, o)
    rho_h = v.conj().T @ rho @ v
    des = diagonal_design(3, h.dim)
    total = 0.0
    for phi in des.enumerate_phases():
        z = v * np.exp(1j * phi)[None, :]
        p = np.einsum("bm,mn,bn->b", z, rho_h, z.conj()).real
        vals = np.einsum("bm,mn,bn->b", z, o_t, z.conj()).real
        total += np.sum(p * vals**2)
    return total / des.size


class TestSecondMomentExact:
    @pytest.mark.parametrize("d,seed", [(2, 0), (3, 1), (3, 2)])
    def test_matches_brute_force_enumeration(self, d, seed):
        inv = build_inverter(gue_hamiltonian(d, seed))
        o = Observable(random_hermitian(d, seed + 10))
        rho = random_density(d, seed + 20)
        fast = second_moment_exact(inv, o, rho)
        assert fast == pytest.approx(brute_second_moment(inv, o, rho), abs=1e-10)

    @pytest.mark.parametrize("d,seed", [(2, 3), (3, 4)])
    def test_matches_design_enumeration(self, d, seed):
        inv = build_inverter(gue_hamiltonian(d, seed))
        o = Observable(random_hermitian(d, seed + 10))
        rho = random_density(d, seed + 20)
        fast = second_moment_exact(inv, o, rho)
        assert fast == pytest.approx(design_second_moment(inv, o, rho), abs=1e-9)

    def test_identity_observable(self):
        inv = build_inverter(gue_hamiltonian(4, 5))
        rho = random_density(4, 6)
        o = Observable(np.eye(4))
        assert second_moment_exact(inv, o, rho) == pytest.approx(1.0, abs=1e-10)
        assert variance_exact(inv, o, rho) == pytest.approx(0.0, abs=1e-10)
        assert shadow_norm_sq(inv, o) == pytest.approx(1.0, abs=1e-10)

    def test_matches_sampled_second_moment(self):
        h = gue_hamiltonian(4, 7)
        inv = build_inverter(h)
        rho = random_density(4, 8)
        o = Observable(random_hermitian(4, 9))
        exact = second_moment_exact(inv, o, rho)
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 30000, seed=10)
        sq = snapshot_values(inv, snaps, o) ** 2
        se = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(sq.mean() - exact) <= 5 * se


class TestKernel:
    @pytest.mark.parametrize("mode", ["ideal", "pseudo-inverse", "finite-time"])
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_matches_einsum_oracle(self, mode, d):
        # o_t complex and not Hermitian: the identity holds for any matrix
        inv = inverter_in_mode(mode, d)
        o_t = random_complex(d, 40 + d)
        ref = einsum_kernel(inv, o_t)
        np.testing.assert_allclose(_second_moment_kernel(inv, o_t), ref,
                                   rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("mode", ["ideal", "pseudo-inverse", "finite-time"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_brute_kernel(self, mode, d):
        # brute_kernel acts on the state in the lab frame: K = V G^T V^dagger
        inv = inverter_in_mode(mode, d)
        v = inv.hamiltonian.eigenbasis
        a_h = v.conj().T @ random_hermitian(d, 50 + d) @ v
        if mode == "pseudo-inverse":
            np.fill_diagonal(a_h, 0)  # all the pseudo-inverse can estimate
        o = Observable(v @ a_h @ v.conj().T)
        kern = _second_moment_kernel(inv, transformed_observable(inv, o))
        ref = brute_kernel(inv, o)
        np.testing.assert_allclose(v @ kern.T @ v.conj().T, ref,
                                   rtol=0, atol=1e-12 * np.max(np.abs(ref)))


class TestShadowNorm:
    def test_dominates_every_state(self):
        inv = build_inverter(gue_hamiltonian(4, 11))
        o = Observable(random_hermitian(4, 12))
        bound = shadow_norm_sq(inv, o)
        for seed in range(20):
            rho = random_density(4, 100 + seed)
            assert second_moment_exact(inv, o, rho) <= bound + 1e-9

    def test_attained_by_extremal_pure_state(self):
        # the worst case is the top eigenvector of the moment kernel,
        # so re-evaluating at that projector must saturate the bound
        d = 4
        inv = build_inverter(gue_hamiltonian(d, 13))
        o = Observable(random_hermitian(d, 14))
        kmat = _second_moment_kernel(inv, transformed_observable(inv, o)).T
        kmat = (kmat + kmat.conj().T) / 2
        vals, vecs = np.linalg.eigh(kmat)
        psi = inv.hamiltonian.eigenbasis @ vecs[:, -1]
        rho = np.outer(psi, psi.conj())
        assert second_moment_exact(inv, o, rho) == pytest.approx(
            shadow_norm_sq(inv, o), rel=1e-8)

    @pytest.mark.parametrize("d,seed", [(2, 0), (2, 1), (3, 1), (3, 2), (3, 5)])
    def test_equals_top_eigenvalue_of_complex_kernel(self, d, seed):
        # the kernel's imaginary part counts: gue(3, 2) with random_hermitian(3, 12)
        # has lambda_max 10.104, while its real part alone gives 8.348
        inv = build_inverter(gue_hamiltonian(d, seed))
        o = Observable(random_hermitian(d, seed + 10))
        kmat = brute_kernel(inv, o)
        assert np.allclose(kmat, kmat.conj().T, atol=1e-9)
        vals, vecs = np.linalg.eigh(kmat)
        bound = shadow_norm_sq(inv, o)
        assert bound == pytest.approx(vals[-1], abs=1e-9)
        rho = np.outer(vecs[:, -1], vecs[:, -1].conj())
        assert second_moment_exact(inv, o, rho) == pytest.approx(bound, abs=1e-9)

    def test_sqrt_norm_subadditive(self):
        inv = build_inverter(gue_hamiltonian(4, 15))
        a = Observable(random_hermitian(4, 16))
        b = Observable(random_hermitian(4, 17))
        both = Observable(a.matrix + b.matrix)
        lhs = np.sqrt(shadow_norm_sq(inv, both))
        rhs = np.sqrt(shadow_norm_sq(inv, a)) + np.sqrt(shadow_norm_sq(inv, b))
        assert lhs <= rhs + 1e-9


class TestApproxLinear:
    def test_identity_gives_zero(self):
        inv = build_inverter(gue_hamiltonian(4, 18))
        assert variance_approx_linear(inv, Observable(np.eye(4))) == \
            pytest.approx(0.0, abs=1e-20)

    def test_incomplete_detection_rejected(self):
        from hamshadow.qmatrix import hermitian_spectral

        inv = build_inverter(hermitian_spectral(np.diag([0.0, 1.0, 2.5, 4.0])))
        with pytest.raises(IncompleteInverterError):
            variance_approx_linear(inv, Observable(pauli_tensor("XX")))

    def test_flat_basis_closed_form(self):
        # uniform weights 2^-n turn the sum into the plain off-diagonal
        # weight of the eigenframe observable
        n = 2
        v = hadamard_basis(n)
        inv = build_inverter(hamiltonian_from_unitary(v), mode="pseudo-inverse")
        o = Observable(pauli_tensor("XZ"))
        a = v.conj().T @ o.matrix @ v
        off = ~np.eye(4, dtype=bool)
        expected = float(np.sum(np.abs(a[off]) ** 2))
        assert variance_approx_linear(inv, o) == pytest.approx(expected)


class TestApproxNonlinear:
    def test_swap_shortcut_matches_general_contraction(self):
        d = 3
        inv = build_inverter(gue_hamiltonian(d, 21))
        val = variance_approx_nonlinear(
            inv, Observable(swap_operator(d), copies=2))
        # general-path oracle evaluated directly from the definition
        v = inv.hamiltonian.eigenbasis
        w2 = np.kron(v, v)
        a4 = (w2.conj().T @ swap_operator(d) @ w2).reshape(d, d, d, d)
        total = 0.0
        for i, j, ip, jp in itertools.product(range(d), repeat=4):
            if i == j or ip == jp:
                continue
            total += abs(a4[j, jp, i, ip]) ** 2 / (
                inv.x_h[i, j] * inv.x_h[ip, jp])
        assert val == pytest.approx(total / d**2, rel=1e-10)

    def test_flat_weights_closed_form(self):
        n = 2
        d = 2**n
        inv = build_inverter(hamiltonian_from_unitary(hadamard_basis(n)),
                             mode="pseudo-inverse")
        val = variance_approx_nonlinear(
            inv, Observable(swap_operator(d), copies=2))
        # X_ij = 1/d everywhere: sum_{i != j} d^2 / d^2 = d(d-1)
        assert val == pytest.approx(d * (d - 1))

    def test_rejects_wrong_shape(self):
        inv = build_inverter(gue_hamiltonian(3, 22))
        with pytest.raises(ValueError):
            variance_approx_nonlinear(inv, Observable(np.eye(3)))


class TestEmpiricalAndPlanning:
    def test_empirical_variance_trivials(self):
        assert empirical_variance([1.0, 1.0, 1.0]) == 0.0
        with pytest.raises(ValueError):
            empirical_variance([1.0])

    def test_empirical_variance_normal_benchmark(self):
        vals = np.random.default_rng(23).normal(scale=2.0, size=50000)
        assert empirical_variance(vals) == pytest.approx(4.0, rel=0.05)

    def test_sample_complexity_warns_and_scales(self):
        with pytest.warns(UserWarning, match="unit constants"):
            k1 = sample_complexity(0.1, 10, 5.0)
        with pytest.warns(UserWarning):
            k2 = sample_complexity(0.05, 10, 5.0)
        assert k2 == pytest.approx(4 * k1, rel=0.01)
        with pytest.raises(ValueError):
            sample_complexity(0.0, 1, 1.0)


class TestReport:
    def test_assembles_all_fields(self):
        h = gue_hamiltonian(3, 24)
        inv = build_inverter(h)
        o = Observable(random_hermitian(3, 25), name="obs")
        rho = random_density(3, 26)
        rep = variance_report(inv, o, rho=rho, per_snapshot_values=[1.0, 2.0, 3.0])
        # one kernel serves both fields, bit for bit the separate calls
        assert rep.exact_second_moment == second_moment_exact(inv, o, rho)
        assert rep.shadow_norm_sq == shadow_norm_sq(inv, o)
        assert rep.empirical_variance == pytest.approx(1.0)
        assert "d=3" in rep.dims_note
        row = rep.csv_row("obs", 1, "ff")
        assert row.endswith("1,ff")

    def test_builds_one_kernel(self, monkeypatch):
        from hamshadow import variance

        calls = []

        def counted(inv, o_t):
            calls.append(o_t)
            return _second_moment_kernel(inv, o_t)

        monkeypatch.setattr(variance, "_second_moment_kernel", counted)
        inv = build_inverter(gue_hamiltonian(3, 27))
        variance_report(inv, Observable(random_hermitian(3, 28)),
                        rho=random_density(3, 29))
        assert len(calls) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VarianceReport(approx_f=-1.0, dims_note="x")
