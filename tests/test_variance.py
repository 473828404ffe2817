import dataclasses
import itertools
import tracemalloc

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
from hamshadow.sampler import run_batch
from hamshadow import shadowmap, variance
from hamshadow.shadowmap import IncompleteInverterError, build_inverter
from hamshadow.variance import (
    VarianceReport,
    _second_moment_kernel,
    empirical_variance,
    purity_variance_proxy,
    sample_complexity,
    second_moment_exact,
    shadow_norm_sq,
    variance_approx_linear,
    variance_approx_nonlinear,
    variance_exact,
    variance_report,
)
from hamshadow.times import TimeModel

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


def loop_kernel(inv, o_t):
    """The moment kernel as it was computed before the moment table: q, M
    and T from the eigenbasis on every call, and the tr(w w r) term one row
    at a time. The reference, bit for bit, for the table and the row blocks."""
    d = inv.dim
    q = np.abs(inv.hamiltonian.eigenbasis) ** 2
    od = np.diagonal(o_t)
    o_ot = o_t * o_t.T
    tr_w = q @ od
    tr_ww = np.sum((q @ o_ot) * q, axis=1)
    m2 = (q * q).T @ q
    t3 = (q.T @ (q[:, :, None] * q[:, None, :]).reshape(d, d * d)).reshape(d, d, d)
    ww_u = np.empty((d, d), dtype=complex)
    for m in range(d):
        ww_u[m] = o_t[m] @ (t3[m] * o_t)
    kern = 2 * (o_t * (q.T @ (tr_w[:, None] * q)) + ww_u).T
    kern -= 2 * od[:, None] * o_t.T * m2
    kern -= 2 * (od[:, None] * o_t * m2).T
    diag = (tr_w * tr_w + tr_ww) @ q
    diag -= np.sum(2 * (od[:, None] * od[None, :] + o_ot) * m2, axis=1)
    diag -= (od * od) @ m2
    diag += 4 * od * od * np.diagonal(m2)
    kern[np.diag_indices(d)] += diag
    return kern


def inverter_in_mode(mode, d):
    """A d-dimensional inverter; the pseudo-inverse on the flat Fourier basis.
    The finite-time window is [0, 5], or [0, 5000] from d = 32 on, where the
    short window's superoperator is singular."""
    if mode == "pseudo-inverse":
        fourier = np.fft.fft(np.eye(d)) / np.sqrt(d)
        return build_inverter(hamiltonian_from_unitary(fourier), mode=mode)
    if mode == "finite-time":
        return build_inverter(gue_hamiltonian(d, 30 + d), mode=mode,
                              t_min=0.0, t_max=5.0 if d < 32 else 5000.0)
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


class TestMomentTable:
    @pytest.mark.parametrize("mode", ["ideal", "pseudo-inverse", "finite-time"])
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 32, 64])
    def test_kernel_has_the_loop_bits(self, mode, d, monkeypatch):
        # one row per block, the default blocks, and one block of all d rows
        inv = inverter_in_mode(mode, d)
        o_t = random_complex(d, 60 + d)
        ref = loop_kernel(inv, o_t)
        for entries in (1, variance.KERNEL_BLOCK_ENTRIES, d**3):
            monkeypatch.setattr(variance, "KERNEL_BLOCK_ENTRIES", entries)
            np.testing.assert_array_equal(_second_moment_kernel(inv, o_t), ref)

    def test_built_once_per_inverter(self, monkeypatch):
        builds = []

        def counted(h):
            builds.append(h)
            return moment_table(h)

        moment_table = shadowmap.moment_table
        monkeypatch.setattr(shadowmap, "moment_table", counted)
        inv = build_inverter(gue_hamiltonian(5, 61))
        assert builds == [] and "moments" not in vars(inv)  # lazy
        rho = random_density(5, 62)
        for seed in (63, 64):
            o = Observable(random_hermitian(5, seed))
            second_moment_exact(inv, o, rho)
            shadow_norm_sq(inv, o)
            variance_report(inv, o, rho=rho)
        assert builds == [inv.hamiltonian]

    def test_read_only_and_per_inverter(self):
        h = gue_hamiltonian(4, 65)
        first, second = build_inverter(h), build_inverter(h)
        table = first.moments
        assert first.moments is table
        for name in ("q", "m2", "t3"):
            arr = getattr(table, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
            np.testing.assert_array_equal(getattr(second.moments, name), arr)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, name, arr.copy())
        assert second.moments is not table

    def test_kernel_memory_once_the_table_exists(self):
        # at d = 64 T holds 2 MB and a (d, d, d) complex temporary would be
        # 4 MB; a kernel call peaks at about 0.6 MB of (d, d) arrays and one
        # 2^13-entry row block (one block of all rows: 4.4 MB)
        d = 64
        inv = build_inverter(gue_hamiltonian(d, 66))
        o_t = random_complex(d, 67)
        _second_moment_kernel(inv, o_t)
        tracemalloc.start()
        try:
            _second_moment_kernel(inv, o_t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


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

        # refused where the inverter is built, so no proxy sees the map
        with pytest.raises(IncompleteInverterError,
                           match="not tomography-complete"):
            build_inverter(hermitian_spectral(np.diag([0.0, 1.0, 2.5, 4.0])))

    def test_sum_over_the_off_diagonals_of_x_h(self):
        # the masked sum in the order of the X_H formula, bit for bit
        inv = build_inverter(gue_hamiltonian(8, 19))
        o = Observable(random_hermitian(8, 20))
        v = inv.hamiltonian.eigenbasis
        a = v.conj().T @ o.matrix @ v
        off = ~np.eye(8, dtype=bool)
        expected = float(np.sum(np.abs(a[off]) ** 2 / inv.x_h[off])) / 8
        assert variance_approx_linear(inv, o) == expected
        assert purity_variance_proxy(inv) == \
            float(np.sum(1.0 / inv.x_h[off] ** 2)) / 64

    def test_finite_time_refused(self):
        # closed forms for ideal phases; the window map has no divisor D
        inv = build_inverter(gue_hamiltonian(4, 11), mode="finite-time",
                             t_min=0.0, t_max=5000.0)
        assert inv.divisor is None and inv.diagonal_map is None
        with pytest.raises(ValueError, match="not the finite-time one"):
            variance_approx_linear(inv, Observable(pauli_tensor("XZ")))
        with pytest.raises(ValueError, match="not the finite-time one"):
            purity_variance_proxy(inv)

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


    def test_masked_pseudo_inverse_sums_recovered_entries(self):
        # V = H (x) I: X_mn = 0 on (0, 1) and (2, 3), 1/2 on (0, 2), (1, 3)
        v = np.kron(hadamard_basis(1), np.eye(2))
        inv = build_inverter(hamiltonian_from_unitary(v), mode="pseudo-inverse")
        # Z (x) I is X (x) I in the eigenframe: 4 unit entries at X_mn = 1/2
        assert variance_approx_linear(inv, Observable(pauli_tensor("ZI"))) == \
            pytest.approx(4 * 2 / 4)
        with pytest.raises(ValueError, match=r"entry \(0, 1\)"):
            variance_approx_linear(inv, Observable(pauli_tensor("IX")))


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

    def test_pseudo_inverse_refused(self):
        # the flat basis gave 12.0 for an estimator that drops the diagonal
        inv = build_inverter(hamiltonian_from_unitary(hadamard_basis(2)),
                             mode="pseudo-inverse")
        with pytest.raises(ValueError, match="the purity needs all of them"):
            variance_approx_nonlinear(inv, Observable(swap_operator(4), copies=2))
        with pytest.raises(ValueError, match="the purity needs all of them"):
            purity_variance_proxy(inv)

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
        rep = variance_report(inv, o, rho=rho)
        # one kernel serves both fields, bit for bit the separate calls
        assert rep.exact_second_moment == second_moment_exact(inv, o, rho)
        assert rep.shadow_norm_sq == shadow_norm_sq(inv, o)
        assert rep.approx_f == variance_approx_linear(inv, o)
        # without a state there is no exact moment, and the bound remains
        assert variance_report(inv, o) == VarianceReport(
            approx_f=rep.approx_f, shadow_norm_sq=rep.shadow_norm_sq)

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
            VarianceReport(approx_f=-1.0)

    def test_two_copy_observable_refused(self):
        inv = build_inverter(gue_hamiltonian(2, 30))
        with pytest.raises(ValueError, match="purity_variance_report"):
            variance_report(inv, Observable(swap_operator(2), copies=2))
