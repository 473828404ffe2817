import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from hamshadow.models import (
    gue_hamiltonian,
    hadamard_basis,
    hamiltonian_from_unitary,
)
from hamshadow.estimators import Observable, estimate_linear, snapshot_amplitudes
from hamshadow.qmatrix import SpectralHamiltonian, hermitian_spectral
from hamshadow.sampler import Snapshot
from hamshadow.shadowmap import (
    IncompleteInverterError,
    _apply_packed,
    _inverse_one_norm,
    _pack,
    _packed_weights,
    _unpack,
    apply_n_inverse,
    apply_n_inverse_adjoint,
    build_inverter,
    diagnose_detection,
    finite_time_choi,
    hamiltonian_fingerprint,
)

from states import build_estimator
from superoperators import (
    apply_n,
    forward_superoperator,
    inverse_superoperator,
    packed_forward,
    shadow_map_forward,
)


def random_density(d, seed=0):
    g = np.random.default_rng(seed)
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


class TestWeightMatrix:
    def test_doubly_stochastic(self):
        for d, seed in [(4, 0), (8, 1)]:
            inv = build_inverter(gue_hamiltonian(d, seed))
            np.testing.assert_allclose(inv.x_h.sum(axis=0), 1.0, atol=1e-10)
            np.testing.assert_allclose(inv.x_h.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(inv.x_h, inv.x_h.T, atol=1e-12)

    def test_flat_basis_gives_uniform_weights(self):
        for n in range(2, 6):
            inv = build_inverter(hamiltonian_from_unitary(hadamard_basis(n)),
                                 mode="pseudo-inverse")
            np.testing.assert_allclose(inv.x_h, 2.0**-n, atol=1e-14)


class TestDiagnosis:
    def test_generic_case_complete(self):
        assert diagnose_detection(gue_hamiltonian(4, 2)).complete

    def test_diagonal_hamiltonian_incomplete(self):
        diag = diagnose_detection(hermitian_spectral(np.diag([0.0, 1.0, 2.5, 4.1])))
        assert not diag.complete
        assert diag.basis_aligned == [0, 1, 2, 3]
        assert "incomplete" in diag.summary()

    def test_map_condition_number_of_nearly_aligned_basis(self):
        # X_H is within 1e-9 of the identity, but the ideal inverse divides
        # the off-diagonal element by X_01 = 8.0e-10
        a = 2.0054e-5
        v = np.array([[a, 1.0], [1.0, -a]]) / np.hypot(1.0, a)
        h = SpectralHamiltonian(np.array([-5.97e-11, 0.148]), v)
        diag = diagnose_detection(h)
        expected = np.linalg.cond(forward_superoperator(build_inverter(h)))
        assert expected == pytest.approx(1.2433e9, rel=1e-4)
        assert diag.map_condition_number == pytest.approx(expected, rel=1e-6)
        assert diag.condition_number == pytest.approx(1.0, abs=1e-8)
        assert "cond(N)=1.243e+09" in diag.summary()

    def test_flat_basis_singular(self):
        diag = diagnose_detection(hamiltonian_from_unitary(hadamard_basis(2)))
        assert diag.x_h_singular
        assert not diag.complete

    def test_degenerate_energies_flagged(self):
        h0 = gue_hamiltonian(4, 3)
        h = hamiltonian_from_unitary(h0.eigenbasis, [0.0, 1.0, 1.0, 2.0])
        diag = diagnose_detection(h)
        assert (1, 2) in diag.energy_degeneracy
        assert not diag.complete

    def test_resonances_informational_only(self):
        h0 = gue_hamiltonian(4, 4)
        h = hamiltonian_from_unitary(h0.eigenbasis, [0.0, 1.0, 2.0, 3.0])
        diag = diagnose_detection(h)
        assert diag.resonances
        assert diag.complete  # resonances alone do not break first moments


class TestIdealInversion:
    @pytest.mark.parametrize("d,seed", [(4, 0), (4, 5), (8, 1)])
    def test_inverse_composes_to_identity(self, d, seed):
        inv = build_inverter(gue_hamiltonian(d, seed))
        sup = inverse_superoperator(inv) @ forward_superoperator(inv)
        np.testing.assert_allclose(sup, np.eye(d * d), atol=1e-9)

    def test_forward_map_on_state(self):
        # the forward map equals the phase average of measured projectors
        d = 3
        h = gue_hamiltonian(d, 6)
        inv = build_inverter(h)
        rho = random_density(d, 7)
        g = np.random.default_rng(8)
        acc = np.zeros((d, d), dtype=complex)
        num = 40000
        for _ in range(num):
            phi = g.uniform(0, 2 * np.pi, size=d)
            v = h.eigenbasis
            u = (v * np.exp(1j * phi)) @ v.conj().T
            p = np.einsum("bm,mn,bn->b", u, rho, u.conj()).real
            for b in range(d):
                acc += p[b] * np.outer(u[b].conj(), u[b])
        np.testing.assert_allclose(shadow_map_forward(inv, rho), acc / num,
                                   atol=0.01)

    def test_n_and_inverse_are_mutual(self):
        inv = build_inverter(gue_hamiltonian(5, 9))
        g = np.random.default_rng(10)
        sigma = g.normal(size=(5, 5)) + 1j * g.normal(size=(5, 5))
        np.testing.assert_allclose(apply_n_inverse(inv, apply_n(inv, sigma)),
                                   sigma, atol=1e-10)

    def test_incomplete_raises(self):
        h = hermitian_spectral(np.diag([0.0, 1.0]))
        inv = build_inverter(h)
        with pytest.raises(IncompleteInverterError):
            estimate_linear(inv, [Snapshot(bitstring=0, time=1.0)],
                            Observable(np.eye(2)))


class TestFiniteTimeMap:
    def test_matches_ideal_in_long_window(self):
        h = gue_hamiltonian(4, 11)
        long = build_inverter(h, mode="finite-time", t_min=0.0, t_max=5000.0)
        ideal = build_inverter(h)
        np.testing.assert_allclose(forward_superoperator(long),
                                   forward_superoperator(ideal), atol=2e-3)

    def test_window_average_oracle(self):
        # quadrature over t of the measured-record average
        d = 3
        h = gue_hamiltonian(d, 12)
        t_min, t_max = 0.0, 4.0
        inv = build_inverter(h, mode="finite-time", t_min=t_min, t_max=t_max)
        rho = random_density(d, 13)
        # midpoint rule for the uniform window average
        ts = t_min + (np.arange(4000) + 0.5) * (t_max - t_min) / 4000
        v = h.eigenbasis
        acc = np.zeros((d, d), dtype=complex)
        for t in ts:
            u = (v * np.exp(-1j * h.energies * t)) @ v.conj().T
            p = np.einsum("bm,mn,bn->b", u, rho, u.conj()).real
            acc += sum(p[b] * np.outer(u[b].conj(), u[b]) for b in range(d))
        acc /= len(ts)
        np.testing.assert_allclose(shadow_map_forward(inv, rho), acc, atol=1e-4)

    def test_bias_removed_by_corrected_inverse(self):
        d = 4
        h = gue_hamiltonian(d, 11)
        rho = random_density(d, 3)
        v = h.eigenbasis
        inv_ft = build_inverter(h, mode="finite-time", t_min=0.0, t_max=5.0)
        inv_ideal = build_inverter(h)
        rec = shadow_map_forward(inv_ft, rho)
        sigma = v.conj().T @ rec @ v
        uncorr = v @ apply_n_inverse(inv_ideal, sigma) @ v.conj().T
        corr = v @ apply_n_inverse(inv_ft, sigma) @ v.conj().T
        assert np.max(np.abs(uncorr - rho)) > 1e-3
        assert np.max(np.abs(corr - rho)) < 1e-8

    def test_degenerate_window_map_singular(self):
        h = hamiltonian_from_unitary(gue_hamiltonian(4, 14).eigenbasis,
                                     [0.0, 0.0, 1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            finite_time_choi(h, 0.0, 10.0)

    @pytest.mark.parametrize("t_max", [np.inf, np.nan])
    def test_non_finite_window_refused(self, t_max):
        with pytest.raises(ValueError, match="finite"):
            finite_time_choi(gue_hamiltonian(4, 1), 2.0, t_max)

    def test_superoperator_matches_einsum_definition(self):
        d, t_min, t_max = 8, 2.0, 22.0
        h = gue_hamiltonian(d, 5)
        e, v = h.energies, h.eigenbasis
        p = v.conj()[:, :, None] * v[:, None, :]
        a = np.einsum("bqp,bmn->mnpq", p, p)
        omega = (e[None, None, :, None] + e[None, :, None, None]
                 - e[None, None, None, :] - e[:, None, None, None])
        small = np.abs(omega) < 1e-9
        om = np.where(small, 1.0, omega)
        weight = np.where(small, 1.0,
                          (np.exp(-1j * om * t_max) - np.exp(-1j * om * t_min))
                          / (-1j * om * (t_max - t_min)))
        inv = build_inverter(h, mode="finite-time", t_min=t_min, t_max=t_max)
        np.testing.assert_allclose(forward_superoperator(inv),
                                   (a * weight).reshape(d * d, d * d),
                                   rtol=0, atol=1e-15)

    def test_condition_number_is_the_one_norm_value(self):
        inv = build_inverter(gue_hamiltonian(8, 5), mode="finite-time",
                             t_min=2.0, t_max=22.0)
        assert inv.finite.condition_number == pytest.approx(
            np.linalg.cond(forward_superoperator(inv), 1), rel=1e-10)

    def test_stored_inverse_undoes_rebuilt_superoperator(self):
        inv = build_inverter(gue_hamiltonian(8, 5), mode="finite-time",
                             t_min=2.0, t_max=22.0)
        r = packed_forward(inv)
        np.testing.assert_allclose(inv.finite.packed_inverse @ r, np.eye(64),
                                   rtol=0, atol=1e-15 * inv.finite.condition_number)

    def test_inverter_keeps_only_the_inverse(self):
        inv = build_inverter(gue_hamiltonian(4, 5), mode="finite-time",
                             t_min=2.0, t_max=22.0)
        assert [f.name for f in fields(inv.finite)] == ["packed_inverse",
                                                        "condition_number"]
        assert inv.finite.packed_inverse.shape == (16, 16)

    def test_exactly_singular_map_refused(self):
        # a Hamiltonian diagonal in the computational basis: every P_b is a
        # basis projector, so the superoperator has rank d
        h = hermitian_spectral(np.diag([0.0, 1.0, 2.5, 4.1]))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"numerically singular \(cond=inf, 1-norm\)"):
            finite_time_choi(h, 0.0, 10.0)


def hermitian_stack(shape, d, seed):
    g = np.random.default_rng(seed)
    a = g.normal(size=(*shape, d, d)) + 1j * g.normal(size=(*shape, d, d))
    return a + np.swapaxes(a, -1, -2).conj()


class TestPackedCoordinates:
    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_unpack_inverts_pack(self, d):
        h = hermitian_stack((3, 2), d, 40 + d).reshape(3, 2, d * d)
        np.testing.assert_array_equal(_unpack(_pack(h)), h)

    def test_trace_pairing_is_weighted_dot(self):
        d = 6
        a, b = hermitian_stack((2,), d, 41)
        w = _packed_weights(d)
        assert np.sum(w * _pack(a.reshape(-1)) * _pack(b.reshape(-1))) == \
            pytest.approx(np.trace(a @ b).real, abs=1e-12)
        assert np.sum(w * _pack(a.reshape(-1)) ** 2) == \
            pytest.approx(np.linalg.norm(a) ** 2, abs=1e-12)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_inverse_and_adjoint_match_complex_inverse(self, shape):
        inv = build_inverter(gue_hamiltonian(5, 5), mode="finite-time",
                             t_min=2.0, t_max=22.0)
        g_inv = np.linalg.inv(forward_superoperator(inv))
        rng = np.random.default_rng(42)
        sigma = (rng.normal(size=(*shape, 5, 5))
                 + 1j * rng.normal(size=(*shape, 5, 5)))
        flat = sigma.reshape(-1, 25)
        ref = (flat @ g_inv.T).reshape(sigma.shape)
        # Tr(A-tilde sigma) = Tr(A G^-1 sigma): vec(A-tilde^T) = G^-T vec(A^T)
        ref_adj = np.swapaxes((np.swapaxes(sigma, -1, -2).reshape(-1, 25)
                               @ g_inv).reshape(sigma.shape), -1, -2)
        tol = 1e-12 * inv.finite.condition_number * np.max(np.abs(sigma))
        np.testing.assert_allclose(apply_n_inverse(inv, sigma), ref,
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(apply_n_inverse_adjoint(inv, sigma), ref_adj,
                                   rtol=0, atol=tol)

    def test_inverse_one_norm_is_the_complex_one_norm(self):
        # a random real map on packed coordinates, with small columns on
        # the diagonal ones so that the largest complex column is one of
        # the (Y_pq -+ i Y_qp)/2
        d = 4
        m = np.random.default_rng(43).normal(size=(d * d, d * d))
        m[:, np.eye(d, dtype=bool).reshape(-1)] *= 0.1
        units = np.eye(d * d, dtype=complex).reshape(-1, d, d)
        dense = _apply_packed(m, units, adjoint=False).reshape(d * d, -1).T
        assert _inverse_one_norm(m) == pytest.approx(np.linalg.norm(dense, 1),
                                                     rel=1e-12)

    def test_build_memory_bounded(self):
        h = gue_hamiltonian(16, 5)
        tracemalloc.start()
        try:
            finite_time_choi(h, 2.0, 22.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the complex-inverse build peaked at 5.9 MB; G alone is
        # 16**4 * 16 B = 1.0 MB, and R and R^-1 0.5 MB each
        assert peak < 4.5e6


MODES = ["ideal", "finite-time", "pseudo-inverse"]


def inverter_in_mode(mode):
    """A d = 4 inverter; the pseudo-inverse on the flat Hadamard basis."""
    if mode == "pseudo-inverse":
        return build_inverter(hamiltonian_from_unitary(hadamard_basis(2)),
                              mode=mode)
    if mode == "finite-time":
        return build_inverter(gue_hamiltonian(4, 11), mode=mode,
                              t_min=0.0, t_max=5.0)
    return build_inverter(gue_hamiltonian(4, 11))


class TestOneKernel:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("apply", [apply_n, apply_n_inverse])
    def test_stack_equals_per_matrix(self, mode, apply):
        inv = inverter_in_mode(mode)
        g = np.random.default_rng(31)
        stack = g.normal(size=(2, 3, 4, 4)) + 1j * g.normal(size=(2, 3, 4, 4))
        before = stack.copy()
        out = apply(inv, stack)
        per = np.array([[apply(inv, s) for s in row] for row in stack])
        np.testing.assert_array_equal(stack, before)
        assert out.shape == stack.shape
        # summed entries (the ideal diagonal, all of the finite-time map)
        # take one GEMM for a stack and GEMV for one matrix, so they may
        # differ in the last bits; elementwise entries agree exactly
        np.testing.assert_allclose(out, per, rtol=0,
                                   atol=1e-12 * np.max(np.abs(per)))
        if mode != "finite-time":
            off = ~np.eye(4, dtype=bool)
            np.testing.assert_array_equal(out[..., off], per[..., off])

    @pytest.mark.parametrize("mode", ["finite-time", "pseudo-inverse"])
    def test_inverse_superoperator_undoes_forward(self, mode):
        inv = inverter_in_mode(mode)
        # the pseudo-inverse recovers the off-diagonal elements only
        keep = np.ones((4, 4)) if mode == "finite-time" else 1 - np.eye(4)
        sup = inverse_superoperator(inv) @ forward_superoperator(inv)
        np.testing.assert_allclose(sup, np.diag(keep.reshape(-1)), atol=1e-9)


class TestPseudoInverse:
    def test_offdiagonals_recovered_diagonal_dropped(self):
        inv = build_inverter(hamiltonian_from_unitary(hadamard_basis(2)),
                             mode="pseudo-inverse")
        g = np.random.default_rng(15)
        sigma = g.normal(size=(4, 4)).astype(complex)
        out = apply_n_inverse(inv, sigma)
        assert np.all(np.diag(out) == 0)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(out[off], sigma[off] / 0.25, atol=1e-12)


class TestSnapshots:
    def test_time_and_phase_forms_agree(self):
        h = gue_hamiltonian(4, 16)
        inv = build_inverter(h)
        t = 1.37
        z_time = snapshot_amplitudes(inv, [Snapshot(bitstring=2, time=t)])
        z_phase = snapshot_amplitudes(
            inv, [Snapshot(bitstring=2, phases=-h.energies * t)])
        np.testing.assert_array_equal(z_time, z_phase)
        np.testing.assert_allclose(
            z_time[0], h.eigenbasis[2] * np.exp(-1j * h.energies * t), atol=1e-15)

    def test_exactly_one_of_time_phases(self):
        with pytest.raises(ValueError):
            Snapshot(bitstring=0)
        with pytest.raises(ValueError):
            Snapshot(bitstring=0, time=1.0, phases=np.zeros(2))

    def test_rotated_snapshot_is_rank_one_projector_like(self):
        # sigma-hat = conj(z) z^T from the snapshot's amplitude row z
        h = gue_hamiltonian(4, 17)
        (z,) = snapshot_amplitudes(build_inverter(h),
                                   [Snapshot(bitstring=1, time=0.7)])
        s = np.outer(z.conj(), z)
        assert abs(np.trace(s) - 1) < 1e-12
        assert np.linalg.matrix_rank(s, tol=1e-10) == 1

    def test_estimator_unit_trace(self):
        h = gue_hamiltonian(4, 18)
        inv = build_inverter(h)
        rho_hat = build_estimator(inv, Snapshot(bitstring=3, time=2.2))
        assert abs(np.trace(rho_hat) - 1) < 1e-10
        np.testing.assert_allclose(rho_hat, rho_hat.conj().T, atol=1e-10)


class TestFingerprint:
    def test_stable_and_distinct(self):
        h1 = gue_hamiltonian(4, 22)
        h2 = gue_hamiltonian(4, 23)
        assert hamiltonian_fingerprint(h1) == hamiltonian_fingerprint(h1)
        assert hamiltonian_fingerprint(h1) != hamiltonian_fingerprint(h2)
        assert len(hamiltonian_fingerprint(h1)) == 16
