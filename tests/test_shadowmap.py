import numpy as np
import pytest

from hamshadow.models import (
    gue_hamiltonian,
    hadamard_basis,
    hamiltonian_from_unitary,
)
from hamshadow.qmatrix import hermitian_spectral
from hamshadow.shadowmap import (
    IncompleteInverterError,
    Snapshot,
    apply_n,
    apply_n_inverse,
    build_estimator,
    build_inverter,
    build_local_estimator,
    diagnose_detection,
    finite_time_choi,
    forward_superoperator,
    hamiltonian_fingerprint,
    inverse_superoperator,
    rotated_snapshot,
    shadow_map_forward,
    snapshot_phases,
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
            build_estimator(inv, Snapshot(bitstring=0, time=1.0))


class TestFiniteTimeMap:
    def test_matches_ideal_in_long_window(self):
        h = gue_hamiltonian(4, 11)
        long = build_inverter(h, mode="finite-time", t_min=0.0, t_max=5000.0)
        ideal = build_inverter(h)
        np.testing.assert_allclose(long.finite.superoperator,
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

    def test_finite_time_forward_is_the_window_superoperator(self):
        inv = inverter_in_mode("finite-time")
        np.testing.assert_array_equal(forward_superoperator(inv),
                                      inv.finite.superoperator)


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
        t = 1.37
        s_time = Snapshot(bitstring=2, time=t)
        s_phase = Snapshot(bitstring=2, phases=-h.energies * t)
        np.testing.assert_allclose(rotated_snapshot(h, s_time),
                                   rotated_snapshot(h, s_phase), atol=1e-14)
        np.testing.assert_allclose(snapshot_phases(h, s_time),
                                   -h.energies * t)

    def test_exactly_one_of_time_phases(self):
        with pytest.raises(ValueError):
            Snapshot(bitstring=0)
        with pytest.raises(ValueError):
            Snapshot(bitstring=0, time=1.0, phases=np.zeros(2))

    def test_rotated_snapshot_is_rank_one_projector_like(self):
        h = gue_hamiltonian(4, 17)
        s = rotated_snapshot(h, Snapshot(bitstring=1, time=0.7))
        assert abs(np.trace(s) - 1) < 1e-12
        assert np.linalg.matrix_rank(s, tol=1e-10) == 1

    def test_estimator_unit_trace(self):
        h = gue_hamiltonian(4, 18)
        inv = build_inverter(h)
        rho_hat = build_estimator(inv, Snapshot(bitstring=3, time=2.2))
        assert abs(np.trace(rho_hat) - 1) < 1e-10
        np.testing.assert_allclose(rho_hat, rho_hat.conj().T, atol=1e-10)


class TestLocalEstimator:
    def test_tensor_structure(self):
        h1, h2 = gue_hamiltonian(2, 19), gue_hamiltonian(2, 20)
        i1, i2 = build_inverter(h1), build_inverter(h2)
        s1 = Snapshot(bitstring=0, time=0.5)
        s2 = Snapshot(bitstring=1, time=0.9)
        joint = build_local_estimator([i1, i2], [s1, s2])
        expect = np.kron(build_estimator(i1, s1), build_estimator(i2, s2))
        np.testing.assert_allclose(joint, expect, atol=1e-12)

    def test_shared_energy_warning(self):
        h = gue_hamiltonian(2, 21)
        inv = build_inverter(h)
        s = Snapshot(bitstring=0, time=0.5)
        with pytest.warns(UserWarning, match="share eigen-energies"):
            build_local_estimator([inv, inv], [s, s])

    def test_different_times_no_warning(self):
        import warnings

        h = gue_hamiltonian(2, 21)
        inv = build_inverter(h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_local_estimator([inv, inv],
                                  [Snapshot(bitstring=0, time=0.5),
                                   Snapshot(bitstring=0, time=0.9)])


class TestFingerprint:
    def test_stable_and_distinct(self):
        h1 = gue_hamiltonian(4, 22)
        h2 = gue_hamiltonian(4, 23)
        assert hamiltonian_fingerprint(h1) == hamiltonian_fingerprint(h1)
        assert hamiltonian_fingerprint(h1) != hamiltonian_fingerprint(h2)
        assert len(hamiltonian_fingerprint(h1)) == 16
