import numpy as np
import pytest

from hamshadow.qmatrix import (
    SpectralHamiltonian,
    check_density,
    evolve,
    hermitian_spectral,
    is_density,
    is_hermitian,
    is_unitary,
    partial_trace,
    swap_operator,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_density(d, seed=0):
    g = rng(seed)
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


class TestPredicates:
    def test_hermitian_accepts_and_rejects(self):
        assert is_hermitian(np.array([[1, 1j], [-1j, 2]]))
        assert not is_hermitian(np.array([[1, 1j], [1j, 2]]))
        assert not is_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
    def test_hermitian_refuses_non_matrix(self, shape):
        # (2, 2, 2) has equal first axes and equals its all-axes transpose
        assert not is_hermitian(np.ones(shape))

    def test_hermitian_refuses_empty_matrix(self):
        assert not is_hermitian(np.zeros((0, 0)))

    def test_unitary(self):
        assert is_unitary(np.eye(3))
        theta = 0.7
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        assert is_unitary(u)
        assert not is_unitary(2 * np.eye(2))

    def test_density(self):
        assert is_density(np.eye(4) / 4)
        assert is_density(random_density(3, 1))
        assert not is_density(np.eye(2))          # trace 2
        assert not is_density(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_check_density_raises(self):
        with pytest.raises(ValueError):
            check_density(np.eye(2))


class TestTensorAndTrace:
    def test_tensor_product_msb_convention(self):
        # |1> (x) |0> must land on index 2 in a 2-qubit register
        v0 = np.array([1, 0])
        v1 = np.array([0, 1])
        rho = np.kron(np.outer(v1, v1), np.outer(v0, v0))
        assert rho[2, 2] == 1.0
        # partial_trace keeps the same order: subsystem 0 is the |1> factor
        np.testing.assert_array_equal(partial_trace(rho, [2, 2], [0]),
                                      np.outer(v1, v1))

    def test_partial_trace_of_product_state(self):
        a, b = random_density(2, 2), random_density(3, 3)
        full = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(full, [2, 3], [0]), a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(full, [2, 3], [1]), b, atol=1e-12)

    def test_partial_trace_preserves_trace(self):
        m = random_density(8, 4)
        red = partial_trace(m, [2, 2, 2], [0, 2])
        assert abs(np.trace(red) - 1) < 1e-12

    def test_partial_trace_entangled_oracle(self):
        # Bell state reduces to the maximally mixed qubit
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        bell = np.outer(psi, psi)
        np.testing.assert_allclose(partial_trace(bell, [2, 2], [0]),
                                   np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2], [0])

    def test_swap_operator(self):
        d = 3
        s = swap_operator(d)
        a, b = random_density(d, 5), random_density(d, 6)
        # SWAP trick: Tr(S (A (x) B)) = Tr(AB)
        lhs = np.trace(s @ np.kron(a, b))
        rhs = np.trace(a @ b)
        assert abs(lhs - rhs) < 1e-12
        np.testing.assert_allclose(s @ s, np.eye(d * d), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_swap_operator_exact_entries(self, d):
        ref = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                ref[j * d + i, i * d + j] = 1.0  # |ij> -> |ji>
        s = swap_operator(d)
        assert s.dtype == ref.dtype and np.array_equal(s, ref)


class TestSpectral:
    def test_roundtrip(self):
        g = rng(7)
        a = g.normal(size=(5, 5)) + 1j * g.normal(size=(5, 5))
        h = (a + a.conj().T) / 2
        spec = hermitian_spectral(h)
        np.testing.assert_allclose(spec.matrix(), h, atol=1e-10)
        assert np.all(np.diff(spec.energies) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_spectral(np.array([[0, 1], [0, 0]]))

    def test_gauge_deterministic(self):
        g = rng(8)
        a = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        s1 = hermitian_spectral(h)
        s2 = hermitian_spectral(h.copy())
        np.testing.assert_array_equal(s1.eigenbasis, s2.eigenbasis)

    def test_invalid_eigenbasis_rejected(self):
        with pytest.raises(ValueError):
            SpectralHamiltonian(np.array([0.0, 1.0]), 2 * np.eye(2))

    def test_fields_are_read_only_copies(self):
        e = np.array([0.0, 1.0, 2.5])
        v = np.linalg.qr(rng(11).normal(size=(3, 3))
                         + 1j * rng(12).normal(size=(3, 3)))[0]
        e0, v0 = e.copy(), v.copy()
        h = SpectralHamiltonian(e, v)
        # a write through the fields raises and leaves the caller's arrays
        # as they were
        with pytest.raises(ValueError):
            h.eigenbasis[:] = h.eigenbasis[:, ::-1]
        with pytest.raises(ValueError):
            h.energies[0] = 5.0
        np.testing.assert_array_equal(v, v0)
        np.testing.assert_array_equal(e, e0)
        # the caller's arrays stay writeable, and a write to them does not
        # reach the Hamiltonian
        assert e.flags.writeable and v.flags.writeable
        v[:] = v[:, ::-1]
        e[0] = 5.0
        np.testing.assert_array_equal(h.eigenbasis, v0)
        np.testing.assert_array_equal(h.energies, e0)

    def test_read_only_fields_are_shared_not_copied(self):
        h = hermitian_spectral(np.array([[1, 0.3], [0.3, -1.0]]))
        twin = SpectralHamiltonian(h.energies, h.eigenbasis)
        assert twin.energies is h.energies and twin.eigenbasis is h.eigenbasis


class TestEvolve:
    def test_preserves_density(self):
        h = hermitian_spectral(np.array([[1, 0.3], [0.3, -1.0]]))
        rho = random_density(2, 9)
        out = evolve(h, 1.7, rho)
        assert is_density(out)

    def test_stationary_state(self):
        h = hermitian_spectral(np.diag([1.0, 2.0, 3.0]))
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        np.testing.assert_allclose(evolve(h, 2.3, rho), rho, atol=1e-12)

    def test_matches_expm_oracle(self):
        from scipy.linalg import expm

        hm = np.array([[0.2, 0.5 - 0.1j], [0.5 + 0.1j, -0.7]])
        h = hermitian_spectral(hm)
        rho = random_density(2, 10)
        t = 0.9
        u = expm(-1j * hm * t)
        np.testing.assert_allclose(evolve(h, t, rho),
                                   u @ rho @ u.conj().T, atol=1e-10)

    def test_rejects_nonfinite_time(self):
        h = hermitian_spectral(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError):
            evolve(h, np.inf, np.eye(2) / 2)
