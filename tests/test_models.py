import numpy as np
import pytest

from hamshadow import models
from hamshadow.models import (
    DEFAULT_C6,
    DEFAULT_DELTA,
    DEFAULT_OMEGA,
    DEFAULT_SPACING,
    RydbergParams,
    cluster_state,
    exp_family_vh,
    ghz_state,
    gue_hamiltonian,
    hadamard_basis,
    hamiltonian_from_unitary,
    ladder_product_state,
    pauli_tensor,
    random_hermitian,
    random_positions,
    random_pure_state,
    rydberg_hamiltonian,
    single_qubit_theta,
    thermal_state,
)
from hamshadow.qmatrix import is_density, is_hermitian, is_unitary, partial_trace
from hamshadow.shadowmap import diagnose_detection


def kron_rydberg_matrix(p: RydbergParams) -> np.ndarray:
    """H of a Rydberg chain as a sum of kron-embedded single-site and pair
    terms, added in the order that rydberg_hamiltonian's diagonal follows."""
    n = p.num_atoms

    def embed(op, site):
        out = np.array([[1.0 + 0j]])
        for j in range(n):
            out = np.kron(out, op if j == site else np.eye(2, dtype=complex))
        return out

    gr = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><r|
    num = np.array([[0, 0], [0, 1]], dtype=complex)  # |r><r|
    drive = (p.omega / 2) * (np.exp(1j * p.phi) * gr
                             + np.exp(-1j * p.phi) * gr.conj().T)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(n):
        h += embed(drive, j)
        h -= p.delta * embed(num, j)
    for j in range(n):
        for k in range(j + 1, n):
            r = np.linalg.norm(p.positions[j] - p.positions[k])
            h += p.c6 / r**6 * embed(num, j) @ embed(num, k)
    return h


LADDER = [(j * 10.733, row * 10.733) for row in (0, 1) for j in range(3)]


class TestRydberg:
    @pytest.mark.parametrize("p", [
        *(RydbergParams(random_positions(n, seed=n)) for n in range(1, 7)),
        RydbergParams(LADDER),
        RydbergParams(random_positions(3, seed=9), omega=3.0, phi=-0.7,
                      delta=-1.5),
    ], ids=[*(f"chain{n}" for n in range(1, 7)), "ladder6", "params3"])
    def test_matches_kron_sum_oracle(self, p, monkeypatch):
        built = []
        monkeypatch.setattr(models, "hermitian_spectral",
                            lambda h: built.append(h) or "spectral")
        assert rydberg_hamiltonian(p) == "spectral"
        assert np.array_equal(built[0], kron_rydberg_matrix(p))

    def test_hermitian_and_size(self):
        p = RydbergParams(positions=random_positions(3, seed=1))
        h = rydberg_hamiltonian(p)
        assert h.dim == 8
        assert is_hermitian(h.matrix(), 1e-12)

    def test_single_atom_drive_block(self):
        # one atom: H = (omega/2)(e^{i phi}|0><1| + h.c.) - delta |1><1|
        p = RydbergParams(positions=[[0.0]])
        m = rydberg_hamiltonian(p).matrix()
        assert m[0, 0] == pytest.approx(0.0)
        assert m[1, 1] == pytest.approx(-DEFAULT_DELTA)
        assert m[0, 1] == pytest.approx((DEFAULT_OMEGA / 2) * np.exp(2.1j))

    def test_nearest_neighbor_interaction_energy(self):
        # |11> diagonal entry picks up C / D^6 on top of the detunings
        d12 = 7.0
        p = RydbergParams(positions=[[0.0], [d12]])
        m = rydberg_hamiltonian(p).matrix()
        v = DEFAULT_C6 / d12**6
        assert m[3, 3] == pytest.approx(-2 * DEFAULT_DELTA + v, rel=1e-12)
        assert m[1, 1] == pytest.approx(-DEFAULT_DELTA)

    def test_far_atoms_decouple(self):
        near = RydbergParams(positions=[[0.0], [DEFAULT_SPACING]])
        far = RydbergParams(positions=[[0.0], [1e4]])
        single = rydberg_hamiltonian(RydbergParams(positions=[[0.0]])).matrix()
        expect = np.kron(single, np.eye(2)) + np.kron(np.eye(2), single)
        assert np.max(np.abs(rydberg_hamiltonian(far).matrix() - expect)) < 1e-10
        assert np.max(np.abs(rydberg_hamiltonian(near).matrix() - expect)) > 1.0

    def test_no_drive_is_basis_aligned(self):
        p = RydbergParams(positions=random_positions(2, seed=2), omega=0.0)
        diag = diagnose_detection(rydberg_hamiltonian(p))
        assert not diag.complete
        assert len(diag.basis_aligned) == 4

    def test_flat_positions_are_a_chain(self):
        p = RydbergParams([0.0, 8.781])
        assert p.num_atoms == 2
        np.testing.assert_array_equal(p.positions, [[0.0], [8.781]])
        assert rydberg_hamiltonian(p).dim == 4

    def test_two_dimensional_positions_are_one_row_per_atom(self):
        assert RydbergParams([[0.0, 0.0, 0.0]]).positions.shape == (1, 3)
        assert RydbergParams(LADDER).positions.shape == (6, 2)
        with pytest.raises(ValueError, match="one row per atom"):
            RydbergParams(np.zeros((2, 1, 1)))

    def test_atom_count_guard_and_coincidence(self):
        with pytest.raises(ValueError, match="guard"):
            rydberg_hamiltonian(
                RydbergParams(positions=np.arange(13.0).reshape(13, 1)))
        with pytest.raises(ValueError, match="coincide"):
            RydbergParams(positions=[[0.0], [0.0]])


class TestPositions:
    def test_lattice_when_jitter_zero(self):
        pos = random_positions(4, spacing_d=3.0, jitter=0.0)
        np.testing.assert_allclose(pos[:, 0], [0.0, 3.0, 6.0, 9.0])

    def test_seeded_and_bounded(self):
        a = random_positions(5, seed=3)
        b = random_positions(5, seed=3)
        c = random_positions(5, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)
        base = DEFAULT_SPACING * np.arange(5)
        assert np.max(np.abs(a[:, 0] - base)) <= 0.488

    def test_jitter_guard(self):
        with pytest.raises(ValueError):
            random_positions(3, spacing_d=1.0, jitter=0.6)

    def test_jittered_chains_usually_complete(self):
        hits = 0
        for seed in range(10):
            p = RydbergParams(positions=random_positions(4, seed=seed))
            if diagnose_detection(rydberg_hamiltonian(p)).complete:
                hits += 1
        assert hits >= 9


class TestStates:
    def test_ghz_two_qubit_amplitudes(self):
        rho = ghz_state(2)
        assert is_density(rho)
        # (|01> + |10>)/sqrt(2): support on indices 1 and 2
        assert rho[1, 1] == pytest.approx(0.5)
        assert rho[2, 2] == pytest.approx(0.5)
        assert rho[1, 2] == pytest.approx(0.5)
        assert rho[0, 0] == 0.0

    def test_ghz_pure(self):
        rho = ghz_state(4)
        assert np.trace(rho @ rho).real == pytest.approx(1.0)

    def test_cluster_stabilizers(self):
        # bulk stabilizer Z X Z on neighboring triples has expectation +1
        n = 6
        rho = cluster_state(n)
        for j in range(1, n - 1):
            labels = "".join("Z" if k in (j - 1, j + 1) else
                             ("X" if k == j else "I") for k in range(n))
            val = np.trace(pauli_tensor(labels) @ rho).real
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_cluster_edge_stabilizers(self):
        rho = cluster_state(3)
        for labels in ("XZI", "IZX"):
            assert np.trace(pauli_tensor(labels) @ rho).real == \
                pytest.approx(1.0, abs=1e-10)

    def test_ladder_product_layout(self):
        rho = ladder_product_state(2, 1)
        psi_idx = int("001", 2)
        assert rho[psi_idx, psi_idx] == pytest.approx(1.0)
        # reduced state of the last qubit is |1>
        red = partial_trace(rho, [2, 2, 2], [2])
        assert red[1, 1] == pytest.approx(1.0)

    def test_random_pure_state(self):
        rho = random_pure_state(8, 5)
        assert is_density(rho)
        assert np.trace(rho @ rho).real == pytest.approx(1.0)
        np.testing.assert_array_equal(rho, random_pure_state(8, 5))

    def test_thermal_commutes_and_limits(self):
        h = gue_hamiltonian(4, 6)
        rho = thermal_state(h, 0.7)
        assert is_density(rho)
        hm = h.matrix()
        assert np.max(np.abs(hm @ rho - rho @ hm)) < 1e-10
        # infinite temperature is maximally mixed
        np.testing.assert_allclose(thermal_state(h, 0.0), np.eye(4) / 4,
                                   atol=1e-12)
        # zero temperature concentrates on the ground state
        cold = thermal_state(h, 200.0)
        ground = h.eigenbasis[:, 0]
        np.testing.assert_allclose(cold, np.outer(ground, ground.conj()),
                                   atol=1e-8)


class TestBasisFamilies:
    def test_exp_family_identity_at_zero(self):
        np.testing.assert_allclose(exp_family_vh(4, 0.0, 8), np.eye(4),
                                   atol=1e-12)

    def test_exp_family_unitary_group_property(self):
        v1 = exp_family_vh(4, 0.4, 8)
        v2 = exp_family_vh(4, 0.9, 8)
        assert is_unitary(v1, 1e-10)
        np.testing.assert_allclose(exp_family_vh(4, 1.3, 8), v2 @ v1,
                                   atol=1e-9)

    def test_hadamard_unitary_and_flat(self):
        v = hadamard_basis(3)
        assert is_unitary(v, 1e-12)
        np.testing.assert_allclose(np.abs(v), 2**-1.5, atol=1e-12)

    def test_hamiltonian_from_unitary_defaults(self):
        v = hadamard_basis(2)
        h = hamiltonian_from_unitary(v)
        np.testing.assert_array_equal(h.energies, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(h.eigenbasis, v)

    def test_single_qubit_sweep(self):
        h = single_qubit_theta(0.0)
        # eigenbasis columns align with the computational basis
        np.testing.assert_allclose(np.max(np.abs(h.eigenbasis), axis=0),
                                   1.0, atol=1e-12)
        hx = single_qubit_theta(np.pi / 2)
        np.testing.assert_allclose(np.abs(hx.eigenbasis), 0.5**0.5, atol=1e-12)

    def test_random_hermitian_exact_and_seeded(self):
        m = random_hermitian(6, 9)
        np.testing.assert_array_equal(m, m.conj().T)
        np.testing.assert_array_equal(m, random_hermitian(6, 9))

    def test_gue_spectrum_semicircle_scale(self):
        # eigenvalues of the unnormalized ensemble concentrate in
        # [-2 sqrt(d), 2 sqrt(d)]; a coarse check at d = 256
        d = 256
        h = gue_hamiltonian(d, 10)
        lam = h.energies / np.sqrt(d)
        assert np.max(np.abs(lam)) < 2.2
        assert np.mean(np.abs(lam) < 1.0) == pytest.approx(0.61, abs=0.08)
