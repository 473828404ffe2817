import functools
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from hamshadow import cli, shadowmap
from hamshadow.models import (
    RydbergParams,
    exp_family_vh,
    ghz_state,
    gue_hamiltonian,
    hadamard_basis,
    hamiltonian_from_unitary,
    random_positions,
    rydberg_hamiltonian,
)
from hamshadow.estimators import (
    Observable,
    estimate_linear,
    snapshot_amplitudes,
    transformed_observable,
)
from hamshadow.qmatrix import SpectralHamiltonian, hermitian_spectral
from hamshadow.sampler import Snapshot, run_batch
from hamshadow.shadowmap import (
    IncompleteInverterError,
    _inverse_one_norm,
    _invert_spd_in_place,
    _mirror_upper,
    _pack,
    _packed_weights,
    _packed_halves,
    _packing,
    _symmetric_half_product,
    _unpack,
    _window_superoperator,
    FiniteTimeChoi,
    INVERSE_BLOCK,
    SINGULAR_CONDITION,
    apply_n_inverse,
    build_inverter,
    diagnose_detection,
    finite_time_choi,
    hamiltonian_fingerprint,
    inverted_snapshot_moments,
)
from hamshadow.times import ENERGY_RESOLUTION, TimeModel

from states import build_estimator
from superoperators import (
    apply_n,
    apply_packed_dense,
    dense_window_superoperator,
    forward_superoperator,
    inverse_one_norm_by_columns,
    inverse_superoperator,
    packed_forward,
    shadow_map_forward,
    uniform_window,
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

    @pytest.mark.parametrize("h", [
        # eigenvectors 0, 1 and 4 are basis vectors, 2 and 3 are not
        hamiltonian_from_unitary(np.block([
            [np.eye(2), np.zeros((2, 3))],
            [np.zeros((2, 2)), hadamard_basis(1), np.zeros((2, 1))],
            [np.zeros((1, 4)), np.ones((1, 1))]])),
        hamiltonian_from_unitary(np.kron(np.eye(2), hadamard_basis(2))),
        hamiltonian_from_unitary(np.kron(gue_hamiltonian(4, 8).eigenbasis,
                                         np.eye(2))),
        # 16 flat blocks: 30 720 zero off-diagonals, of which 8 are kept
        hamiltonian_from_unitary(np.kron(np.eye(16), hadamard_basis(4))),
    ], ids=["partly-aligned", "hadamard-blocks", "gue-blocks", "d256-blocks"])
    def test_index_lists_match_loops(self, h):
        diag = diagnose_detection(h)
        v_sq = np.abs(h.eigenbasis) ** 2
        x_h = v_sq.T @ v_sq
        off = [(i, j) for i in range(h.dim) for j in range(i + 1, h.dim)
               if abs(x_h[i, j]) < 1e-12]
        aligned = [k for k in range(h.dim) if np.max(v_sq[:, k]) >= 1.0 - 1e-10]
        # the first 8, all that summary() reports
        assert diag.zero_offdiagonal == off[:8]
        assert diag.basis_aligned == aligned
        assert off or aligned
        assert not diag.complete
        if off:  # a zero X_mn alone makes N singular
            assert diag.map_condition_number > SINGULAR_CONDITION
            assert f"  zero off-diagonals of X_H: {off[:8]}" in \
                diag.summary().splitlines()
        assert all(type(i) is int for pair in diag.zero_offdiagonal for i in pair)
        assert all(type(k) is int for k in diag.basis_aligned)

    def test_weak_pairs_kept_without_the_full_list(self):
        # 64 flat blocks at d = 1 024: 516 096 zero off-diagonals, whose
        # full tuple list peaked at 94.5 MB traced; X_H and q are 8.4 MB each
        h = hamiltonian_from_unitary(np.kron(np.eye(64), hadamard_basis(4)),
                                     np.sqrt(np.arange(1, 1025)))
        tracemalloc.start()
        try:
            diag = diagnose_detection(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.zero_offdiagonal == [(0, j) for j in range(16, 24)]
        assert not diag.complete
        assert peak < 40e6

    def test_flat_basis_singular(self):
        diag = diagnose_detection(hamiltonian_from_unitary(hadamard_basis(2)))
        # X_H = J/4 has rank 1; its off-diagonals are all 1/4
        assert diag.map_condition_number > SINGULAR_CONDITION
        assert diag.zero_offdiagonal == []
        assert not diag.complete
        lines = diag.summary().splitlines()
        assert "  N singular: cond(N) above 1e+12" in lines
        assert "  X_H singular" in lines

    def test_degenerate_energies_flagged(self):
        h0 = gue_hamiltonian(4, 3)
        h = hamiltonian_from_unitary(h0.eigenbasis, [0.0, 1.0, 1.0, 2.0])
        diag = diagnose_detection(h)
        assert (1, 2) in diag.energy_degeneracy
        assert not diag.complete

    @pytest.mark.parametrize("energies", [
        [0.0, 1.0, 1.0, 2.0],  # one pair
        [0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0],  # 7 pairs
        [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0],  # 11 pairs, 8 kept
        np.zeros(8),  # 28 pairs, 8 kept
        [2.0, 1.0 + 5e-10, 1.0],  # (1, 2) just inside the resolution
        # clusters of near-equal energies in shuffled order: 5 pairs just
        # inside the resolution, 4 just outside it
        (lambda rng: rng.permutation(
            np.repeat(rng.normal(size=3), 3)
            + rng.choice([0.0, 4e-10, 9e-10, 3e-9], size=9)))(
                np.random.default_rng(17)),
    ])
    def test_degenerate_pairs_are_the_first_order_pairs_head(self, energies):
        h = hamiltonian_from_unitary(gue_hamiltonian(len(energies), 3).eigenbasis,
                                     energies)
        diag = diagnose_detection(h)
        e = h.energies
        pairs = [(a, b) for a in range(len(e)) for b in range(a + 1, len(e))
                 if abs(e[a] - e[b]) <= ENERGY_RESOLUTION]
        assert diag.energy_degeneracy == pairs[:8]
        assert all(type(i) is int for pair in diag.energy_degeneracy for i in pair)
        if len(pairs) <= 8:  # the summary line of the full list
            assert f"  degenerate energy pairs: {pairs}" in diag.summary().splitlines()

    def test_degenerate_pairs_kept_without_the_full_list(self):
        # all 523 776 pairs degenerate at d = 1 024: their tuple list peaked
        # at 89 MB traced, and summary() printed 6.2 M characters
        h = hamiltonian_from_unitary(np.kron(np.eye(64), hadamard_basis(4)),
                                     np.zeros(1024))
        tracemalloc.start()
        try:
            diag = diagnose_detection(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.energy_degeneracy == [(0, j) for j in range(1, 9)]
        assert not diag.complete
        assert peak < 40e6
        assert len(diag.summary()) < 1000

    def test_resonances_informational_only(self):
        # 0 + 3 = 1 + 2 does not stop the ideal map, which ideal phases
        # need; the window map of time data weights resonant elements
        # itself, so the diagnosis no longer lists them in a note line
        h0 = gue_hamiltonian(4, 4)
        h = hamiltonian_from_unitary(h0.eigenbasis, [0.0, 1.0, 2.0, 3.0])
        diag = diagnose_detection(h)
        assert diag.complete
        assert diag.summary().splitlines() == [
            "complete", f"  cond(X_H)={diag.condition_number:.3e}, "
                        f"cond(N)={diag.map_condition_number:.3e}"]

    def test_build_inverter_diagnoses_once(self, monkeypatch):
        h = gue_hamiltonian(8, 2)
        expected = diagnose_detection(h)
        calls = []
        diagnose = shadowmap._diagnose

        def counted(*args):
            calls.append(args[0])
            return diagnose(*args)

        def refuse(h):
            raise AssertionError("build_inverter called diagnose_detection")
        monkeypatch.setattr(shadowmap, "_diagnose", counted)
        monkeypatch.setattr(shadowmap, "diagnose_detection", refuse)
        for mode in ("ideal", "pseudo-inverse"):
            assert build_inverter(h, mode=mode).diagnosis == expected
        assert calls == [h, h]


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
        # refused where it is built, with the diagnosis, not at first use
        h = hermitian_spectral(np.diag([0.0, 1.0]))
        with pytest.raises(IncompleteInverterError) as err:
            build_inverter(h)
        assert str(err.value) == ("Hamiltonian is not tomography-complete:\n"
                                  + diagnose_detection(h).summary())
        # the pseudo-inverse of an incomplete map is what that mode is for
        assert not build_inverter(h, mode="pseudo-inverse").diagnosis.complete


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
            finite_time_choi(h, uniform_window(0.0, 10.0))

    @pytest.mark.parametrize("t_max", [np.inf, np.nan])
    def test_non_finite_window_refused(self, t_max):
        with pytest.raises(ValueError, match="finite"):
            build_inverter(gue_hamiltonian(4, 1), mode="finite-time", t_min=2.0,
                           t_max=t_max)

    def test_negative_window_refused_as_time_model_refuses_it(self):
        # built before, though no snapshot record can carry this window
        with pytest.raises(ValueError, match=r"^uniform-window requires t_min >= 0$"):
            TimeModel("uniform-window", t_min=-1.0, t_max=5.0)
        with pytest.raises(ValueError, match=r"^uniform-window requires t_min >= 0$"):
            build_inverter(gue_hamiltonian(4, 1), mode="finite-time", t_min=-1.0,
                           t_max=5.0)

    def test_memory_guard_refuses_before_allocating(self, monkeypatch):
        # the guard is lowered so that d = 16 (d^4 = 65536) stands for an
        # 8-atom chain (d = 256, 32 GiB); no window build may start
        def no_build(*args):
            raise AssertionError("window build started")

        h = gue_hamiltonian(16, 5)
        monkeypatch.setattr(shadowmap, "MAX_WINDOW_ENTRIES", 16**4 - 1)
        monkeypatch.setattr(shadowmap, "_window_superoperator", no_build)
        with pytest.raises(ValueError, match=r"d = 16 holds d\^4 = 65536 doubles "
                           r"\(0.000488281 GiB\), above MAX_WINDOW_ENTRIES = 65535"):
            build_inverter(h, mode="finite-time", t_min=2.0, t_max=22.0)

    def test_memory_guard_admits_its_limit(self, monkeypatch):
        monkeypatch.setattr(shadowmap, "MAX_WINDOW_ENTRIES", 4**4)
        fin = finite_time_choi(gue_hamiltonian(4, 5), uniform_window(2.0, 22.0))
        assert fin.packed_inverse.shape == (16, 16)
        with pytest.raises(ValueError, match="MAX_WINDOW_ENTRIES = 256"):
            finite_time_choi(gue_hamiltonian(5, 5), uniform_window(2.0, 22.0))

    def test_memory_guard_default_admits_seven_atoms_only(self):
        assert 128**4 * 8 == 2 * 2**30 and 128**4 <= shadowmap.MAX_WINDOW_ENTRIES
        assert 256**4 > shadowmap.MAX_WINDOW_ENTRIES

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

    @pytest.mark.parametrize("h", [
        gue_hamiltonian(2, 3),
        gue_hamiltonian(5, 4),
        gue_hamiltonian(8, 5),
        *(rydberg_hamiltonian(RydbergParams(random_positions(n, seed=n)))
          for n in (1, 2, 3)),
        # equally spaced energies: many resonant elements, weight exactly 1
        hamiltonian_from_unitary(exp_family_vh(4, 1.0, 6)),
        hamiltonian_from_unitary(exp_family_vh(7, 1.0, 7)),
    ], ids=["gue2", "gue5", "gue8", "rydberg2", "rydberg4", "rydberg8",
            "spaced4", "spaced7"])
    def test_packed_superoperator_matches_dense_definition(self, h):
        r, col_sums = _window_superoperator(h, uniform_window(2.0, 22.0))
        r_ref, col_sums_ref = dense_window_superoperator(h, 2.0, 22.0)
        np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(col_sums, col_sums_ref, rtol=1e-13, atol=0)

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
            finite_time_choi(h, uniform_window(0.0, 10.0))

    def test_singular_pivot_block_reports_infinite_cond(self):
        # d = 16: R is 256 x 256, three blocks, and the off-diagonal rows of
        # the first one are zero, so that block's Cholesky fails
        h = hermitian_spectral(np.diag(np.sqrt(np.arange(1.0, 17.0))))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"numerically singular \(cond=inf, 1-norm\)"):
            finite_time_choi(h, uniform_window(0.0, 10.0))

    def test_non_finite_inverse_reports_infinite_cond(self, monkeypatch):
        # a nan in diagonal packed row (0, 0), at off-diagonal column (0, 1)
        monkeypatch.setattr(shadowmap, "_invert_spd_in_place",
                            lambda a: a.__setitem__((0, 1), np.nan))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"numerically singular \(cond=inf, 1-norm\)"):
            finite_time_choi(gue_hamiltonian(4, 5), uniform_window(2.0, 22.0))

    def test_indefinite_map_reports_infinite_cond(self, monkeypatch):
        # W R stays symmetric and invertible, and an LU inverse would pass
        # the 1-norm gate, but its last diagonal entry is negated: W R is
        # not positive definite, so the Cholesky of the last block fails
        h = gue_hamiltonian(12, 5)
        r, col_sums = _window_superoperator(h, uniform_window(2.0, 22.0))
        r[-1, -1] *= -1
        assert col_sums.max() * _inverse_one_norm(np.linalg.inv(r)) < SINGULAR_CONDITION
        monkeypatch.setattr(shadowmap, "_window_superoperator",
                            lambda *args: (r.copy(), col_sums))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"numerically singular \(cond=inf, 1-norm\)"):
            finite_time_choi(h, uniform_window(2.0, 22.0))

    # d = 4: flat index 5 is (1, 1), 6 is (1, 2) and 9 is (2, 1); each entry
    # reaches _inverse_one_norm by another branch than the test above
    @pytest.mark.parametrize("entry, value", [
        ((6, 9), np.inf),  # a pair of rows, at a pair of columns
        ((5, 5), np.nan),  # a diagonal row, at a diagonal column
        ((6, 5), np.nan),  # a pair of rows, at a diagonal column
    ], ids=["inf", "nan-diagonal-row", "nan-diagonal-column"])
    def test_non_finite_entry_reports_infinite_cond(self, monkeypatch, entry,
                                                     value):
        monkeypatch.setattr(shadowmap, "_invert_spd_in_place",
                            lambda a: a.__setitem__(entry, value))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"numerically singular \(cond=inf, 1-norm\)"):
            finite_time_choi(gue_hamiltonian(4, 5), uniform_window(2.0, 22.0))


RYDBERG_WINDOWS = [(2.0, 22.0), (2.0, 6.0), (2.0, 4.0)]
# (atoms, position seed): cond from an LU inverse (np.linalg.inv) of R on
# each window of RYDBERG_WINDOWS, None where that refused the window
LU_VERDICTS = {
    (2, 1): (None, None, None),
    (2, 3): (None, None, None),
    (2, 7): (None, None, None),
    (3, 1): (6.8168e3, 8.7513e3, 1.3252e5),
    (3, 3): (9.7560e8, 1.1570e9, None),
    (3, 7): (1.2262e5, 1.5076e5, 2.5211e7),
    (4, 1): (1.7528e4, 3.3337e4, 8.1155e11),
    (4, 3): (2.6290e4, 8.5604e4, None),
    (4, 7): (8.6836e7, 1.4593e9, None),
    (5, 1): (1.8378e4, None, None),
    (5, 3): (7.4617e5, None, None),
    (5, 7): (3.5558e6, None, None),
}


def rydberg_chain(atoms, seed):
    return rydberg_hamiltonian(RydbergParams(random_positions(atoms, seed=seed)))


def long_double_spd_inverse(s):
    """Inverse of the symmetric positive-definite s, read from its upper
    triangle, by an unblocked Cholesky factorisation s = L L^T and
    L^-T L^-1 in long double; doubles, symmetric bit for bit."""
    a = np.triu(s).astype(np.longdouble)
    a += np.triu(a, 1).T
    n = len(a)
    low = np.zeros_like(a)
    for j in range(n):
        v = a[j:, j] - low[j:, :j] @ low[j, :j]
        low[j, j] = np.sqrt(v[0])
        low[j + 1:, j] = v[1:] / low[j, j]
    low_inv = np.zeros_like(a)
    for i in range(n):
        low_inv[i, :i + 1] = -(low[i, :i] @ low_inv[:i, :i + 1])
        low_inv[i, i] += 1
        low_inv[i, :i + 1] /= low[i, i]
    upper = np.triu(low_inv.T @ low_inv).astype(float)
    return upper + np.triu(upper, 1).T


class TestInPlaceInverse:
    @pytest.mark.parametrize("h", [
        gue_hamiltonian(2, 5),
        gue_hamiltonian(5, 5),
        gue_hamiltonian(8, 5),
        gue_hamiltonian(12, 5),  # 144 rows: a full block and a ragged one
        rydberg_chain(1, 1),
        rydberg_chain(3, 1),
        rydberg_chain(4, 1),
        rydberg_chain(5, 1),
    ], ids=["gue2", "gue5", "gue8", "gue12", "rydberg1", "rydberg3",
            "rydberg4", "rydberg5"])
    def test_matches_lu(self, h):
        r, col_sums = _window_superoperator(h, uniform_window(2.0, 22.0))
        # the premise of the Cholesky inverse: W R is symmetric positive
        # definite
        wr = _packed_weights(h.dim)[:, None] * r
        np.testing.assert_allclose(wr, wr.T, rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(wr)[0] > 0
        fin = finite_time_choi(h, uniform_window(2.0, 22.0))
        lu = np.linalg.inv(r)
        tol = 1e-15 * fin.condition_number
        eye = np.eye(len(r))
        assert np.abs(fin.packed_inverse @ r - eye).max() <= tol
        assert np.abs(fin.packed_inverse - lu).max() <= tol * np.abs(lu).max()
        assert fin.condition_number == pytest.approx(
            col_sums.max() * _inverse_one_norm(lu), rel=tol)

    @pytest.mark.parametrize("n", [1, 5, 95, 96, 97, 200, 300])
    def test_inverts_spd_from_upper_triangle(self, n):
        g = np.random.default_rng(n)
        x = g.normal(size=(n, n))
        s = x @ x.T + n * np.eye(n)
        a = s.copy()
        a[np.tril_indices(n, -1)] = np.nan  # never read
        _invert_spd_in_place(a)
        assert np.array_equal(a, a.T)
        lu = np.linalg.inv(s)
        assert np.abs(a - lu).max() <= 1e-13 * np.abs(lu).max()

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_mirror_copies_upper_triangle(self, n):
        # n = d^2 at d = 8, 32 and 64, against the mirror in INVERSE_BLOCK
        # steps that symmetrized each diagonal block by a sum
        a = np.random.default_rng(n).normal(size=(n, n))
        a[np.tril_indices(n, -1)] = np.nan  # never read
        expected = a.copy()
        for k0 in range(0, n, INVERSE_BLOCK):
            k = slice(k0, min(k0 + INVERSE_BLOCK, n))
            expected[k.stop:, k] = expected[k, k.stop:].T
            expected[k, k] = np.triu(expected[k, k]) + np.triu(expected[k, k], 1).T
        _mirror_upper(a)
        np.testing.assert_array_equal(a, expected)

    @pytest.mark.parametrize("n, inverse_block, mirror_block", [
        (64, None, None), (1024, None, None), (200, None, None), (23, 7, 5)])
    def test_inverse_does_not_depend_on_mirror_block(self, n, inverse_block,
                                                     mirror_block, monkeypatch):
        if inverse_block is not None:
            monkeypatch.setattr(shadowmap, "INVERSE_BLOCK", inverse_block)
            monkeypatch.setattr(shadowmap, "MIRROR_BLOCK", mirror_block)
        x = np.random.default_rng(n).normal(size=(n, n))
        s = x @ x.T + n * np.eye(n)
        a = s.copy()
        _invert_spd_in_place(a)
        monkeypatch.setattr(shadowmap, "MIRROR_BLOCK", shadowmap.INVERSE_BLOCK)
        _invert_spd_in_place(s)
        np.testing.assert_array_equal(a, s)
        assert np.array_equal(a.view(np.uint64), s.view(np.uint64))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference needs an extended long double")
    def test_fig4b_estimates_match_refined_inverse(self):
        # the reference inverse: an unblocked Cholesky inverse of S = W R in
        # long double, so it does not depend on the inverse under test, and
        # symmetric, so it is in the form the apply path reads half of.
        # Relative gaps of the GHZ fidelity on dt = 5, 10 and 20 us, with
        # 1 | 2 BLAS threads: 9.1e-11 | 9.1e-11, 5.1e-10 | 5.1e-10,
        # 1.2e-10 | 1.2e-10. The LU inverse refined in long double, which
        # this reference replaced, is accurate on one side only: made
        # symmetric by the mean of R^-1 / w and its transpose, its own
        # estimates moved by up to 2.8e-8. A rounding change of the
        # reference alone moves the estimates by about 1e-10.
        h = cli._rydberg_setup(4, 7)
        rho = ghz_state(4)
        fidelity = Observable(rho, name="fidelity")
        w = _packed_weights(h.dim)
        gaps = []
        for dt in (5.0, 10.0, 20.0):
            tm = TimeModel("uniform-window", t_min=2.0, t_max=2.0 + dt)
            inv = build_inverter(h, mode="finite-time", t_min=tm.t_min,
                                 t_max=tm.t_max)
            s = w[:, None] * _window_superoperator(h, tm)[0]
            x = long_double_spd_inverse(s) * w
            refined = replace(inv, finite=FiniteTimeChoi(x, inv.finite.condition_number))
            snaps = run_batch(h, rho, tm, 4000, 7)
            value = estimate_linear(inv, snaps, fidelity).value
            exact = estimate_linear(refined, snaps, fidelity).value
            gaps.append(abs(value - exact) / abs(exact))
        assert max(gaps) <= 1.2e-9, gaps

    @pytest.mark.parametrize("chain", list(LU_VERDICTS))
    def test_verdicts_match_lu(self, chain):
        h = rydberg_chain(*chain)
        for window, cond in zip(RYDBERG_WINDOWS, LU_VERDICTS[chain]):
            if cond is None:
                with pytest.raises(np.linalg.LinAlgError):
                    finite_time_choi(h, uniform_window(*window))
            else:
                assert finite_time_choi(h, uniform_window(*window)).condition_number == \
                    pytest.approx(cond, rel=2e-4)

    @pytest.mark.parametrize("chain", [c for c, conds in LU_VERDICTS.items()
                                       if any(conds)])
    def test_one_norm_matches_oracle(self, chain):
        h = rydberg_chain(*chain)
        for window, cond in zip(RYDBERG_WINDOWS, LU_VERDICTS[chain]):
            if cond is not None:
                fin = finite_time_choi(h, uniform_window(*window))
                col_sums = _window_superoperator(h, uniform_window(*window))[1]
                assert fin.condition_number == pytest.approx(
                    col_sums.max() * inverse_one_norm_by_columns(fin.packed_inverse),
                    rel=1e-13)

    def test_selfcheck_chain_refused(self):
        # bench/selfcheck.py's wrong-window chain
        with pytest.raises(np.linalg.LinAlgError, match=r"cond=2\.69\de\+12"):
            finite_time_choi(rydberg_chain(4, 3), uniform_window(2.0, 4.0))


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
        out = apply_n_inverse(inv, sigma)
        np.testing.assert_allclose(out, ref, rtol=0, atol=tol)
        # the inverse is its own adjoint, so it also gives A-tilde
        np.testing.assert_allclose(out, ref_adj, rtol=0, atol=tol)

    # random real maps on packed coordinates, not symmetric under any
    # weighting; d = 1 has no pair of columns and d = 12 a ragged last
    # block. Diagonal columns scaled by 0.1 make the largest complex column
    # one of the (Y_pq -+ i Y_qp)/2, scaled by 10 one of the Y_pp.
    @pytest.mark.parametrize("diagonal_scale", [0.1, 10.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 12])
    def test_inverse_one_norm_is_the_complex_one_norm(self, d, diagonal_scale):
        m = np.random.default_rng(43).normal(size=(d * d, d * d))
        m[:, np.eye(d, dtype=bool).reshape(-1)] *= diagonal_scale
        units = np.eye(d * d, dtype=complex).reshape(-1, d, d)
        dense = apply_packed_dense(m, units).reshape(d * d, -1).T
        norm = _inverse_one_norm(m)
        assert norm == pytest.approx(np.linalg.norm(dense, 1), rel=1e-13)
        assert norm == pytest.approx(inverse_one_norm_by_columns(m), rel=1e-13)

    def test_packing_tables_are_cached_and_read_only(self):
        tables = _packing(5)
        assert _packing(5) is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_build_memory_bounded(self):
        h = gue_hamiltonian(16, 5)
        tracemalloc.start()
        try:
            finite_time_choi(h, uniform_window(2.0, 22.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the complex-inverse build peaked at 5.9 MB; G alone is
        # 16**4 * 16 B = 1.0 MB, and R and R^-1 0.5 MB each
        assert peak < 4.5e6

    def test_window_build_forms_no_complex_superoperator(self):
        # R is 32**4 * 8 B = 8.4 MB; a complex G would add 16.8 MB
        h = rydberg_hamiltonian(RydbergParams(random_positions(5, seed=1)))
        tracemalloc.start()
        try:
            r, _ = _window_superoperator(h, uniform_window(2.0, 22.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * r.nbytes

    def test_build_holds_one_superoperator(self):
        # R is inverted in place: an LU inverse beside R peaked at 18.2 MB,
        # 2.17 R, here
        h = rydberg_chain(5, 1)
        tracemalloc.start()
        try:
            fin = finite_time_choi(h, uniform_window(2.0, 22.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * fin.packed_inverse.nbytes


MODES = ["ideal", "finite-time", "pseudo-inverse"]


# window inverters on [2, 22] us, by d: GUE spectra at d = 2, 4 and 8, and
# the 3- and 5-atom chains at d = 8 and 32
WINDOW_CASES = {
    "gue-d2": (gue_hamiltonian, 2, 5),
    "gue-d4": (gue_hamiltonian, 4, 5),
    "gue-d8": (gue_hamiltonian, 8, 1),
    "chain-d8": (rydberg_chain, 3, 1),
    "chain-d32": (rydberg_chain, 5, 1),
}


@functools.lru_cache(maxsize=None)
def window_inverter(case):
    build, size, seed = WINDOW_CASES[case]
    h = build(size, seed)
    return build_inverter(h, mode="finite-time", t_min=2.0, t_max=22.0)


def packed_rows(d, shape, seed):
    """Packed Hermitian halves of a complex d x d matrix or stack, as rows."""
    g = np.random.default_rng(seed)
    sigma = g.normal(size=(*shape, d, d)) + 1j * g.normal(size=(*shape, d, d))
    return sigma, _packed_halves(sigma).reshape(-1, d * d)


def product_bound(x, m):
    """Entrywise bound on the gap of two computed x @ m.T: each is within
    n eps |x| |m|^T of the exact product, and the w rescalings are exact."""
    n = len(m)
    return 2 * n * np.finfo(float).eps * (np.abs(x) @ np.abs(m).T)


class TestSymmetricHalfRead:
    # up to d = 8 (n = 64) the default is one block, the full product; 3-row
    # blocks split every case, with a ragged last block
    @pytest.mark.parametrize("block", [None, 3])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    def test_matches_full_product(self, case, shape, block, monkeypatch):
        inv = window_inverter(case)
        m = inv.finite.packed_inverse
        if block:
            monkeypatch.setattr(shadowmap, "MIRROR_BLOCK", block)
        sigma, x = packed_rows(inv.dim, shape, 50)
        half = _symmetric_half_product(m, x)
        bound = product_bound(x, m)
        assert np.all(np.abs(half - x @ m.T) <= bound)
        # and through the complex apply path, on one matrix and on stacks
        out = apply_n_inverse(inv, sigma)
        assert out.shape == sigma.shape
        np.testing.assert_allclose(out, apply_packed_dense(m, sigma), rtol=0,
                                   atol=2 * bound.max())

    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    def test_inverse_is_symmetric_under_weights(self, case):
        # (R^-1 / w)^T == R^-1 / w bit for bit, which the half read needs
        inv = window_inverter(case)
        s = inv.finite.packed_inverse / _packed_weights(inv.dim)
        np.testing.assert_array_equal(s.view(np.uint64), s.T.view(np.uint64))

    @pytest.mark.parametrize("case", ["gue-d4", "chain-d32"])
    def test_lower_triangle_is_not_read(self, case, monkeypatch):
        # NaN below the diagonal blocks leaves every bit of the result; in
        # blocks of one row that is the whole strictly lower triangle
        m = window_inverter(case).finite.packed_inverse
        _, x = packed_rows(window_inverter(case).dim, (2,), 51)
        n = len(m)
        for block in (shadowmap.MIRROR_BLOCK, 1):
            monkeypatch.setattr(shadowmap, "MIRROR_BLOCK", block)
            row_block = np.arange(n) // block
            poisoned = m.copy()
            poisoned[row_block[:, None] > row_block[None, :]] = np.nan
            np.testing.assert_array_equal(_symmetric_half_product(poisoned, x),
                                          _symmetric_half_product(m, x))

    @pytest.mark.parametrize("case", ["gue-d8", "chain-d32"])
    def test_block_sizes_agree(self, case, monkeypatch):
        m = window_inverter(case).finite.packed_inverse
        _, x = packed_rows(window_inverter(case).dim, (3,), 52)
        bound = product_bound(x, m)
        results = {}
        for block in (1, 7, len(m)):
            monkeypatch.setattr(shadowmap, "MIRROR_BLOCK", block)
            results[block] = _symmetric_half_product(m, x)
        # one block of all n rows is the full product itself
        np.testing.assert_array_equal(results[len(m)], x @ m.T)
        for block in (1, 7):
            assert np.all(np.abs(results[block] - results[len(m)]) <= bound)

    def test_purity_sum_is_one_application(self, monkeypatch):
        # S = N^-1(Z^dag Z) by one half read, not a sum over the rows; Z^dag Z
        # is summed over the 100-row blocks of the per-shot GEMM
        monkeypatch.setattr(shadowmap, "PACKED_BLOCK_ENTRIES", 100 * 64)
        inv = window_inverter("chain-d8")
        g = np.random.default_rng(53)
        z = g.normal(size=(300, 8)) + 1j * g.normal(size=(300, 8))
        s, _ = inverted_snapshot_moments(inv, z)
        gram = sum(z[k:k + 100].conj().T @ z[k:k + 100] for k in (0, 100, 200))
        np.testing.assert_array_equal(s, apply_n_inverse(inv, gram))
        rows = apply_packed_dense(inv.finite.packed_inverse,
                                  np.conj(z)[:, :, None] * z[:, None, :])
        np.testing.assert_allclose(s, rows.sum(axis=0), rtol=0,
                                   atol=1e-12 * np.abs(s).max())


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


def masked_inverter():
    """The pseudo-inverse of V = H (x) I: X_H = (J/2) (x) I, zero on the
    off-diagonals (0, 1) and (2, 3), 1/2 on (0, 2) and (1, 3)."""
    v = np.kron(hadamard_basis(1), np.eye(2))
    return build_inverter(hamiltonian_from_unitary(v), mode="pseudo-inverse")


class TestRecoveredEntries:
    @pytest.mark.parametrize("mode", MODES + ["masked"])
    def test_stored_elementwise_map(self, mode):
        # D is X_mn on the recovered off-diagonals and inf elsewhere; M is
        # X_H^-1 in ideal mode and 0 in pseudo-inverse mode
        inv = masked_inverter() if mode == "masked" else inverter_in_mode(mode)
        if mode == "finite-time":
            assert inv.divisor is None and inv.diagonal_map is None
            return
        off = inv.recovered & ~np.eye(4, dtype=bool)
        np.testing.assert_array_equal(inv.divisor, np.where(off, inv.x_h, np.inf))
        np.testing.assert_array_equal(
            inv.diagonal_map, np.linalg.inv(inv.x_h) if mode == "ideal"
            else np.zeros((4, 4)))

    def test_record_per_mode(self):
        off = ~np.eye(4, dtype=bool)
        assert inverter_in_mode("ideal").recovered.all()
        assert inverter_in_mode("finite-time").recovered.all()
        np.testing.assert_array_equal(inverter_in_mode("pseudo-inverse").recovered,
                                      off)
        np.testing.assert_array_equal(
            masked_inverter().recovered,
            off & np.kron(np.ones((2, 2)), np.eye(2)).astype(bool))

    @pytest.mark.parametrize("mode", MODES + ["masked"])
    def test_adjoint_pairing_and_dropped_entries(self, mode):
        # every inverse is its own adjoint: Tr(N^-1(A) sigma) = Tr(A N^-1(sigma)),
        # on one matrix and on each matrix of a stack
        inv = masked_inverter() if mode == "masked" else inverter_in_mode(mode)
        g = np.random.default_rng(43)
        sigma, a = g.normal(size=(2, 4, 4)) + 1j * g.normal(size=(2, 4, 4))
        a = np.where(inv.recovered, a, 0)  # all a dropped entry lets through
        inv.require_recovered(a)
        out = apply_n_inverse(inv, sigma)
        a_t = apply_n_inverse(inv, a)
        assert np.trace(a_t @ sigma) == pytest.approx(np.trace(a @ out),
                                                      rel=1e-12)
        # zero on exactly the entries the record leaves out
        np.testing.assert_array_equal(out == 0, ~inv.recovered)
        sigmas, a_s = (g.normal(size=(2, 2, 3, 4, 4))
                       + 1j * g.normal(size=(2, 2, 3, 4, 4)))
        a_s = np.where(inv.recovered, a_s, 0)
        inv.require_recovered(a_s)
        pair = "...mn,...nm->..."
        np.testing.assert_allclose(
            np.einsum(pair, apply_n_inverse(inv, a_s), sigmas),
            np.einsum(pair, a_s, apply_n_inverse(inv, sigmas)), rtol=1e-12)

    def test_full_record_reads_no_observable(self):
        # only the pseudo-inverse drops entries; the other modes refuse
        # nothing, so they return before reading a
        assert inverter_in_mode("ideal").recovers_all
        assert inverter_in_mode("finite-time").recovers_all
        assert not inverter_in_mode("pseudo-inverse").recovers_all
        for mode in ("ideal", "finite-time"):
            inverter_in_mode(mode).require_recovered(None)
        with pytest.raises(ValueError, match="zero diagonal"):
            inverter_in_mode("pseudo-inverse").require_recovered(np.eye(4))

    def test_adjoint_names_the_first_dropped_entry(self):
        # an observable is transformed by the inverse only where it vanishes
        # on every entry the inverter drops
        inv = masked_inverter()
        v = inv.hamiltonian.eigenbasis
        a = np.zeros((4, 4), dtype=complex)
        a[2, 3] = a[3, 2] = 1.0
        with pytest.raises(ValueError, match=r"entry \(2, 3\).*X_mn"):
            inv.require_recovered(a)
        with pytest.raises(ValueError, match=r"entry \(2, 3\).*X_mn"):
            transformed_observable(inv, Observable(v @ a @ v.conj().T))
        a[1, 1] = 1e-9
        with pytest.raises(ValueError, match=r"entry \(1, 1\).*zero diagonal"):
            inv.require_recovered(a)
        # a stack is refused on the first entry any of its matrices needs
        with pytest.raises(ValueError, match=r"entry \(1, 1\)"):
            inv.require_recovered(np.stack([np.zeros((4, 4)), a]))
        # below the 1e-10 tolerance a dropped entry is taken as zero
        a[1, 1] = a[2, 3] = a[3, 2] = 1e-11
        inv.require_recovered(a)


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
