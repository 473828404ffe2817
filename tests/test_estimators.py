import math
import re
import tracemalloc

import numpy as np
import pytest

from hamshadow import estimators, shadowmap
from hamshadow.estimators import (
    EstimateReport,
    Observable,
    estimate_linear,
    estimate_nonlinear,
    estimate_purity,
    median_of_means,
    snapshot_amplitudes,
    snapshot_values,
    transformed_observable,
    wrong_postprocessing_values,
)
from hamshadow.models import (
    ghz_state,
    gue_hamiltonian,
    hadamard_basis,
    hamiltonian_from_unitary,
    pauli_tensor,
    random_hermitian,
    random_pure_state,
)
from hamshadow.qmatrix import SpectralHamiltonian, swap_operator
from hamshadow.sampler import SnapshotSet, run_batch, substream
from hamshadow.times import TimeModel

from haar import baseline_global_shadow, global_shadow_values, haar_unitary
from moments import diagonal_design
from states import exact_average_state, snapshot_states
from superoperators import forward_superoperator


def _is_swap_by_entry_count(m):
    """The SWAP check by complex entry count, kept as the verdict's oracle."""
    d = math.isqrt(m.shape[0])
    i, j = np.indices((d, d))
    return (m.shape == (d * d, d * d) and np.count_nonzero(m) == d * d
            and bool(np.all(m.reshape(d, d, d, d)[i, j, j, i] == 1)))


def _swap_with(d, row, col, value):
    m = swap_operator(d)
    m[row, col] = value
    return m


def _signed_zero_swap(d):
    m = swap_operator(d)
    off = m == 0
    m.real[off] = -0.0
    m.imag[::2] = -0.0
    return m


SWAP_CASES = {
    **{f"swap{d}": (swap_operator(d), True) for d in (1, 2, 3, 4, 5, 8)},
    "negative-zeros": (_signed_zero_swap(3), True),
    "fortran": (np.asfortranarray(_signed_zero_swap(3)), True),
    "transposed": (_signed_zero_swap(3).T, True),
    "real": (swap_operator(3).real.copy(), True),
    "nan-at-zero": (_swap_with(3, 0, 1, np.nan), False),
    "nan-at-one": (_swap_with(3, 1, 3, np.nan), False),
    "subnormal-at-zero": (_swap_with(3, 0, 1, 5e-324), False),
    "imaginary-at-zero": (_swap_with(3, 0, 1, 1e-300j), False),
    "imaginary-at-one": (_swap_with(3, 1, 3, 1 + 1e-300j), False),
    "identity": (np.eye(9, dtype=complex), False),
    "wrong-shape": (swap_operator(3)[:8, :8], False),
}


def make_setup(d=4, hseed=1, rseed=2, shots=400, sseed=3):
    h = gue_hamiltonian(d, hseed)
    inv_ = __import__("hamshadow.shadowmap", fromlist=["build_inverter"])
    inv = inv_.build_inverter(h)
    rho = random_pure_state(d, rseed)
    snaps = run_batch(h, rho, TimeModel("ideal-rdu"), shots, sseed)
    return h, inv, rho, snaps


def mode_setup(mode, shots):
    """Inverter and snapshots of a d = 4 system in one inverter mode."""
    from hamshadow.shadowmap import build_inverter
    if mode == "ideal":
        h = gue_hamiltonian(4, 1)
        inv = build_inverter(h)
        tm = TimeModel("ideal-rdu")
    elif mode == "finite-time":
        h = gue_hamiltonian(4, 1)
        inv = build_inverter(h, mode=mode, t_min=0.0, t_max=5.0)
        tm = TimeModel("uniform-window", t_min=0.0, t_max=5.0)
    else:
        h = hamiltonian_from_unitary(hadamard_basis(2))
        inv = build_inverter(h, mode=mode)
        tm = TimeModel("ideal-rdu")
    return inv, run_batch(h, random_pure_state(4, 2), tm, shots, 3)


MODES = ["ideal", "finite-time", "pseudo-inverse"]


def block_unitary_hamiltonian(sizes, seed):
    """Eigenbasis of Haar blocks on disjoint basis states: X_H is zero
    between eigenvectors of different blocks."""
    g = np.random.default_rng(seed)
    v = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    start = 0
    for n in sizes:
        q, _ = np.linalg.qr(g.normal(size=(n, n)) + 1j * g.normal(size=(n, n)))
        v[start:start + n, start:start + n] = q
        start += n
    return hamiltonian_from_unitary(v, energies=np.sqrt(np.arange(1, len(v) + 1)))


def closed_form_setup(mode, shots):
    """A d <= 8 inverter in an ideal-phase mode and its snapshots. "masked"
    is a pseudo-inverse whose X_H has zero entries between two blocks."""
    from hamshadow.shadowmap import build_inverter
    if mode == "ideal":
        h = gue_hamiltonian(8, 12)
        inv = build_inverter(h)
    elif mode == "pseudo-inverse":
        h = hamiltonian_from_unitary(hadamard_basis(3))
        inv = build_inverter(h, mode=mode)
    else:
        h = block_unitary_hamiltonian([3, 3], 13)
        inv = build_inverter(h, mode="pseudo-inverse")
        assert np.any(np.abs(inv.x_h) < 1 / shadowmap.SINGULAR_CONDITION)
    rho = random_pure_state(h.dim, 14)
    return inv, run_batch(h, rho, TimeModel("ideal-rdu"), shots, 15)


def purity_or_closed_forms(inv, snaps):
    """(value, std_error) of the purity U-statistic of a d = inv.dim set.

    An inverter that recovers every entry gives them by estimate_nonlinear
    on the SWAP. One that drops entries must refuse the purity, which would
    lose the dropped entries' share with no sign of the bias; for it the
    pair and delete-one sums come from the same closed forms the estimator
    uses (S and Tr rho-hat_k^2 from inverted_snapshot_moments, Tr(rho-hat_k S)
    from the linear fast path on N^-1(S), as every inverse is its own
    adjoint), so they are still checked against the snapshot_states stack."""
    swap = Observable(swap_operator(inv.dim), copies=2)
    if inv.recovered.all():
        rep = estimate_nonlinear(inv, snaps, swap)
        return rep.value, rep.std_error
    with pytest.raises(ValueError, match="the purity needs all of them"):
        estimate_purity(inv, snaps)
    with pytest.raises(ValueError, match="the purity needs all of them"):
        estimate_nonlinear(inv, snaps, swap)
    z = snapshot_amplitudes(inv, snaps)
    k = len(z)
    s, tr_sq = shadowmap.inverted_snapshot_moments(inv, z)
    inv.require_recovered(s)  # S vanishes on every dropped entry
    cross = estimators._quadratic_values(z, shadowmap.apply_n_inverse(inv, s))
    off = (np.trace(s @ s) - tr_sq.sum()).real
    if k == 2:
        return off / 2, 0.0
    loo = (off - 2 * (cross - tr_sq)) / ((k - 1) * (k - 2))
    return off / (k * (k - 1)), np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2))


class TestObservableType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Observable(np.array([[0, 1], [0, 0]]))

    def test_rejects_bad_copies(self):
        with pytest.raises(ValueError):
            Observable(np.eye(2), copies=3)

    @pytest.mark.parametrize("m", [np.array(1.0), np.ones(3), np.ones((2, 3)),
                                   np.ones((2, 2, 2))], ids=lambda m: str(m.shape))
    @pytest.mark.parametrize("copies", [1, 2])
    def test_rejects_non_square_matrix(self, m, copies):
        with pytest.raises(ValueError, match=re.escape(f"not of shape {m.shape}")):
            Observable(m, copies=copies)

    def test_rejects_empty_observable(self):
        with pytest.raises(ValueError, match="observable O is an empty 0 x 0"):
            Observable(np.zeros((0, 0)))

    def test_rejects_empty_swap(self):
        # a 0 x 0 matrix would pass the SWAP check as the SWAP of d = 0
        with pytest.raises(ValueError, match="observable SWAP is an empty 0 x 0"):
            Observable(np.zeros((0, 0)), copies=2, name="SWAP")

    def test_only_exact_swap_accepted(self):
        assert Observable(swap_operator(3), copies=2).copies == 2
        near = swap_operator(3)
        near[0, 1] = 1e-13
        with pytest.raises(ValueError):
            Observable(near, copies=2)
        with pytest.raises(ValueError):
            Observable(swap_operator(3)[:8, :8], copies=2)

    @pytest.mark.parametrize("m, accepted", SWAP_CASES.values(), ids=SWAP_CASES.keys())
    def test_swap_verdict_matches_entry_count(self, m, accepted):
        assert estimators._is_swap(m) == _is_swap_by_entry_count(m) == accepted
        if accepted:
            assert Observable(m, copies=2).copies == 2
        else:
            with pytest.raises(ValueError):
                Observable(m, copies=2)

    def test_canonical_swap_counts_words_only(self, monkeypatch):
        counted = []
        count = np.count_nonzero

        def recording(a, *args, **kwargs):
            counted.append(np.asarray(a).dtype)
            return count(a, *args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", recording)
        assert estimators._is_swap(swap_operator(4))
        assert counted == [np.dtype(np.uint64)]

    def test_swap_check_allocates_no_d4_array(self):
        # beside the 1 MB SWAP of d = 16 the check makes only d^2-entry
        # index and gather arrays (16 KB in all); a boolean mask of the
        # entries would be 64 KB and a copy of the matrix 1 MB
        s = swap_operator(16)
        tracemalloc.start()
        try:
            Observable(s, copies=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.nbytes / 32

    def test_report_rejects_negative_error(self):
        with pytest.raises(ValueError):
            EstimateReport(1.0, -0.1, 10, "mean")


class TestLinear:
    def test_identity_always_one(self):
        _, inv, _, snaps = make_setup()
        vals = snapshot_values(inv, snaps, Observable(np.eye(4)))
        assert np.max(np.abs(vals - 1)) < 1e-12
        rep = estimate_linear(inv, snaps, Observable(np.eye(4)))
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.std_error < 1e-12

    @pytest.mark.parametrize("mode", ["ideal", "finite-time"])
    def test_row_blocks_match_one_pass(self, mode, monkeypatch):
        # phase columns (ideal) and time columns (window) at d = 4, 100 rows:
        # the smallest blocks (one gather row, two GEMM rows), 3 rows per
        # block with a lone last row, the default blocks, and one block of
        # all 100 rows. Each set is made after the patch, so the one gather
        # it keeps is blocked.
        for entries in (1, 12, None, 400):
            with monkeypatch.context() as m:
                if entries is not None:
                    m.setattr(estimators, "GATHER_BLOCK_ENTRIES", entries)
                    m.setattr(estimators, "ROW_BLOCK_ENTRIES", entries)
                inv, snaps = mode_setup(mode, 100)
                h = inv.hamiltonian
                o = Observable(random_hermitian(4, 10))
                phases = snaps.phases if snaps.times is None \
                    else -np.outer(snaps.times, h.energies)
                z = h.eigenbasis[snaps.bits] * np.exp(1j * phases)
                w = z @ transformed_observable(inv, o)
                ref = np.einsum("kj,kj->k", w.view(float), z.view(float))
                np.testing.assert_array_equal(snapshot_amplitudes(inv, snaps), z)
                np.testing.assert_array_equal(snapshot_values(inv, snaps, o), ref)

    @pytest.mark.parametrize("d,k", [(16, 33), (32, 7), (64, 2)])
    @pytest.mark.parametrize("entries", [1, 2**5, 2**9, None])
    def test_lone_row_has_one_pass_bits(self, d, k, entries, monkeypatch):
        # numpy hands a one-row product to gemv, which can sum in another
        # order than gemm (OpenBLAS does at d = 16 to 64); a block of one
        # row must not reach it
        g = np.random.default_rng(d)
        z = g.normal(size=(k, d)) + 1j * g.normal(size=(k, d))
        b = random_hermitian(d, 11)
        w = z @ b
        ref = np.einsum("kj,kj->k", w.view(float), z.view(float))
        if entries is not None:
            monkeypatch.setattr(estimators, "ROW_BLOCK_ENTRIES", entries * d)
        np.testing.assert_array_equal(estimators._quadratic_values(z, b), ref)

    def test_values_memory_beside_z(self):
        # Z of 50 000 rows at d = 16 is 12.8 MB; a K x d temporary would
        # add as much again, while one GEMM block is 0.5 MB
        h = gue_hamiltonian(16, 5)
        from hamshadow.shadowmap import build_inverter
        inv = build_inverter(h)
        snaps = run_batch(h, random_pure_state(16, 6), TimeModel("ideal-rdu"),
                          50_000, 7)
        assert snapshot_amplitudes(inv, snaps).nbytes == 12_800_000
        o = Observable(random_hermitian(16, 8))
        tracemalloc.start()
        try:
            snapshot_values(inv, snaps, o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the values are 0.4 MB
        assert peak < 3e6

    def test_fast_path_equals_explicit_states(self):
        _, inv, _, snaps = make_setup()
        o = Observable(random_hermitian(4, 9))
        fast = snapshot_values(inv, snaps, o)
        rhos = snapshot_states(inv, snaps)
        slow = np.einsum("kmn,nm->k", rhos, o.matrix).real
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("mode", ["finite-time", "pseudo-inverse"])
    def test_fast_path_equals_explicit_states_in_mode(self, mode):
        inv, snaps = mode_setup(mode, 400)
        if mode == "finite-time":
            o = Observable(random_hermitian(4, 9))
        else:
            v = hadamard_basis(2)
            # zero diagonal in the eigenframe, as the pseudo-inverse needs
            o = Observable(v @ pauli_tensor("XY") @ v.conj().T)
        fast = snapshot_values(inv, snaps, o)
        rhos = snapshot_states(inv, snaps)
        slow = np.einsum("kmn,nm->k", rhos, o.matrix).real
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("mode", MODES)
    def test_set_and_row_list_agree(self, mode):
        # ideal and pseudo-inverse data carry phase columns, finite-time a
        # time column; the row view must give the same arrays as the set
        inv, snaps = mode_setup(mode, 50)
        rows = snaps.snapshots
        v = hadamard_basis(2)
        # zero diagonal in the eigenframe, as the pseudo-inverse needs
        o = Observable(v @ pauli_tensor("XY") @ v.conj().T)
        np.testing.assert_array_equal(snapshot_amplitudes(inv, snaps),
                                      snapshot_amplitudes(inv, rows))
        np.testing.assert_array_equal(snapshot_values(inv, snaps, o),
                                      snapshot_values(inv, rows, o))
        np.testing.assert_array_equal(snapshot_states(inv, snaps),
                                      snapshot_states(inv, rows))

    def test_linearity_per_snapshot(self):
        _, inv, _, snaps = make_setup()
        o1 = Observable(random_hermitian(4, 10))
        o2 = Observable(random_hermitian(4, 11))
        combo = Observable(0.7 * o1.matrix + 1.3 * o2.matrix)
        v1 = snapshot_values(inv, snaps, o1)
        v2 = snapshot_values(inv, snaps, o2)
        vc = snapshot_values(inv, snaps, combo)
        np.testing.assert_allclose(vc, 0.7 * v1 + 1.3 * v2, atol=1e-10)

    def test_design_exact_expectation_matches_truth(self):
        # deterministic unbiasedness: full enumeration, no sampling
        for d, seed in [(2, 0), (4, 1)]:
            h = gue_hamiltonian(d, seed)
            from hamshadow.shadowmap import build_inverter
            inv = build_inverter(h)
            rho = random_pure_state(d, seed + 5)
            o = Observable(random_hermitian(d, seed + 6))
            des = diagonal_design(2, d)
            o_t = transformed_observable(inv, o)
            v = h.eigenbasis
            rho_h = v.conj().T @ rho @ v
            total = 0.0
            for phi in des.enumerate_phases():
                z = v * np.exp(1j * phi)[None, :]
                p = np.einsum("bm,mn,bn->b", z, rho_h, z.conj()).real
                vals = np.einsum("bm,mn,bn->b", z, o_t, z.conj()).real
                total += np.sum(p * vals)
            total /= des.size
            truth = np.trace(o.matrix @ rho).real
            assert abs(total - truth) < 1e-9

    def test_statistical_unbiasedness_ghz(self):
        h = gue_hamiltonian(8, 6)
        from hamshadow.shadowmap import build_inverter
        inv = build_inverter(h)
        rho = ghz_state(3)
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 20000, 7)
        rep = estimate_linear(inv, snaps, Observable(rho, name="fid"))
        assert abs(rep.value - 1.0) <= 3 * rep.std_error

    def test_pseudo_inverse_guard(self):
        from hamshadow.shadowmap import build_inverter
        v = hadamard_basis(2)
        inv = build_inverter(hamiltonian_from_unitary(v), mode="pseudo-inverse")
        # eigenframe-diagonal observable is not recoverable
        bad = Observable(v @ np.diag([1.0, -1, 1, -1]).astype(complex) @ v.conj().T)
        with pytest.raises(ValueError, match="zero diagonal"):
            transformed_observable(inv, bad)
        # zero-diagonal observable in the eigenframe is accepted
        ok = Observable(v @ pauli_tensor("XX") @ v.conj().T)
        transformed_observable(inv, ok)

    def test_pseudo_inverse_refuses_dropped_offdiagonals(self):
        # V = H (x) I has X_mn = 0 on (0, 1) and (2, 3), where the
        # eigenframe I (x) X lives: the estimate read 0.0 +- 0.0, not 1
        from hamshadow.shadowmap import build_inverter
        v = np.kron(hadamard_basis(1), np.eye(2))
        h = hamiltonian_from_unitary(v)
        inv = build_inverter(h, mode="pseudo-inverse")
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        psi = np.kron([1.0, 0.0], plus)
        snaps = run_batch(h, np.outer(psi, psi), TimeModel("ideal-rdu"),
                          20000, 3)
        with pytest.raises(ValueError, match=r"entry \(0, 1\)"):
            estimate_linear(inv, snaps, Observable(pauli_tensor("IX")))
        # Z (x) I is X (x) I in the eigenframe, on entries with X_mn = 1/2
        rep = estimate_linear(inv, snaps, Observable(pauli_tensor("ZI")))
        assert abs(rep.value - 1.0) <= 3 * rep.std_error


def count_gathers(monkeypatch) -> list:
    """Patch the amplitude gather to record each call; returns the record."""
    calls = []
    gather = estimators._gather_amplitudes

    def counted(h, snaps):
        calls.append(h)
        return gather(h, snaps)

    monkeypatch.setattr(estimators, "_gather_amplitudes", counted)
    return calls


def fresh_copy(snaps: SnapshotSet) -> SnapshotSet:
    return SnapshotSet(snaps.bits, snaps.hamiltonian_fingerprint, snaps.seed,
                       snaps.time_model, times=snaps.times, phases=snaps.phases)


class TestAmplitudeReuse:
    @pytest.mark.parametrize("mode", MODES)
    def test_one_gather_per_set(self, mode, monkeypatch):
        calls = count_gathers(monkeypatch)
        inv, snaps = mode_setup(mode, 50)
        v = hadamard_basis(2)
        for labels in ("XY", "YX", "XZ"):
            estimate_linear(inv, snaps,
                            Observable(v @ pauli_tensor(labels) @ v.conj().T))
        if inv.recovered.all():  # the pseudo-inverse refuses the purity
            estimate_purity(inv, snaps)
        assert len(calls) == 1

    def test_other_hamiltonian_object_gathers_again(self, monkeypatch):
        calls = count_gathers(monkeypatch)
        h, inv, _, snaps = make_setup()
        # equal arrays, another object: the slot is keyed by identity
        twin = shadowmap.build_inverter(SpectralHamiltonian(h.energies,
                                                            h.eigenbasis))
        z = snapshot_amplitudes(inv, snaps)
        z_twin = snapshot_amplitudes(twin, snaps)
        assert z_twin is not z
        np.testing.assert_array_equal(z_twin, z)
        # the twin replaced the slot, so the first Hamiltonian gathers again
        assert snapshot_amplitudes(inv, snaps) is not z
        assert [c is h for c in calls] == [True, False, True]
        assert snapshot_amplitudes(inv, snaps) is snapshot_amplitudes(inv, snaps)
        assert len(calls) == 3

    def test_hamiltonian_cannot_be_rewritten_under_a_kept_gather(self):
        # reversing the eigenbasis columns in place after a gather left the
        # set serving the old Z for the rewritten Hamiltonian
        h, inv, _, snaps = make_setup(shots=20)
        z = snapshot_amplitudes(inv, snaps).copy()
        with pytest.raises(ValueError):
            h.eigenbasis[:] = h.eigenbasis[:, ::-1]
        np.testing.assert_array_equal(snapshot_amplitudes(inv, fresh_copy(snaps)), z)

    def test_row_list_is_not_cached(self, monkeypatch):
        calls = count_gathers(monkeypatch)
        _, inv, _, snaps = make_setup(shots=20)
        rows = snaps.snapshots
        a = snapshot_amplitudes(inv, rows)
        b = snapshot_amplitudes(inv, rows)
        assert a is not b and len(calls) == 2
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("view", ["set", "rows"])
    def test_amplitudes_are_read_only(self, view):
        _, inv, _, snaps = make_setup(shots=20)
        z = snapshot_amplitudes(inv, snaps if view == "set" else snaps.snapshots)
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0, 0] = 0

    @pytest.mark.parametrize("mode", MODES)
    def test_reused_amplitudes_give_the_same_bits(self, mode):
        inv, snaps = mode_setup(mode, 200)
        v = hadamard_basis(2)
        # zero diagonal in the eigenframe, as the pseudo-inverse needs
        obs = [Observable(v @ pauli_tensor(labels) @ v.conj().T)
               for labels in ("XY", "YX")]

        def reports(s):
            # the pseudo-inverse refuses the purity
            purity = [estimate_purity(inv, s)] if inv.recovered.all() else []
            return [estimate_linear(inv, s, o, num_batches=b)
                    for o in obs for b in (1, 4)] + purity

        reports(snaps)  # fills the slot
        for warm, cold in zip(reports(snaps), reports(fresh_copy(snaps))):
            assert (warm.value, warm.std_error) == (cold.value, cold.std_error)


class TestExactAverageState:
    def test_recovers_state_over_design(self):
        for d, seed in [(2, 3), (4, 4)]:
            h = gue_hamiltonian(d, seed)
            from hamshadow.shadowmap import build_inverter
            inv = build_inverter(h)
            rho = random_pure_state(d, seed + 9)
            rec = exact_average_state(inv, rho,
                                      diagonal_design(2, d).enumerate_phases())
            assert np.max(np.abs(rec - rho)) < 1e-9


class TestMedianOfMeans:
    def test_single_batch_is_mean(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        rep = median_of_means(vals, 1)
        assert rep.value == pytest.approx(2.5)
        assert rep.method == "mean"

    def test_constant_input(self):
        rep = median_of_means(np.full(30, 4.2), 5)
        assert rep.value == pytest.approx(4.2)
        assert rep.std_error == 0.0

    def test_remainder_dropped(self):
        rep = median_of_means(np.arange(10.0), 3)
        assert rep.num_snapshots == 9

    def test_robust_on_heavy_tails(self):
        # median-of-means beats the mean on contaminated data most of the time
        wins = 0
        for trial in range(100):
            g = substream(50, trial)
            vals = g.normal(size=300)
            outliers = g.choice(300, size=3, replace=False)
            vals[outliers] += g.normal(scale=80.0, size=3)
            mom = median_of_means(vals, 10).value
            if abs(mom) < abs(vals.mean()):
                wins += 1
        assert wins >= 80

    def test_errors(self):
        with pytest.raises(ValueError):
            median_of_means([], 1)
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0], 5)


class TestNonlinear:
    def test_identity_two_copy_refused(self):
        with pytest.raises(ValueError, match="SWAP"):
            Observable(np.eye(16), copies=2)

    @pytest.mark.parametrize("mode", MODES)
    def test_fast_swap_matches_slow_pair_loop(self, mode):
        inv, snaps = mode_setup(mode, 60)
        value, _ = purity_or_closed_forms(inv, snaps)
        rhos = snapshot_states(inv, snaps)
        k = len(rhos)
        tot = sum(np.trace(rhos[i] @ rhos[j]).real
                  for i in range(k) for j in range(k) if i != j)
        assert value == pytest.approx(tot / (k * (k - 1)), abs=1e-10)

    @pytest.mark.parametrize("mode", MODES)
    def test_jackknife_matches_direct_loo(self, mode):
        inv, snaps = mode_setup(mode, 40)
        _, std_error = purity_or_closed_forms(inv, snaps)
        rhos = snapshot_states(inv, snaps)
        k = len(rhos)
        loo = []
        for i in range(k):
            idx = [j for j in range(k) if j != i]
            tot = sum(np.trace(rhos[a] @ rhos[b]).real
                      for a in idx for b in idx if a != b)
            loo.append(tot / ((k - 1) * (k - 2)))
        loo = np.array(loo)
        se = np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2))
        assert std_error == pytest.approx(se, rel=1e-8)

    def test_blocks_match_one_block(self, monkeypatch):
        inv, snaps = mode_setup("finite-time", 100)
        o = Observable(swap_operator(4), copies=2)
        one = estimate_nonlinear(inv, snaps, o)
        # 16 entries per d = 4 row: 3 rows per block, 34 blocks, packed
        # 2 rows at a time
        monkeypatch.setattr(shadowmap, "PACKED_BLOCK_ENTRIES", 48)
        monkeypatch.setattr(shadowmap, "SIGMA_BLOCK_ENTRIES", 32)
        many = estimate_nonlinear(inv, snaps, o)
        assert many.value == pytest.approx(one.value, rel=1e-12)
        assert many.std_error == pytest.approx(one.std_error, rel=1e-12)

    @pytest.mark.parametrize("mode", ["ideal", "pseudo-inverse", "masked"])
    @pytest.mark.parametrize("k", [2, 3, 40])
    def test_closed_form_matches_brute_stack(self, mode, k):
        # the U-statistic and its delete-one jackknife from the Gram matrix
        # of the per-snapshot estimators of snapshot_states
        inv, snaps = closed_form_setup(mode, k)
        value, std_error = purity_or_closed_forms(inv, snaps)
        rhos = snapshot_states(inv, snaps)
        gram = np.einsum("imn,jnm->ij", rhos, rhos).real
        off = gram.sum() - np.trace(gram)
        assert value == pytest.approx(off / (k * (k - 1)), rel=1e-10)
        if k == 2:
            assert std_error == 0.0
            return
        loo = (off - 2 * (gram.sum(axis=1) - np.diag(gram))) / ((k - 1) * (k - 2))
        se = np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2))
        assert std_error == pytest.approx(se, rel=1e-10)

    @pytest.mark.parametrize("eigenvector", [True, False])
    def test_flat_basis_purity_refused(self, eigenvector):
        # eigenvector 0 of the flat basis gave 0.0017 +- 0.0022 and |00>
        # gave 0.746 +- 0.031; both states are pure
        from hamshadow.shadowmap import build_inverter
        v = hadamard_basis(2)
        h = hamiltonian_from_unitary(v)
        inv = build_inverter(h, mode="pseudo-inverse")
        psi = v[:, 0] if eigenvector else np.eye(4)[0]
        snaps = run_batch(h, np.outer(psi, psi.conj()), TimeModel("ideal-rdu"),
                          4000, 3)
        with pytest.raises(ValueError, match="recovers 12 of the 16"):
            estimate_purity(inv, snaps)

    @pytest.mark.parametrize("mode", ["ideal", "pseudo-inverse", "masked"])
    def test_closed_form_moments_match_brute_stack(self, mode):
        inv, snaps = closed_form_setup(mode, 40)
        z = snapshot_amplitudes(inv, snaps)
        s, tr_sq = shadowmap.inverted_snapshot_moments(inv, z)
        rhos = shadowmap.apply_n_inverse(inv, shadowmap.snapshot_sigmas(z))
        np.testing.assert_allclose(s, rhos.sum(axis=0), rtol=0,
                                   atol=1e-12 * np.max(np.abs(s)))
        np.testing.assert_allclose(tr_sq, np.einsum("kmn,knm->k", rhos, rhos).real,
                                   rtol=1e-12)

    def test_finite_time_purity_matches_complex_inverse(self):
        from hamshadow.shadowmap import build_inverter
        h = gue_hamiltonian(8, 3)
        inv = build_inverter(h, mode="finite-time", t_min=2.0, t_max=22.0)
        snaps = run_batch(h, random_pure_state(8, 4),
                          TimeModel("uniform-window", t_min=2.0, t_max=22.0),
                          500, 7)
        rep = estimate_purity(inv, snaps)
        # U-statistic from the complex rho-hat_k of the complex inverse
        z = snapshot_amplitudes(inv, snaps)
        k = len(z)
        sig = (z.conj()[:, :, None] * z[:, None, :]).reshape(k, 64)
        rhos = (sig @ np.linalg.inv(forward_superoperator(inv)).T).reshape(k, 8, 8)
        s = rhos.sum(axis=0)
        full = np.trace(s @ s).real
        diag = np.einsum("kmn,knm->k", rhos, rhos).real
        cross = np.einsum("kmn,nm->k", rhos, s).real
        value = (full - diag.sum()) / (k * (k - 1))
        loo = (full - 2 * cross + diag - (diag.sum() - diag)) / ((k - 1) * (k - 2))
        se = np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2))
        assert rep.value == pytest.approx(value, rel=1e-10)
        assert rep.std_error == pytest.approx(se, rel=1e-10)

    def test_memory_bounded_by_block(self):
        h, inv, rho, _ = make_setup(d=16)
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 8000, 5)
        o = Observable(swap_operator(16), copies=2)
        tracemalloc.start()
        try:
            estimate_nonlinear(inv, snaps, o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one K x d^2 stack alone would be 8000 * 256 * 16 B = 32.8 MB
        assert peak < 16e6

    def test_finite_time_block_memory(self):
        # d = 16: 1024 rows per PACKED_BLOCK_ENTRIES block, whose packed
        # sigma-hat and rho-hat rows are 2.1 MB each; a complex sigma-hat
        # stack of the block would add 4.2 MB (peak 6.4 MB)
        from hamshadow.shadowmap import build_inverter
        inv = build_inverter(gue_hamiltonian(16, 3), mode="finite-time",
                             t_min=2.0, t_max=22.0)
        g = np.random.default_rng(16)
        z = g.normal(size=(4096, 16)) + 1j * g.normal(size=(4096, 16))
        tracemalloc.start()
        try:
            shadowmap.inverted_snapshot_moments(inv, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_purity_builds_no_swap(self):
        h, inv, rho, _ = make_setup(d=32)
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 200, 6)
        tracemalloc.start()
        try:
            estimate_purity(inv, snaps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense d^2 x d^2 SWAP alone would be 32**4 * 16 B = 16.8 MB
        assert peak < 8e6

    def test_order_invariance(self):
        h, inv, rho, snaps = make_setup(shots=30)
        rev = list(reversed(snaps.snapshots))
        a = estimate_nonlinear(inv, snaps, Observable(swap_operator(4), copies=2))
        b = estimate_nonlinear(inv, rev, Observable(swap_operator(4), copies=2))
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_purity_pure_state(self):
        h, inv, rho, _ = make_setup()
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 20000, 40)
        rep = estimate_purity(inv, snaps)
        assert abs(rep.value - 1.0) <= 3 * rep.std_error

    def test_purity_maximally_mixed(self):
        h, inv, _, _ = make_setup()
        snaps = run_batch(h, np.eye(4) / 4, TimeModel("ideal-rdu"), 20000, 41)
        rep = estimate_purity(inv, snaps)
        assert abs(rep.value - 0.25) <= 3 * rep.std_error

    def test_requires_two_snapshots(self):
        h, inv, rho, _ = make_setup(shots=1)
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 1, 42)
        with pytest.raises(ValueError):
            estimate_nonlinear(inv, snaps, Observable(swap_operator(4), copies=2))


class TestGlobalShadowBaseline:
    def test_unit_trace_identity(self):
        rho = random_pure_state(4, 50)
        vals = global_shadow_values(rho, Observable(np.eye(4)), 200, 51)
        # per-shot estimate of Tr(rho) is exactly (d+1) - d = 1
        assert np.max(np.abs(vals - 1)) < 1e-10

    def test_unbiased_and_bounded_variance(self):
        rho = random_pure_state(4, 52)
        o = Observable(random_hermitian(4, 53))
        o_traceless = Observable(o.matrix - np.trace(o.matrix) / 4 * np.eye(4))
        vals = global_shadow_values(rho, o_traceless, 8000, 54)
        truth = np.trace(o_traceless.matrix @ rho).real
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - truth) <= 4 * se
        var = vals.var(ddof=1)
        var_se = np.std((vals - vals.mean()) ** 2, ddof=1) / np.sqrt(len(vals))
        bound = 3 * np.trace(o_traceless.matrix @ o_traceless.matrix).real
        assert var <= bound + 5 * var_se

    @pytest.mark.parametrize("d", [2, 3, 8, 17])
    def test_haar_draw_matches_scipy(self, d):
        from scipy.stats import unitary_group
        for seed in range(5):
            ours = haar_unitary(d, np.random.default_rng(seed))
            ref = unitary_group.rvs(d, random_state=np.random.default_rng(seed))
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)

    def test_values_pinned(self):
        # the values the scipy Haar draw gave; the numpy draw keeps them
        rho = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
        vals = global_shadow_values(rho, Observable(pauli_tensor("ZZ")), 6, seed=22)
        np.testing.assert_allclose(
            vals, [1.8176162403965521, 0.5046948303559549, 3.19677707664596,
                   -0.48322606067885954, -0.45113598222401785,
                   -1.3507752615066733], rtol=1e-12)

    def test_report_wrapper(self):
        rho = random_pure_state(2, 55)
        rep = baseline_global_shadow(rho, 500, 56, Observable(np.eye(2)))
        assert rep.value == pytest.approx(1.0, abs=1e-10)


class TestWrongPostprocessing:
    def test_biased_on_quench_data(self):
        h = gue_hamiltonian(8, 6)
        from hamshadow.shadowmap import build_inverter
        inv = build_inverter(h)
        rho = ghz_state(3)
        o = Observable(rho, name="fid")
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 20000, 57)
        bad = wrong_postprocessing_values(inv, snaps, o)
        se = bad.std(ddof=1) / np.sqrt(len(bad))
        assert abs(bad.mean() - 1.0) > 5 * se
