import numpy as np
import pytest

from hamshadow.estimators import (
    EstimateReport,
    Observable,
    baseline_global_shadow,
    estimate_linear,
    estimate_nonlinear,
    estimate_purity,
    exact_average_state,
    global_shadow_values,
    median_of_means,
    snapshot_states,
    snapshot_values,
    transformed_observable,
    wrong_postprocessing_values,
    write_reports_csv,
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
from hamshadow.qmatrix import swap_operator
from hamshadow.rdu import diagonal_design
from hamshadow.sampler import TimeModel, run_batch, substream


def make_setup(d=4, hseed=1, rseed=2, shots=400, sseed=3):
    h = gue_hamiltonian(d, hseed)
    inv_ = __import__("hamshadow.shadowmap", fromlist=["build_inverter"])
    inv = inv_.build_inverter(h)
    rho = random_pure_state(d, rseed)
    snaps = run_batch(h, rho, TimeModel("ideal-rdu"), shots, sseed)
    return h, inv, rho, snaps


class TestObservableType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Observable(np.array([[0, 1], [0, 0]]))

    def test_rejects_bad_copies(self):
        with pytest.raises(ValueError):
            Observable(np.eye(2), copies=3)

    def test_report_rejects_negative_error(self):
        with pytest.raises(ValueError):
            EstimateReport(1.0, -0.1, 10, "mean")


class TestLinear:
    def test_identity_always_one(self):
        _, inv, _, snaps = make_setup()
        vals = snapshot_values(inv, snaps.snapshots, Observable(np.eye(4)))
        assert np.max(np.abs(vals - 1)) < 1e-12
        rep = estimate_linear(inv, snaps, Observable(np.eye(4)))
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.std_error < 1e-12

    def test_fast_path_equals_explicit_states(self):
        _, inv, _, snaps = make_setup()
        o = Observable(random_hermitian(4, 9))
        fast = snapshot_values(inv, snaps.snapshots, o)
        rhos = snapshot_states(inv, snaps.snapshots)
        slow = np.einsum("kmn,nm->k", rhos, o.matrix).real
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("mode", ["finite-time", "pseudo-inverse"])
    def test_fast_path_equals_explicit_states_in_mode(self, mode):
        from hamshadow.shadowmap import build_inverter
        if mode == "finite-time":
            h = gue_hamiltonian(4, 1)
            inv = build_inverter(h, mode=mode, t_min=0.0, t_max=5.0)
            tm = TimeModel("uniform-window", t_min=0.0, t_max=5.0)
            o = Observable(random_hermitian(4, 9))
        else:
            v = hadamard_basis(2)
            h = hamiltonian_from_unitary(v)
            inv = build_inverter(h, mode=mode)
            tm = TimeModel("ideal-rdu")
            # zero diagonal in the eigenframe, as the pseudo-inverse needs
            o = Observable(v @ pauli_tensor("XY") @ v.conj().T)
        snaps = run_batch(h, random_pure_state(4, 2), tm, 400, 3)
        fast = snapshot_values(inv, snaps.snapshots, o)
        rhos = snapshot_states(inv, snaps.snapshots)
        slow = np.einsum("kmn,nm->k", rhos, o.matrix).real
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_linearity_per_snapshot(self):
        _, inv, _, snaps = make_setup()
        o1 = Observable(random_hermitian(4, 10))
        o2 = Observable(random_hermitian(4, 11))
        combo = Observable(0.7 * o1.matrix + 1.3 * o2.matrix)
        v1 = snapshot_values(inv, snaps.snapshots, o1)
        v2 = snapshot_values(inv, snaps.snapshots, o2)
        vc = snapshot_values(inv, snaps.snapshots, combo)
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
    def test_identity_two_copy_is_one(self):
        _, inv, _, snaps = make_setup(shots=50)
        rep = estimate_nonlinear(inv, snaps, Observable(np.eye(16), copies=2))
        assert rep.value == pytest.approx(1.0, abs=1e-10)

    def test_fast_swap_matches_slow_pair_loop(self):
        _, inv, _, snaps = make_setup(shots=60)
        rep = estimate_nonlinear(inv, snaps,
                                 Observable(swap_operator(4), copies=2))
        rhos = snapshot_states(inv, snaps.snapshots)
        k = len(rhos)
        tot = sum(np.trace(rhos[i] @ rhos[j]).real
                  for i in range(k) for j in range(k) if i != j)
        assert rep.value == pytest.approx(tot / (k * (k - 1)), abs=1e-10)

    def test_general_two_copy_matches_slow_pair_loop(self):
        _, inv, _, snaps = make_setup(shots=40)
        om = random_hermitian(16, 12)
        rep = estimate_nonlinear(inv, snaps, Observable(om, copies=2))
        rhos = snapshot_states(inv, snaps.snapshots)
        k = len(rhos)
        tot = sum(np.trace(om @ np.kron(rhos[i], rhos[j])).real
                  for i in range(k) for j in range(k) if i != j)
        assert rep.value == pytest.approx(tot / (k * (k - 1)), abs=1e-8)

    def test_jackknife_matches_direct_loo(self):
        _, inv, _, snaps = make_setup(shots=40)
        rep = estimate_nonlinear(inv, snaps,
                                 Observable(swap_operator(4), copies=2))
        rhos = snapshot_states(inv, snaps.snapshots)
        k = len(rhos)
        loo = []
        for i in range(k):
            idx = [j for j in range(k) if j != i]
            tot = sum(np.trace(rhos[a] @ rhos[b]).real
                      for a in idx for b in idx if a != b)
            loo.append(tot / ((k - 1) * (k - 2)))
        loo = np.array(loo)
        se = np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2))
        assert rep.std_error == pytest.approx(se, rel=1e-8)

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


class TestCsv:
    def test_report_rows(self, tmp_path):
        rep = EstimateReport(0.5, 0.01, 100, "mean")
        row = rep.csv_row("obs", 7, "abcd")
        assert row.startswith("obs,0.5,0.01,100,mean,7,abcd")
        p = tmp_path / "r.csv"
        write_reports_csv(p, [row], comment="seed=7")
        text = p.read_text()
        assert text.splitlines()[0] == "# seed=7"
        assert "observable,value" in text.splitlines()[1]
