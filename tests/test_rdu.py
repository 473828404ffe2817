import itertools
import math
import time

import numpy as np
import pytest

from hamshadow import rdu
from hamshadow.models import RydbergParams, random_positions, rydberg_hamiltonian
from hamshadow.rdu import (
    ENERGY_RESOLUTION,
    QUAD_HALF_PHASE,
    QUAD_NODES,
    DegeneracySpec,
    frame_potential_finite_time,
    frame_potential_rdu_exact,
)
from hamshadow.sampler import TimeModel

from moments import (
    DiagonalDesign,
    compositions,
    diagonal_design,
    frame_potential_direct_sum,
    frame_potential_mc_loop,
    multinomial,
    phi2_with_energies,
    phi_k_diagonal,
    rdu_sampler,
    window_sampler,
)


def closed_form_window_fp(spec, k, t_min, t_max):
    """Double multinomial sum with squared sinc weights, the oracle for the
    window frame potential.

    F_k = sum_{a,b} c_a c_b sinc^2((f_a - f_b) D / 2) over compositions a, b
    of k into d parts, c the multinomial coefficients, f_a = a . E and
    D = t_max - t_min.
    """
    comp = compositions(k, len(spec.energies))
    coefs = multinomial(k, comp)
    freq = comp @ spec.energies
    omega = freq[:, None] - freq[None, :]
    w = np.sinc(omega * (t_max - t_min) / (2 * np.pi)) ** 2
    return float(np.sum(coefs[:, None] * coefs[None, :] * w))


def oracle_spectra():
    g = np.random.default_rng(21)
    for d in (2, 3, 4, 7, 8):
        yield f"generic-{d}", g.normal(size=d)
        yield f"degenerate-{d}", np.round(g.uniform(0, 3, size=d))
        yield f"flat-{d}", np.full(d, 0.7)


def chain_energies():
    """The d = 32 spectrum of a 5-atom Rydberg chain."""
    return rydberg_hamiltonian(RydbergParams(random_positions(5, seed=1))).energies


def mc_phase_average(m, k, d, num=20000, seed=0):
    """Monte-Carlo oracle for the k-th moment map of iid uniform phases."""
    g = np.random.default_rng(seed)
    acc = np.zeros_like(m, dtype=complex)
    for _ in range(num):
        phi = g.uniform(0, 2 * np.pi, size=d)
        lam = np.exp(1j * phi)
        lam_k = lam
        for _ in range(k - 1):
            lam_k = np.kron(lam_k, lam)
        acc += np.outer(lam_k.conj(), lam_k) * m
    return acc / num


class TestMomentMaps:
    @pytest.mark.parametrize("k,d", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_survival_mask_matches_multiset_rule(self, k, d):
        n = d**k
        m = np.arange(n * n, dtype=complex).reshape(n, n) + 1
        out = phi_k_diagonal(m, k)
        tuples = list(itertools.product(range(d), repeat=k))
        for i, ti in enumerate(tuples):
            for j, tj in enumerate(tuples):
                expected = m[i, j] if sorted(ti) == sorted(tj) else 0.0
                assert out[i, j] == expected

    def test_matches_mc_phase_average(self):
        d, k = 2, 2
        g = np.random.default_rng(3)
        m = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
        exact = phi_k_diagonal(m, k)
        mc = mc_phase_average(m, k, d, num=40000, seed=4)
        assert np.max(np.abs(exact - mc)) < 0.05

    def test_idempotent(self):
        m = np.random.default_rng(5).normal(size=(9, 9)).astype(complex)
        once = phi_k_diagonal(m, 2)
        np.testing.assert_array_equal(phi_k_diagonal(once, 2), once)

    def test_rejects_bad_order_and_shape(self):
        with pytest.raises(ValueError):
            phi_k_diagonal(np.eye(4), 4)
        with pytest.raises(ValueError):
            phi_k_diagonal(np.eye(5), 2)


class TestEnergyAwareSecondMoment:
    def test_generic_energies_reduce_to_ideal(self):
        spec = DegeneracySpec(np.array([0.0, 1.0, np.pi]))
        m = np.random.default_rng(1).normal(size=(9, 9)).astype(complex)
        np.testing.assert_allclose(phi2_with_energies(m, spec),
                                   phi_k_diagonal(m, 2), atol=1e-14)

    def test_degenerate_pair_admits_extra_elements(self):
        spec = DegeneracySpec(np.array([1.0, 1.0, 2.0]))
        m = np.ones((9, 9), dtype=complex)
        out = phi2_with_energies(m, spec)
        # (0,2) vs (1,2): sums equal because E_0 == E_1
        assert out[0 * 3 + 2, 1 * 3 + 2] == 1.0
        ideal = phi_k_diagonal(m, 2)
        assert ideal[0 * 3 + 2, 1 * 3 + 2] == 0.0

    def test_second_order_resonance_detected(self):
        # 0 + 3 == 1 + 2 is a resonance with all energies distinct
        spec = DegeneracySpec(np.array([0.0, 1.0, 2.0, 3.0]))
        res = list(spec.second_order_resonances())
        assert any({a, b} == {0, 3} and {c, e} == {1, 2}
                   or {a, b} == {1, 2} and {c, e} == {0, 3}
                   for a, b, c, e in res)

    def test_no_false_resonances(self):
        spec = DegeneracySpec(np.array([0.0, 1.0, np.e, np.pi]))
        assert list(spec.second_order_resonances()) == []

    @pytest.mark.parametrize("e", [
        [0.0, 1.0, 1.0, 2.0, 3.0, 3.0 + 5e-10, 4.7],
        [2.0, 1.0 + 5e-10, 1.0, 0.5, 2.5 + 1.5e-9, 3.0 + 3e-9],
        np.repeat([0.0, 1.3, 2.6], 3),
    ])
    def test_resonances_match_quadruple_loop(self, e):
        # every pair of index pairs whose energy sums agree within
        # 2 * ENERGY_RESOLUTION, except where both pairs meet the same
        # levels; a level is a run of sorted energies whose neighbours lie
        # within ENERGY_RESOLUTION
        e = np.asarray(e, dtype=float)
        srt = np.sort(e)
        level = [sum(1 for a, b in zip(srt, srt[1:])
                     if b <= x and b - a > ENERGY_RESOLUTION) for x in e]
        pairs = [(i, j) for i in range(len(e)) for j in range(i, len(e))]
        loop = set()
        for p, q in itertools.combinations(pairs, 2):
            if abs((e[p[0]] + e[p[1]]) - (e[q[0]] + e[q[1]])) > \
                    2 * ENERGY_RESOLUTION + 1e-15:
                continue
            if sorted(level[i] for i in p) != sorted(level[i] for i in q):
                loop.add(frozenset([p, q]))
        found = [frozenset([(a1, a2), (b1, b2)]) for a1, a2, b1, b2 in
                 DegeneracySpec(e).second_order_resonances()]
        assert len(found) == len(set(found))
        assert set(found) == loop

    def test_relations_of_degenerate_levels_are_not_resonances(self):
        # three 3-fold levels 0, 1.3, 2.6: 2 E_6 = 2 E_8 and E_6 + E_6 =
        # E_7 + E_8 hold only because levels are degenerate, while
        # 0 + 2.6 = 1.3 + 1.3 is a relation between levels
        res = list(DegeneracySpec(np.repeat([0.0, 1.3, 2.6], 3))
                   .second_order_resonances())
        assert (0, 6, 3, 4) in res
        assert not {(0, 0, 1, 1), (6, 6, 8, 8), (6, 6, 7, 8)} & set(res)
        assert len(res) == 9 * 6  # {0, 2.6} x {1.3, 1.3} index pairs

    def test_flat_spectrum_has_no_resonances_and_returns_at_once(self):
        # one level: nothing to scan, where the index pairs of d = 256
        # would form 5e8 pairs of pairs
        spec = DegeneracySpec(np.full(256, 0.37))
        start = time.perf_counter()
        assert list(spec.second_order_resonances()) == []
        assert time.perf_counter() - start < 0.1


class TestDesigns:
    @pytest.mark.parametrize("k,d", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_design_reproduces_moment_map(self, k, d):
        des = diagonal_design(k, d)
        n = d**k
        m = np.random.default_rng(k + d).normal(size=(n, n)).astype(complex)
        acc = np.zeros_like(m)
        for phi in des.enumerate_phases():
            lam = np.exp(1j * phi)
            lam_k = lam
            for _ in range(k - 1):
                lam_k = np.kron(lam_k, lam)
            acc += np.outer(lam_k.conj(), lam_k) * m
        acc /= des.size
        np.testing.assert_allclose(acc, phi_k_diagonal(m, k), atol=1e-12)

    def test_size_and_guard(self):
        assert diagonal_design(2, 4).size == 81
        big = DiagonalDesign(3, 20)
        assert not big.enumerable
        with pytest.raises(ValueError):
            big.enumerate_phases()

    def test_sample_values_on_grid(self):
        des = diagonal_design(2, 3)
        ph = des.sample(np.random.default_rng(0), 50)
        grid = 2 * np.pi * np.arange(3) / 3
        assert np.all(np.isin(np.round(ph, 12), np.round(grid, 12)))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            diagonal_design(5, 2)


class TestFramePotentials:
    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_closed_forms(self, d):
        # independent polynomial oracle for the multinomial sums
        assert frame_potential_rdu_exact(1, d) == pytest.approx(d)
        assert frame_potential_rdu_exact(2, d) == pytest.approx(2 * d * d - d)
        assert frame_potential_rdu_exact(3, d) == pytest.approx(
            6 * d**3 - 9 * d**2 + 4 * d)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_closed_form_is_the_multinomial_sum(self, k, d):
        ref = float(np.sum(multinomial(k, compositions(k, d)) ** 2))
        assert frame_potential_rdu_exact(k, d) == ref

    def test_rdu_exact_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            frame_potential_rdu_exact(4, 3)
        with pytest.raises(ValueError):
            frame_potential_rdu_exact(2, 0)

    def test_finite_time_exceeds_ideal_and_converges(self):
        spec = DegeneracySpec(np.array([0.0, 1.3, 2.9, 4.1]))
        ideal = frame_potential_rdu_exact(2, 4)
        short = frame_potential_finite_time(spec, 2, 0.0, 1.0)
        long = frame_potential_finite_time(spec, 2, 0.0, 3000.0)
        assert short > ideal
        assert abs(long - ideal) / ideal < 0.05

    def test_finite_time_brute_force_oracle(self):
        # quadrature over the time window for a tiny system
        spec = DegeneracySpec(np.array([0.0, 1.0]))
        t_min, t_max, k = 0.5, 2.5, 2
        val = frame_potential_finite_time(spec, k, t_min, t_max)
        # direct double quadrature of E |Tr(U1^dag U2)|^{2k}
        ts = np.linspace(t_min, t_max, 2001)
        u = np.exp(-1j * np.outer(ts, spec.energies))
        traces = np.einsum("am,bm->ab", u.conj(), u)
        vals = np.abs(traces) ** (2 * k)
        est = np.mean(vals)
        assert abs(val - est) < 0.01

    def test_mc_matches_exact(self):
        for d in (2, 4):
            for k in (1, 2, 3):
                est, err = frame_potential_mc_loop(rdu_sampler(d), k, 2000, seed=7)
                assert abs(est - frame_potential_rdu_exact(k, d)) <= 4 * err

    def test_window_mc_matches_finite_time(self):
        e = np.array([0.0, 1.1, 2.7])
        spec = DegeneracySpec(e)
        exact = frame_potential_finite_time(spec, 2, 0.0, 4.0)
        est, err = frame_potential_mc_loop(window_sampler(e, 0.0, 4.0), 2, 4000,
                                           seed=2)
        assert abs(est - exact) <= 4 * err


class TestWindowQuadrature:
    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.5, 2.5), (0.0, 4.0),
                                        (0.0, 20.0), (2.0, 22.0), (0.0, 3000.0)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_closed_form(self, k, window):
        for name, e in oracle_spectra():
            spec = DegeneracySpec(e)
            ref = closed_form_window_fp(spec, k, *window)
            val = frame_potential_finite_time(spec, k, *window)
            assert val == pytest.approx(ref, rel=1e-12, abs=0), name

    @pytest.mark.parametrize("window", [(0.0, 1.0), (2.0, 22.0), (100.0, 140.0),
                                        (0.0, 3000.0)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_direct_sum(self, k, window):
        spectra = [*oracle_spectra(), ("chain-32", chain_energies())]
        for name, e in spectra:
            spec = DegeneracySpec(e)
            ref = frame_potential_direct_sum(spec, k, *window)
            val = frame_potential_finite_time(spec, k, *window)
            assert val == pytest.approx(ref, rel=1e-12, abs=0), name

    @pytest.mark.parametrize("window", [(2.0, 22.0), (0.0, 3000.0)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_panel_per_chunk_gives_the_same_value(self, monkeypatch, k, window):
        # on (0, 3000) the chain has 11 455 panels at k = 1, 6 default chunks
        specs = [DegeneracySpec(chain_energies()),
                 DegeneracySpec(np.random.default_rng(4).normal(size=7))]
        whole = [frame_potential_finite_time(spec, k, *window) for spec in specs]
        monkeypatch.setattr(rdu, "QUAD_CHUNK_ENTRIES", 1)
        for spec, ref in zip(specs, whole):
            val = frame_potential_finite_time(spec, k, *window)
            assert val == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("k,window", [(1, (0.0, 1.0)), (2, (2.0, 22.0)),
                                          (3, (0.0, 3000.0))])
    def test_exponentials_are_panels_plus_nodes_times_d(self, monkeypatch,
                                                        k, window):
        e = chain_energies()
        t_min, t_max = window
        panels = math.ceil(k * (e.max() - e.min()) * (t_max - t_min)
                           / (2 * QUAD_HALF_PHASE))
        exp = np.exp
        counted = []

        def counting_exp(x, *args, **kwargs):
            counted.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        frame_potential_finite_time(DegeneracySpec(e), k, t_min, t_max)
        assert 0 < sum(counted) <= (panels + QUAD_NODES) * len(e)

    def test_rule_built_once_and_read_only(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rdu._panel_rule.cache_clear()
        spec = DegeneracySpec(np.array([0.0, 1.3, 2.9, 4.1]))
        for k in (1, 2, 3):
            frame_potential_finite_time(spec, k, 2.0, 22.0)
        assert calls == [(QUAD_NODES, QUAD_NODES)]
        nodes, w = rdu._panel_rule()
        assert not (nodes.flags.writeable or w.flags.writeable)
        x, w_ref = np.polynomial.legendre.leggauss(QUAD_NODES)
        np.testing.assert_allclose(nodes, (1 + x) / 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flat_spectrum_gives_d_to_2k(self, d, k):
        spec = DegeneracySpec(np.full(d, -1.25))
        assert frame_potential_finite_time(spec, k, 2.0, 22.0) == d ** (2 * k)

    def test_six_atom_chain_at_k3(self):
        # C(66, 3)^2 = 2.1e9 composition pairs in the closed form
        h = rydberg_hamiltonian(RydbergParams(random_positions(6, seed=3)))
        d = h.dim
        start = time.perf_counter()
        val = frame_potential_finite_time(DegeneracySpec(h.energies), 3, 2.0, 22.0)
        elapsed = time.perf_counter() - start
        assert math.isfinite(val)
        assert val >= 6 * d**3 - 9 * d**2 + 4 * d
        assert elapsed < 1.0

    def test_absurd_window_refused_before_nodes(self, monkeypatch):
        def no_nodes():
            raise AssertionError("quadrature nodes built before the guard")
        monkeypatch.setattr(rdu, "_panel_rule", no_nodes)
        spec = DegeneracySpec(np.array([0.0, 1.3, 2.9, 4.1]))
        with pytest.raises(ValueError, match="enumeration guard"):
            frame_potential_finite_time(spec, 3, 0.0, 1e12)

    @pytest.mark.parametrize("t_min,t_max", [(0.0, math.inf), (-math.inf, 1.0),
                                             (0.0, math.nan), (0.0, 1e308)])
    def test_non_finite_window_refused(self, t_min, t_max):
        spec = DegeneracySpec(np.array([0.0, 1.0e10]))
        with pytest.raises(ValueError):
            frame_potential_finite_time(spec, 3, t_min, t_max)
        if not (math.isfinite(t_min) and math.isfinite(t_max)):
            with pytest.raises(ValueError, match="finite"):
                TimeModel("uniform-window", t_min=t_min, t_max=t_max)
