"""End-to-end acceptance gate.

Each test checks one release criterion end to end and prints a single
PASS/FAIL line. All seeds are pinned so the suite is deterministic.
"""

import numpy as np

from hamshadow.estimators import (
    Observable,
    estimate_linear,
    estimate_nonlinear,
    snapshot_values,
    transformed_observable,
    wrong_postprocessing_values,
)
from hamshadow.models import (
    RydbergParams,
    exp_family_vh,
    ghz_state,
    gue_hamiltonian,
    hadamard_basis,
    hamiltonian_from_unitary,
    ladder_product_state,
    pauli_tensor,
    random_positions,
    random_pure_state,
    rydberg_hamiltonian,
    single_qubit_theta,
    thermal_state,
)
from hamshadow.qmatrix import evolve, partial_trace, swap_operator
from hamshadow.sampler import TimeModel, run_batch
from hamshadow.shadowmap import apply_n_inverse, build_inverter, diagnose_detection
from hamshadow.variance import variance_approx_linear, variance_exact

from haar import global_shadow_values
from moments import diagonal_design, frame_potential_mc_loop, rdu_sampler
from states import exact_average_state
from superoperators import (
    forward_superoperator,
    inverse_superoperator,
    shadow_map_forward,
)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_01_exact_inversion_identity():
    worst = 0.0
    for d in (4, 8):
        for seed in range(100, 110):
            h = gue_hamiltonian(d, seed)
            assert diagnose_detection(h).complete
            inv = build_inverter(h)
            sup = inverse_superoperator(inv) @ forward_superoperator(inv)
            worst = max(worst, np.max(np.abs(sup - np.eye(d * d))))
    report(1, worst < 1e-8,
           f"inverse-compose-forward deviation {worst:.2e} over 20 seeded "
           "models (d=4,8), tolerance 1e-8")


def test_02_design_oracle_unbiasedness():
    worst = 0.0
    for d, seed in [(2, 0), (2, 1), (4, 0), (4, 1)]:
        h = gue_hamiltonian(d, 200 + seed)
        inv = build_inverter(h)
        rho = random_pure_state(d, 300 + seed)
        rec = exact_average_state(inv, rho,
                                  diagonal_design(2, d).enumerate_phases())
        worst = max(worst, np.max(np.abs(rec - rho)))
    report(2, worst < 1e-9,
           f"deterministic second-order phase-set average deviates by "
           f"{worst:.2e} from the input state, tolerance 1e-9")


def test_03_statistical_unbiasedness_with_biased_baseline():
    h = gue_hamiltonian(8, 6)
    inv = build_inverter(h)
    rho = ghz_state(3)
    o = Observable(rho, name="fidelity")
    snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 50000, seed=31)
    rep = estimate_linear(inv, snaps, o)
    good_sigmas = abs(rep.value - 1.0) / rep.std_error
    bad = wrong_postprocessing_values(inv, snaps, o)
    bad_se = bad.std(ddof=1) / np.sqrt(len(bad))
    bad_sigmas = abs(bad.mean() - 1.0) / bad_se
    report(3, good_sigmas <= 3.0 and bad_sigmas > 5.0,
           f"fidelity {rep.value:.4f}+-{rep.std_error:.4f} "
           f"({good_sigmas:.2f} sigma from 1, need <=3); uniform-ensemble "
           f"post-processing off by {bad_sigmas:.1f} sigma (need >5)")


def test_04_frame_potentials():
    closed = {1: lambda d: d, 2: lambda d: 2 * d * d - d,
              3: lambda d: 6 * d**3 - 9 * d**2 + 4 * d}
    mc_ok = True
    details = []
    for d in (2, 4):
        for k in (1, 2, 3):
            est, err = frame_potential_mc_loop(rdu_sampler(d), k, 3000, seed=7)
            dev = abs(est - closed[k](d))
            mc_ok &= dev <= 3 * err
            details.append(f"F{k}(d={d}) off by {dev / max(err, 1e-30):.1f} se")
    worst_exact = 0.0
    for d in (2, 4):
        for k in (1, 2, 3):
            phases = diagonal_design(k, d).enumerate_phases()
            e = np.exp(1j * phases)
            traces = e.conj() @ e.T
            val = float(np.mean(np.abs(traces) ** (2 * k)))
            worst_exact = max(worst_exact, abs(val - closed[k](d)))
    report(4, mc_ok and worst_exact < 1e-12,
           "monte-carlo potentials within 3 se (" + "; ".join(details)
           + f"); exact phase-set averages off by {worst_exact:.1e}")


def test_05_flat_basis_case():
    worst = 0.0
    for n in range(2, 6):
        inv = build_inverter(hamiltonian_from_unitary(hadamard_basis(n)),
                             mode="pseudo-inverse")
        worst = max(worst, np.max(np.abs(inv.x_h - 2.0**-n)))
    n = 3
    d = 2**n
    v = hadamard_basis(n)
    h = hamiltonian_from_unitary(v)
    inv = build_inverter(h, mode="pseudo-inverse")
    o = pauli_tensor("X" * n)
    rho_rot = v @ ghz_state(n) @ v.conj().T
    o_rot = Observable(v @ o @ v.conj().T, name="XXX")
    snaps = run_batch(h, rho_rot, TimeModel("ideal-rdu"), 20000, seed=3)
    vals = snapshot_values(inv, snaps, o_rot)
    var = vals.var(ddof=1)
    var_se = np.std((vals - vals.mean()) ** 2, ddof=1) / np.sqrt(len(vals))
    bound = 3 * float(np.trace(o @ o).real)
    report(5, worst < 1e-15 and var <= bound + 5 * var_se,
           f"flat weights exact to machine precision ({worst:.1e}) for "
           "N=2..5; X^(x3) variance "
           f"{var:.2f} vs bound {bound:.0f} (+5 se = {5 * var_se:.2f})")


def test_06_single_qubit_sweep():
    bad_angles = [0.0, np.pi / 2, np.pi]
    good_angles = [0.3, 0.8, 1.2, 2.0, 2.8]
    flags_ok = (all(not diagnose_detection(single_qubit_theta(t)).complete
                    for t in bad_angles)
                and all(diagnose_detection(single_qubit_theta(t)).complete
                        for t in good_angles))
    o = Observable(pauli_tensor("X") + pauli_tensor("Y") + pauli_tensor("Z"),
                   name="X+Y+Z")
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    h = single_qubit_theta(0.8)
    inv = build_inverter(h)
    snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 20000, seed=21)
    ham_var = snapshot_values(inv, snaps, o).var(ddof=1)
    haar_var = global_shadow_values(rho, o, 20000, seed=22).var(ddof=1)
    ratio = ham_var / haar_var
    report(6, flags_ok and 0.2 <= ratio <= 5.0,
           f"completeness flips exactly at {{0, pi/2, pi}}; variance ratio to "
           f"the uniform-unitary baseline at theta=0.8 is {ratio:.2f} "
           "(need within factor 5)")


def test_07_variance_approximation():
    o = Observable(pauli_tensor("XXX"), name="XXX")
    rho = ghz_state(3)
    worst = 0.0
    for theta in (0.3, 0.6, 1.0, 2.0):
        fs, exacts = [], []
        for seed in range(10):
            inv = build_inverter(
                hamiltonian_from_unitary(exp_family_vh(8, theta, seed)))
            fs.append(variance_approx_linear(inv, o))
            exacts.append(variance_exact(inv, o, rho))
        ratio = float(np.median(fs)) / float(np.median(exacts))
        worst = max(worst, max(ratio, 1 / ratio))
    report(7, worst <= 3.0,
           f"median closed-form proxy vs exact variance across "
           f"theta in {{0.3,0.6,1.0,2.0}}: worst factor {worst:.2f} (need <=3)")


def test_08_qubit_number_scaling():
    theta = 2.0
    meds = {}
    for n in (2, 5):
        rho = ghz_state(n)
        o = Observable(rho, name="fidelity")
        vals = []
        for seed in range(20):
            inv = build_inverter(
                hamiltonian_from_unitary(exp_family_vh(2**n, theta, seed)))
            vals.append(variance_exact(inv, o, rho))
        meds[n] = float(np.median(vals))
    growth = meds[5] / meds[2]
    report(8, growth < 2.0,
           f"median fidelity-estimation variance grows {growth:.2f}x from "
           "N=2 to N=5 (need <2x)")


def test_09_finite_time_correction():
    d = 4
    h = gue_hamiltonian(d, 11)
    rho = random_pure_state(d, 12)
    v = h.eigenbasis
    inv_ft = build_inverter(h, mode="finite-time", t_min=0.0, t_max=5.0)
    inv_ideal = build_inverter(h)
    sigma = v.conj().T @ shadow_map_forward(inv_ft, rho) @ v
    uncorr = v @ apply_n_inverse(inv_ideal, sigma) @ v.conj().T
    corr = v @ apply_n_inverse(inv_ft, sigma) @ v.conj().T
    bias_u = np.max(np.abs(uncorr - rho))
    bias_c = np.max(np.abs(corr - rho))
    report(9, bias_u > 1e-3 and bias_c < 1e-8,
           f"5-us window: uncorrected bias {bias_u:.2e} (need >1e-3), "
           f"window-corrected bias {bias_c:.2e} (need <1e-8)")


def test_10_rydberg_demo():
    h = rydberg_hamiltonian(RydbergParams(random_positions(4, seed=0)))
    rho = ghz_state(4)
    tm = TimeModel("uniform-window", t_min=2.0, t_max=22.0)
    snaps = run_batch(h, rho, tm, 10000, seed=77)
    inv = build_inverter(h, mode="finite-time", t_min=2.0, t_max=22.0)
    rep = estimate_linear(inv, snaps, Observable(rho, name="fidelity"))
    fid_ok = (abs(rep.value - 1.0) <= 3 * rep.std_error
              and abs(rep.value - 1.0) <= 0.1)

    # reduced-scale ladder: 6 atoms in two legs, trace out one leg and run
    # a fresh 3-atom experiment on the kept leg at each quench time
    spacing = 10.733
    pos = np.array([(j * spacing, 0.0) for j in range(3)]
                   + [(j * spacing, spacing) for j in range(3)])
    h6 = rydberg_hamiltonian(RydbergParams(pos))
    rho0 = ladder_product_state(3, 3)
    h3 = rydberg_hamiltonian(RydbergParams(random_positions(3, seed=8)))
    inv3 = build_inverter(h3)
    times = [0.0, 0.2, 0.4, 0.8, 1.2, 2.0]
    ests, errs = [], []
    for i, t in enumerate(times):
        rho_t = evolve(h6, t, rho0)
        red = partial_trace(rho_t, [2] * 6, keep=[3, 4, 5])
        red = (red + red.conj().T) / 2
        snaps3 = run_batch(h3, red, TimeModel("ideal-rdu"), 20000, seed=60 + i)
        r = estimate_nonlinear(
            inv3, snaps3, Observable(swap_operator(8), copies=2, name="SWAP"))
        ests.append(r.value)
        errs.append(r.std_error)
    # monotone decay within error bars, then saturation at late times
    mono_ok = all(ests[i + 1] <= ests[i] + 3 * (errs[i] + errs[i + 1])
                  for i in range(len(ests) - 1))
    early_drop = ests[0] - ests[2]
    late_drop = abs(ests[-2] - ests[-1])
    sat_ok = late_drop <= max(3 * (errs[-2] + errs[-1]), 0.3 * early_drop)
    report(10, fid_ok and mono_ok and sat_ok,
           f"GHZ fidelity {rep.value:.4f}+-{rep.std_error:.4f} (within 0.1 and "
           f"3 se of 1: {fid_ok}); ladder purity curve "
           + ",".join(f"{e:.3f}" for e in ests)
           + f" monotone={mono_ok} saturating={sat_ok}")


def test_11_thermal_state_recovery():
    h = gue_hamiltonian(4, 13)
    inv = build_inverter(h)
    rho = thermal_state(h, 0.5)
    rec = exact_average_state(inv, rho,
                              diagonal_design(2, 4).enumerate_phases())
    err = np.max(np.abs(rec - rho))
    report(11, err < 1e-8,
           f"beta=0.5 thermal state recovered to {err:.1e} (need <1e-8)")


def test_12_identity_observable_exact():
    h = gue_hamiltonian(4, 0)
    inv = build_inverter(h)
    rho = random_pure_state(4, 1)
    snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 1000, seed=2)
    vals = snapshot_values(inv, snaps, Observable(np.eye(4)))
    worst = np.max(np.abs(vals - 1.0))
    report(12, worst < 1e-12,
           f"per-snapshot identity estimate off by {worst:.1e} across "
           "1000 snapshots (need <1e-12)")
