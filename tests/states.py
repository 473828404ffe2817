"""Dense per-snapshot state estimators rho-hat_k, for tests.

The package estimates straight from the amplitude matrix Z and never forms
rho-hat_k = V N^-1(sigma-hat_k) V^dag; these stacks are the definition its
fast paths are checked against.
"""

import numpy as np

from hamshadow.estimators import snapshot_amplitudes
from hamshadow.qmatrix import check_density
from hamshadow.sampler import born_probabilities
from hamshadow.shadowmap import ShadowInverter, apply_n_inverse, snapshot_sigmas


def inverted_sigmas(inv: ShadowInverter, z: np.ndarray) -> np.ndarray:
    """Stack of inverse-mapped single-snapshot matrices, eigenframe."""
    return apply_n_inverse(inv, snapshot_sigmas(z))


def snapshot_states(inv: ShadowInverter, snaps) -> np.ndarray:
    """Stack of per-snapshot state estimators, computational basis."""
    z = snapshot_amplitudes(inv, snaps)
    n = inverted_sigmas(inv, z)
    v = inv.hamiltonian.eigenbasis
    return np.einsum("am,kmn,bn->kab", v, n, v.conj())


def build_estimator(inv: ShadowInverter, snap) -> np.ndarray:
    """State estimator rho-hat = V N^-1(sigma-hat) V^dag of one Snapshot row."""
    return snapshot_states(inv, [snap])[0]


def exact_average_state(inv: ShadowInverter, rho, phase_vectors) -> np.ndarray:
    """Deterministic expectation of the state estimator over a phase set.

    Averages rho-hat over every (phase vector, outcome) pair weighted by
    the Born probability; with a moment-matching phase set this recovers
    rho exactly, with no sampling involved.
    """
    rho = check_density(rho)
    h = inv.hamiltonian
    v = h.eigenbasis
    rho_h = v.conj().T @ rho @ v
    d = h.dim
    acc = np.zeros((d, d), dtype=complex)
    phase_vectors = np.atleast_2d(np.asarray(phase_vectors, dtype=float))
    probs = born_probabilities(h, rho_h, phase_vectors)
    for phi, p in zip(phase_vectors, probs):
        z = v * np.exp(1j * phi)[None, :]  # rows b
        n = inverted_sigmas(inv, z)
        acc += np.einsum("b,bmn->mn", p, n)
    acc /= len(phase_vectors)
    return v @ acc @ v.conj().T
