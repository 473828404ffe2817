"""Haar-unitary global shadows, the classical-shadow baseline, for tests.

The paper claims that a single quench needs about as many shots as
classical shadows with Haar-random global unitaries; these per-shot
estimates are the reference that claim is checked against. No package code
calls them.
"""

import math

import numpy as np

from hamshadow.estimators import EstimateReport, Observable, median_of_means
from hamshadow.qmatrix import check_density
from hamshadow.sampler import _born_factor, _born_rows, _factor_state, substream


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary by the steps of scipy.stats.unitary_group.rvs:
    Q of a Ginibre matrix, each column times the phase of R's diagonal entry."""
    z = 1 / math.sqrt(2) * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases))


def global_shadow_values(rho, o: Observable, num_shots: int, seed: int) -> np.ndarray:
    """Per-shot estimates from Haar-unitary global shadows.

    One shot applies a Haar-random unitary, measures, and inverts with
    rho-hat = (d+1) U^dag |b><b| U - I, so the per-shot estimate is
    (d+1) (U O U^dag)_bb - Tr(O).
    """
    rho = check_density(rho)
    d = rho.shape[0]
    w, l = _factor_state(rho)
    no_phases = np.zeros((1, d))
    tr_o = float(np.trace(o.matrix).real)
    vals = np.empty(num_shots)
    for i in range(num_shots):
        rng = substream(seed, i)
        u = haar_unitary(d, rng)
        b = int(rng.choice(d, p=_born_rows(_born_factor(u, l), w, no_phases)[0]))
        row = u[b, :]
        vals[i] = ((row @ o.matrix @ row.conj()).real) * (d + 1) - tr_o
    return vals


def baseline_global_shadow(rho, num_shots: int, seed: int, o: Observable,
                           num_batches: int = 1) -> EstimateReport:
    vals = global_shadow_values(rho, o, num_shots, seed)
    return median_of_means(vals, num_batches)
