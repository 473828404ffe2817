"""Property tests over random small Hamiltonians that pass the diagnosis."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hamshadow.estimators import exact_average_state
from hamshadow.qmatrix import hermitian_spectral
from hamshadow.rdu import diagonal_design
from hamshadow.shadowmap import (
    apply_n,
    apply_n_inverse,
    build_inverter,
    diagnose_detection,
    forward_superoperator,
)

# a grid in [-1, 1]: no subnormal entries, whose products underflow
ENTRIES = st.integers(-1000, 1000).map(lambda k: k / 1000)


@st.composite
def complete_hamiltonians(draw):
    d = draw(st.integers(2, 4))
    parts = draw(hnp.arrays(np.float64, (2, d, d), elements=ENTRIES))
    a = parts[0] + 1j * parts[1]
    h = hermitian_spectral((a + a.conj().T) / 2)
    assume(diagnose_detection(h).complete)
    return h


def complex_matrix(draw, d):
    parts = draw(hnp.arrays(np.float64, (2, d, d), elements=ENTRIES))
    return parts[0] + 1j * parts[1]


@settings(max_examples=30, deadline=None)
@given(complete_hamiltonians(), st.data())
def test_design_expectation_equals_state(h, data):
    # exact enumeration of the 2-design: no sampling, so only rounding,
    # amplified by at most the condition number of N, separates the
    # average from rho
    inv = build_inverter(h)
    a = complex_matrix(data.draw, h.dim)
    rho = a @ a.conj().T + 1e-3 * np.eye(h.dim)
    rho /= np.trace(rho)
    rec = exact_average_state(inv, rho,
                              diagonal_design(2, h.dim).enumerate_phases())
    cond = np.linalg.cond(forward_superoperator(inv))
    assert np.max(np.abs(rec - rho)) <= 1e-12 * cond


@settings(max_examples=30, deadline=None)
@given(complete_hamiltonians(), st.floats(0.0, 5.0), st.floats(0.1, 20.0),
       st.data())
def test_finite_time_inverse_undoes_forward(h, t_min, dt, data):
    try:
        inv = build_inverter(h, mode="finite-time", t_min=t_min,
                             t_max=t_min + dt)
    except np.linalg.LinAlgError:
        assume(False)
    sigma = complex_matrix(data.draw, h.dim)
    back = apply_n_inverse(inv, apply_n(inv, sigma))
    tol = 1e-13 * inv.finite.condition_number * np.max(np.abs(sigma))
    np.testing.assert_allclose(back, sigma, rtol=0, atol=tol)
