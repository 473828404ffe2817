"""Property tests over random small Hamiltonians and snapshot columns."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hamshadow.estimators import _quadratic_values, snapshot_amplitudes
from hamshadow.models import gue_hamiltonian
from hamshadow.qmatrix import hermitian_spectral
from hamshadow.sampler import SnapshotSet, load_snapshots, save_snapshots
from hamshadow.shadowmap import apply_n_inverse, build_inverter, diagnose_detection
from hamshadow.times import TimeModel

from moments import diagonal_design
from states import exact_average_state
from superoperators import apply_n, forward_superoperator, shadow_map_forward

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
    # 2-norm cond; the stored 1-norm value is 2-3 times larger
    cond = np.linalg.cond(forward_superoperator(inv))
    tol = 1e-13 * cond * np.max(np.abs(sigma))
    np.testing.assert_allclose(back, sigma, rtol=0, atol=tol)


def window_record(h, rho, t_min, dt):
    """Midpoint-rule average over t in the window of the measured record
    sum_b p_b(t) U(t)^dag |b><b| U(t), and the step times the largest
    frequency of the record, omega_max = 2 (E_max - E_min)."""
    e, v = h.energies, h.eigenbasis
    omega_max = 2 * (e.max() - e.min())
    num = int(np.ceil(omega_max * dt / 2e-3)) + 1
    ts = t_min + (np.arange(num) + 0.5) * dt / num
    acc = np.zeros((h.dim, h.dim), dtype=complex)
    for chunk in np.array_split(ts, -(-num // 4096)):
        u = (v * np.exp(-1j * np.outer(chunk, e))[:, None, :]) @ v.conj().T
        p = np.einsum("tbm,mn,tbn->tb", u, rho, u.conj()).real
        acc += np.einsum("tb,tbm,tbn->mn", p, u.conj(), u)
    return acc / num, omega_max * dt / num


@settings(max_examples=20, deadline=None)
@given(complete_hamiltonians(), st.floats(0.0, 4.0), st.floats(0.5, 8.0),
       st.data())
def test_finite_time_map_is_the_window_average(h, t_min, dt, data):
    # an oracle that uses neither the window formula nor the inverse
    try:
        inv = build_inverter(h, mode="finite-time", t_min=t_min,
                             t_max=t_min + dt)
    except np.linalg.LinAlgError:
        assume(False)
    a = complex_matrix(data.draw, h.dim)
    rho = a @ a.conj().T + 1e-3 * np.eye(h.dim)
    rho /= np.trace(rho)
    record, x = window_record(h, rho, t_min, dt)
    # the midpoint average of each frequency is off by at most x^2/24 of its
    # amplitude, and the amplitudes of one element of the record sum to <= d
    d = h.dim
    np.testing.assert_allclose(shadow_map_forward(inv, rho), record, rtol=0,
                               atol=d**2 * x**2 / 24 + 1e-10)
    v = h.eigenbasis
    rho_h = v.conj().T @ rho @ v
    record_h = v.conj().T @ record @ v
    # N^-1(record) - rho_h = N^-1(record - N(rho_h)), bounded through the
    # smallest singular value of the forward superoperator
    sv = np.linalg.svd(forward_superoperator(inv), compute_uv=False)
    err = np.linalg.norm(record_h - apply_n(inv, rho_h))
    back = apply_n_inverse(inv, record_h)
    assert np.linalg.norm(back - rho_h) <= err / sv[-1] + 1e-12 * sv[0] / sv[-1]


@st.composite
def snapshot_sets(draw, elements):
    """(d, SnapshotSet) of K in [1, 30] outcomes below d in [2, 6], with a
    time column in its [0.5, 3] us window or a (K, d) phase column of the
    given float elements."""
    d = draw(st.integers(2, 6))
    k = draw(st.integers(1, 30))
    bits = draw(hnp.arrays(np.int64, k, elements=st.integers(0, d - 1)))
    seed = draw(st.integers(0, 2**31))
    if draw(st.booleans()):
        times = draw(hnp.arrays(np.float64, k, elements=st.floats(0.5, 3.0)))
        return d, SnapshotSet(bits, "0123456789abcdef", seed,
                              TimeModel("uniform-window", t_min=0.5, t_max=3.0),
                              times=times)
    phases = draw(hnp.arrays(np.float64, (k, d), elements=elements))
    return d, SnapshotSet(bits, "0123456789abcdef", seed, TimeModel("ideal-rdu"),
                          phases=phases)


@settings(max_examples=50, deadline=None)
@given(snapshot_sets(st.floats(allow_nan=False, allow_infinity=False)))
def test_save_load_save_is_exact(d_snaps):
    _, snaps = d_snaps
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
        save_snapshots(a, snaps)
        loaded = load_snapshots(a)
        save_snapshots(b, loaded)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
    assert np.array_equal(loaded.bits, snaps.bits)
    for name in ("times", "phases"):
        col = getattr(snaps, name)
        assert (col is None) == (getattr(loaded, name) is None)
        assert col is None or np.array_equal(getattr(loaded, name), col)
    assert (loaded.hamiltonian_fingerprint, loaded.seed, loaded.time_model) == \
        (snaps.hamiltonian_fingerprint, snaps.seed, snaps.time_model)


@st.composite
def time_models(draw):
    """Any TimeModel, with every field drawn whether its kind reads it or not."""
    kind = draw(st.sampled_from(["uniform-window", "ideal-rdu", "design"]))
    try:
        return TimeModel(kind, t_min=draw(st.floats()), t_max=draw(st.floats()),
                         k=draw(st.integers(0, 4)))
    except ValueError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(time_models(), st.sampled_from(["times", "phases", "both"]),
       st.integers(0, 4), st.integers(0, 3), st.text(), st.integers(),
       st.data())
def test_every_accepted_set_round_trips(tm, column, k, d, fingerprint, seed,
                                        data):
    # the constructor refuses exactly what a snapshot file cannot carry, and
    # whatever it accepts is read back field for field
    bits = data.draw(hnp.arrays(np.int64, k,
                                elements=st.integers(-1, 2**63 - 1)))
    columns = {}
    if column in ("times", "both"):
        columns["times"] = data.draw(hnp.arrays(np.float64, k))
    if column in ("phases", "both"):
        columns["phases"] = data.draw(hnp.arrays(np.float64, (k, d)))
    want = "times" if tm.kind == "uniform-window" else "phases"
    valid = (column == want and k >= 1 and (want == "times" or d >= 1)
             and bool(np.all(bits >= 0))
             and (want == "phases" or bool(np.all((tm.t_min <= columns["times"])
                                                  & (columns["times"] <= tm.t_max))))
             and re.fullmatch("[!-~]*", fingerprint) is not None)
    try:
        snaps = SnapshotSet(bits, fingerprint, seed, tm, **columns)
    except ValueError:
        assert not valid
        return
    assert valid
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snaps.txt")
        save_snapshots(path, snaps)
        loaded = load_snapshots(path)
    assert np.array_equal(loaded.bits, bits)
    assert np.array_equal(getattr(loaded, want), columns[want], equal_nan=True)
    assert getattr(loaded, "phases" if want == "times" else "times") is None
    assert (loaded.hamiltonian_fingerprint, loaded.seed, loaded.time_model) == \
        (fingerprint, seed, tm)


@settings(max_examples=50, deadline=None)
@given(snapshot_sets(st.floats(-1e3, 1e3)), st.integers(0, 10))
def test_amplitudes_of_set_equal_row_list(d_snaps, hseed):
    d, snaps = d_snaps
    inv = build_inverter(gue_hamiltonian(d, hseed))
    np.testing.assert_array_equal(snapshot_amplitudes(inv, snaps),
                                  snapshot_amplitudes(inv, snaps.snapshots))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.data())
def test_quadratic_values_match_einsum(d, k, data):
    # the GEMM and real row dot against the three-operand einsum, for a
    # Hermitian B, whose quadratic form is real; z in either memory order
    parts = data.draw(hnp.arrays(np.float64, (2, k, d), elements=ENTRIES))
    z = parts[0] + 1j * parts[1]
    if data.draw(st.booleans()):
        z = np.asfortranarray(z)
    a = complex_matrix(data.draw, d)
    b = a + a.conj().T
    ref = np.einsum("km,mn,kn->k", z, b, z.conj())
    out = _quadratic_values(z, b)
    assert out.dtype == np.float64 and out.shape == (k,)
    bound = ((np.abs(z) @ np.abs(b)) * np.abs(z)).sum(axis=1)
    assert np.all(np.abs(out - ref.real) <= 1e-14 * bound)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_property_reports_its_example(tmp_path):
    # on failure hypothesis imports libcst, whose mypy_extensions.TypedDict
    # warning the project's error::DeprecationWarning turned into an
    # INTERNALERROR that hid the falsifying example
    config = Path(__file__).parent.parent / "pyproject.toml"
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
