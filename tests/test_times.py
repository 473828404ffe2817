"""The time model's law: what each kind records and draws, its
characteristic function, and the resonance rule the window map reads
from it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import hamshadow
from hamshadow.models import gue_hamiltonian, hamiltonian_from_unitary
from hamshadow.shadowmap import _window_superoperator, build_inverter
from hamshadow.times import ENERGY_RESOLUTION, TimeModel

from superoperators import (
    apply_packed_dense,
    forward_superoperator,
    uniform_window,
    window_characteristic,
)

WINDOW = uniform_window(2.0, 22.0)


class InfiniteWindow:
    """The law of an infinitely long window, chi(w) = 1[|w| < ENERGY_RESOLUTION],
    in the form the window build reads it."""

    def difference_characteristic(self, freqs):
        def rows(j):
            return (np.abs(freqs[j, None] - freqs) < ENERGY_RESOLUTION).astype(complex)
        return rows


def dense_g(h, tm) -> np.ndarray:
    """G[(m, n), (p, q)] of the window build of h under tm, d^2 x d^2."""
    r, _ = _window_superoperator(h, tm)
    units = np.eye(h.dim**2, dtype=complex).reshape(-1, h.dim, h.dim)
    return apply_packed_dense(r, units).reshape(len(units), -1).T


def residual_rates(e: np.ndarray) -> np.ndarray:
    """w[(m, n), (p, q)] = (E_n - E_m) - (E_q - E_p), d^2 x d^2."""
    gap = (e[None, :] - e[:, None]).reshape(-1)
    return gap[:, None] - gap[None, :]


@pytest.mark.parametrize("tm, column, bounds, grid", [
    (WINDOW, "times", (2.0, 22.0), None),
    (TimeModel("ideal-rdu"), "phases", (0.0, 2 * np.pi), None),
    (TimeModel("design", k=1), "phases", (0.0, 2 * np.pi), 2),
    (TimeModel("design", k=3), "phases", (0.0, 2 * np.pi), 4),
], ids=["uniform-window", "ideal-rdu", "design-1", "design-3"])
def test_what_each_kind_records_and_draws(tm, column, bounds, grid):
    assert (tm.column, tm.bounds, tm.grid) == (column, bounds, grid)


def test_only_the_inverter_choice_reads_a_kind_outside_times():
    # the sampler, the reader and the CLI ask the model what it records and
    # draws; cli._inverter alone maps a record's kind to its inverse
    readers = set()
    for path in Path(hamshadow.__file__).parent.glob("*.py"):
        if path.name == "times.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Attribute) and node.attr == "kind"
                   for node in ast.walk(top)):
                readers.add((path.name, getattr(top, "name", None)))
    assert readers == {("cli.py", "_inverter")}


class TestCharacteristic:
    def test_matches_the_closed_form(self):
        rng = np.random.default_rng(3)
        omega = rng.choice([-1, 1], 200) * 10 ** rng.uniform(-6, 2, 200)
        np.testing.assert_allclose(WINDOW.characteristic(omega),
                                   window_characteristic(omega, 2.0, 22.0),
                                   rtol=0, atol=1e-10)

    def test_resonances_have_weight_one(self):
        # below the resolution the closed form is within |w| t_max of 1,
        # and the rule gives 1 exactly
        omega = np.array([0.0, -0.0, 3e-10, -9.9e-10])
        chi = WINDOW.characteristic(omega)
        assert np.array_equal(chi, np.ones(4))
        np.testing.assert_allclose(chi, window_characteristic(omega, 2.0, 22.0),
                                   rtol=0, atol=ENERGY_RESOLUTION * WINDOW.t_max)

    def test_keeps_the_shape(self):
        assert WINDOW.characteristic(np.zeros((2, 3))).shape == (2, 3)

    def test_differences_match_the_characteristic(self):
        freqs = np.array([0.0, 1.0, 2.0, 3.7, -0.4])
        rows = WINDOW.difference_characteristic(freqs)
        j = np.array([1, 3])
        np.testing.assert_allclose(rows(j), WINDOW.characteristic(freqs[j, None] - freqs),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("tm", [TimeModel("ideal-rdu"), TimeModel("design", k=2)])
    def test_phase_kinds_have_none(self, tm):
        with pytest.raises(ValueError, match="draws phases, not times"):
            tm.characteristic(np.ones(1))
        with pytest.raises(ValueError, match="draws phases, not times"):
            _window_superoperator(gue_hamiltonian(2, 1), tm)


class TestResonanceRule:
    """The window build under chi = 1[|w| < ENERGY_RESOLUTION], the infinitely
    long window: it keeps exactly the resonant elements of G."""

    @pytest.mark.parametrize("d, seed", [(2, 1), (4, 2), (8, 3)])
    def test_generic_spectrum_gives_the_ideal_map(self, d, seed):
        h = gue_hamiltonian(d, seed)
        np.testing.assert_allclose(dense_g(h, InfiniteWindow()),
                                   forward_superoperator(build_inverter(h)),
                                   rtol=0, atol=1e-13)

    def test_resonant_spectrum_differs_on_the_resonant_elements(self):
        # E_0 + E_2 = 2 E_1: the gaps (0, 1) and (1, 2) agree, so G keeps
        # elements that ideal phases average away
        e = np.array([0.0, 1.0, 2.0, 3.7])
        h = hamiltonian_from_unitary(gue_hamiltonian(4, 5).eigenbasis, e)
        d = len(e)
        diff = np.abs(dense_g(h, InfiniteWindow())
                      - forward_superoperator(build_inverter(h)))
        m, n, p, q = np.unravel_index(np.arange(d**4), (d, d, d, d))
        trivial = ((m == p) & (n == q)) | ((m == n) & (p == q))
        resonant = (np.abs(residual_rates(e)).reshape(-1) < ENERGY_RESOLUTION) & ~trivial
        assert resonant.sum() == 4  # ((0, 1), (1, 2)), its swap and conjugates
        assert np.all(diff.reshape(-1)[resonant] > 1e-3)
        assert np.all(diff.reshape(-1)[~resonant] < 1e-13)
