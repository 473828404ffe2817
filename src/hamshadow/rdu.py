"""Energy degeneracies and frame potentials of random diagonal unitaries.

Frame potentials, both exact: the ideal closed form and the
finite-window value. The moment maps, finite phase designs and
Monte-Carlo loop these values are checked against are test oracles and
live with the tests.

The finite-window frame potential F_k = E|Tr(U_t^dag U_s)|^{2k} over t, s
uniform on [t_min, t_max] is the one-dimensional integral

    F_k = (2 / D^2) int_0^D (D - tau) |S(tau)|^{2k} dtau,
    S(tau) = sum_j e^{i E_j tau},  D = t_max - t_min,

because the multinomial sum over compositions collapses to the power
S^k and the window average of e^{i w (t - s)} is the triangular density of
t - s. The integrand is non-negative and band-limited to k (E_max - E_min),
so a fixed composite Gauss-Legendre rule, with panels no wider than a few
radians of that bandwidth, evaluates it exactly to rounding in
O(nodes * d) phase evaluations.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

MAX_FP_TERMS = 10**8  # phase evaluations (nodes x d) of frame_potential_finite_time
QUAD_NODES = 20  # Gauss-Legendre nodes per panel of the window frame potential
QUAD_HALF_PHASE = 6.0  # radians of the top frequency per half panel
QUAD_CHUNK_ENTRIES = 2**16  # complex phases evaluated per chunk
ENERGY_RESOLUTION = 1e-9  # energies, and sums or gaps of them, this close are equal


@dataclass(frozen=True)
class DegeneracySpec:
    """Energy list whose resonances are found within ENERGY_RESOLUTION."""

    energies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))

    def second_order_resonances(self) -> Iterator[tuple[int, int, int, int]]:
        """Quadruples (a1, a2, b1, b2) with E_a1+E_a2 == E_b1+E_b2, lazily, so
        a caller can stop early: only index pairs that differ as unordered
        pairs and do not merely restate a first-order degeneracy."""
        e = self.energies
        d = len(e)
        if d > 256:
            raise ValueError("resonance enumeration capped at dimension 256")
        sums = sorted((e[i] + e[j], i, j) for i in range(d) for j in range(i, d))
        for x in range(len(sums)):
            for y in range(x + 1, len(sums)):
                if sums[y][0] - sums[x][0] > 2 * ENERGY_RESOLUTION + 1e-15:
                    break
                a1, a2 = sums[x][1], sums[x][2]
                b1, b2 = sums[y][1], sums[y][2]
                if {a1, a2} == {b1, b2}:
                    continue
                # skip relations implied by a first-order degeneracy
                shared = {a1, a2} & {b1, b2}
                if shared:
                    ra = ({a1, a2} - shared or shared).pop()
                    rb = ({b1, b2} - shared or shared).pop()
                    if abs(e[ra] - e[rb]) <= ENERGY_RESOLUTION:
                        continue
                yield (a1, a2, b1, b2)


def frame_potential_rdu_exact(k: int, d: int) -> float:
    """Frame potential of ideal random diagonal unitaries.

    The multinomial sum sum_{n1+..+nd=k} multinom(k; n)^2 in closed form:
    d, 2d^2-d and 6d^3-9d^2+4d for k = 1, 2, 3.
    """
    if k not in (1, 2, 3):
        raise ValueError("only k = 1, 2, 3 are supported")
    if d < 1:
        raise ValueError("dimension must be positive")
    return float((d, 2 * d * d - d, 6 * d**3 - 9 * d**2 + 4 * d)[k - 1])


def check_window(t_min: float, t_max: float) -> None:
    """ValueError unless t_min and t_max are finite and t_max > t_min."""
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError(f"window bounds must be finite, got [{t_min}, {t_max}]")
    if not t_max > t_min:
        raise ValueError("t_max must exceed t_min")


def frame_potential_finite_time(spec: DegeneracySpec, k: int,
                                t_min: float, t_max: float) -> float:
    """Frame potential of the diagonal-phase ensemble from a finite window.

    With t, s uniform on the window, Tr(U_t^dag U_s) = S(t - s) for
    S(tau) = sum_j e^{i (E_j - c) tau} (any shift c), and t - s has the
    triangular density (D - |tau|) / D^2 on [-D, D], D = t_max - t_min, so

        F_k = (2 / D^2) int_0^D (D - tau) |S(tau)|^{2k} dtau.

    The integrand is non-negative and, apart from the linear factor, a
    trigonometric polynomial of bandwidth B = k (E_max - E_min). A
    composite Gauss-Legendre rule of QUAD_NODES nodes on each of
    ceil(B D / (2 QUAD_HALF_PHASE)) equal panels integrates it exactly to
    rounding: no panel spans more than 2 QUAD_HALF_PHASE radians of the
    highest frequency, where the rule's error term is of order 1e-28 of
    the integrand's peak d^{2k}. Cost O(nodes * d), against the
    C(d+k-1, k)^2 composition pairs of the equivalent closed form.
    """
    if k not in (1, 2, 3):
        raise ValueError("only k = 1, 2, 3 are supported")
    check_window(t_min, t_max)
    e = spec.energies
    d = len(e)
    dt = t_max - t_min
    width = k * float(e.max() - e.min()) * dt
    if not math.isfinite(width):
        raise ValueError("window phase range is not finite")
    if width == 0:  # flat spectrum: |S(tau)| = d for every tau
        return float(d) ** (2 * k)
    panels = max(1, math.ceil(width / (2 * QUAD_HALF_PHASE)))
    evaluations = panels * QUAD_NODES * d
    if evaluations > MAX_FP_TERMS:
        raise ValueError(f"{evaluations} phase evaluations exceed the "
                         "enumeration guard")
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    # nodes u = tau / D in [0, 1]; energies centred so phases stay small
    shifted = e - (e.max() + e.min()) / 2
    per_chunk = max(1, QUAD_CHUNK_ENTRIES // (QUAD_NODES * d))
    total = 0.0
    for start in range(0, panels, per_chunk):
        p = np.arange(start, min(start + per_chunk, panels))
        u = ((p[:, None] + (1 + x) / 2) / panels).ravel()
        s = np.exp(1j * np.multiply.outer(u * dt, shifted)).sum(axis=1)
        total += float(((np.tile(w, len(p)) * (1 - u))
                        @ (s.real**2 + s.imag**2) ** k))
    return total / panels
