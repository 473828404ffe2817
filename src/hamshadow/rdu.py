"""Energy degeneracies and frame potentials of random diagonal unitaries.

Frame potentials: the ideal closed form, the finite-window value and
Monte-Carlo estimates. The moment maps and finite phase designs these
values are checked against are test oracles and live with the tests.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sampler import TimeModel

MAX_FP_TERMS = 10**8  # phase evaluations (nodes x d) of frame_potential_finite_time
QUAD_NODES = 20  # Gauss-Legendre nodes per panel of the window frame potential
QUAD_HALF_PHASE = 6.0  # radians of the top frequency per half panel
QUAD_CHUNK_ENTRIES = 2**16  # complex phases evaluated per chunk


@dataclass(frozen=True)
class DegeneracySpec:
    """Energy list plus the tolerance used to detect exact linear relations."""

    energies: np.ndarray
    resolution: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        if self.resolution < 0:
            raise ValueError("resolution must be non-negative")

    @property
    def dim(self) -> int:
        return len(self.energies)

    def first_order_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (a, b), a < b, with E_a == E_b within resolution."""
        e = self.energies
        return [(a, b) for a in range(len(e)) for b in range(a + 1, len(e))
                if abs(e[a] - e[b]) <= self.resolution]

    def second_order_resonances(self) -> list[tuple[int, int, int, int]]:
        """Quadruples (a1, a2, b1, b2) with E_a1+E_a2 == E_b1+E_b2.

        Only non-trivial relations are reported: the index pairs differ as
        unordered pairs. Pairs that merely restate a first-order degeneracy
        are filtered out.
        """
        e = self.energies
        d = len(e)
        if d > 256:
            raise ValueError("resonance enumeration capped at dimension 256")
        first = set()
        for a, b in self.first_order_pairs():
            first.add((a, b))
        out = []
        pairs = [(i, j) for i in range(d) for j in range(i, d)]
        sums = [(e[i] + e[j], i, j) for i, j in pairs]
        sums.sort()
        for x in range(len(sums)):
            for y in range(x + 1, len(sums)):
                if sums[y][0] - sums[x][0] > 2 * self.resolution + 1e-15:
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
                    if (min(ra, rb), max(ra, rb)) in first:
                        continue
                out.append((a1, a2, b1, b2))
        return out


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
    """ValueError unless t_min and t_max are finite."""
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError(f"window bounds must be finite, got [{t_min}, {t_max}]")


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
    if not t_max > t_min:
        raise ValueError("t_max must exceed t_min")
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


def frame_potential_mc(tm: TimeModel, energies, k: int, num_samples: int,
                       seed: int) -> tuple[float, float]:
    """Pair-sample Monte-Carlo estimate of E|Tr(U^dag V)|^{2k}.

    Sample i draws the diagonals of U and V from the stream of
    substream(seed, i): 2 d phases, U's first (ideal-rdu or design), or
    two window times t with diagonal e^{-i E t} (uniform-window). Only the
    length of ``energies`` matters for phases. The streams are computed in
    closed form for a block of samples at a time, as run_batch computes
    its shots, so the estimate is reproducible regardless of evaluation
    order.
    """
    from .sampler import CHUNK_ENTRIES, _evolution_draws

    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    if num_samples >= 2**32:
        raise ValueError("num_samples must be below 2**32, so that each "
                         "sample index is one spawn-key word")
    e = np.asarray(energies, dtype=float)
    d = len(e)
    window = tm.kind == "uniform-window"
    width = 2 if window else 2 * d
    block = max(1, CHUNK_ENTRIES // (width + 1))
    vals = np.empty(num_samples)
    for start in range(0, num_samples, block):
        samples = np.arange(start, min(start + block, num_samples), dtype=np.uint64)
        x, _ = _evolution_draws(seed, samples, tm, width)
        # Tr(U^dag V) = sum_j e^{i (phi_V - phi_U)_j}, phi = -E t for times
        shift = (np.multiply.outer(x[:, 0] - x[:, 1], e) if window
                 else x[:, d:] - x[:, :d])
        vals[start:start + len(samples)] = np.abs(
            np.exp(1j * shift).sum(axis=1)) ** (2 * k)
    est = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / np.sqrt(num_samples))
    return est, err
