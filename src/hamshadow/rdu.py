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
radians of that bandwidth, evaluates it exactly to rounding. Every node is
a panel offset plus a node offset, so e^{i E_j tau} factors into a panel
phase and a node phase: (panels + nodes) * d complex exponentials and one
(panels, d) @ (d, nodes) product per chunk of panels give S at every node.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

MAX_FP_TERMS = 10**8  # terms panels x nodes x d of S(tau) in frame_potential_finite_time
QUAD_NODES = 20  # Gauss-Legendre nodes per panel of the window frame potential
QUAD_HALF_PHASE = 6.0  # radians of the top frequency per half panel
QUAD_CHUNK_ENTRIES = 2**16  # complex panel phases, or S values, per chunk
ENERGY_RESOLUTION = 1e-9  # energies, and sums or gaps of them, this close are equal


@dataclass(frozen=True)
class DegeneracySpec:
    """Energy list whose resonances are found within ENERGY_RESOLUTION."""

    energies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))

    def second_order_resonances(self) -> Iterator[tuple[int, int, int, int]]:
        """Quadruples (a1, a2, b1, b2), a1 <= a2 and b1 <= b2, with
        E_a1 + E_a2 == E_b1 + E_b2, lazily, so a caller can stop early.

        Energies whose sorted neighbours lie within ENERGY_RESOLUTION form
        one level, and a quadruple is reported only if its level pairs
        {L(a1), L(a2)} and {L(b1), L(b2)} differ: a relation that
        degeneracies alone imply is not a resonance. The scan runs over
        pairs of levels, so degeneracy does not lengthen it.
        """
        if len(self.energies) > 256:
            raise ValueError("resonance enumeration capped at dimension 256")
        order = np.argsort(self.energies, kind="stable")
        gaps = np.diff(self.energies[order]) > ENERGY_RESOLUTION
        levels = [m.tolist() for m in np.split(order, np.flatnonzero(gaps) + 1)
                  if len(m)]
        e = self.energies.tolist()
        tol = 2 * ENERGY_RESOLUTION + 1e-15

        def index_pairs(x, y):  # (i, j), i <= j, one in level x, one in y
            return [(min(i, j), max(i, j)) for i in levels[x] for j in levels[y]
                    if x != y or i <= j]

        # level pairs (x, y) by their lowest index sum: pair j can resonate
        # with an earlier pair i only while its lowest sum is within tol of
        # the highest sum of pair i (twice tol here, against rounding)
        first = self.energies[[m[0] for m in levels]]
        last = self.energies[[m[-1] for m in levels]]
        x, y = np.triu_indices(len(levels))
        lo = first[x] + first[y]
        by_lo = np.argsort(lo, kind="stable")
        lo = lo[by_lo]
        ends = np.searchsorted(lo, (last[x] + last[y])[by_lo] + 2 * tol,
                               side="right").tolist()
        pairs = list(zip(x[by_lo].tolist(), y[by_lo].tolist()))
        for i, end in enumerate(ends):
            for j in range(i + 1, end):
                for a1, a2 in index_pairs(*pairs[i]):
                    for b1, b2 in index_pairs(*pairs[j]):
                        if abs((e[a1] + e[a2]) - (e[b1] + e[b2])) <= tol:
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
    the integrand's peak d^{2k}. A node tau = (p + x) h of panel p, with
    x in [0, 1] and h = D / panels, has e^{i E_j tau} = e^{i E_j p h}
    e^{i E_j x h}, so (panels + nodes) * d complex exponentials and, per
    chunk of panels, one (panels, d) @ (d, nodes) product give S at every
    node: the panels * nodes * d terms of S cost one GEMM, against the
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
    terms = panels * QUAD_NODES * d
    if terms > MAX_FP_TERMS:
        raise ValueError(f"{terms} terms of S exceed the enumeration guard")
    nodes, w = _panel_rule()
    # energies centred so phases stay small
    shifted = e - (e.max() + e.min()) / 2
    h = dt / panels
    node_factors = np.exp(1j * np.multiply.outer(shifted, nodes * h))
    per_chunk = max(1, QUAD_CHUNK_ENTRIES // max(d, QUAD_NODES))
    total = 0.0
    for start in range(0, panels, per_chunk):
        p = np.arange(start, min(start + per_chunk, panels))
        s = np.exp(1j * np.multiply.outer(p * h, shifted)) @ node_factors
        u = (p[:, None] + nodes) / panels
        total += float((w * (1 - u)).ravel()
                       @ (s.real**2 + s.imag**2).ravel() ** k)
    return total / panels


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """The QUAD_NODES-point Gauss-Legendre rule, nodes mapped to [0, 1] and
    weights kept for [-1, 1]; built once per process, read-only.

    Golub-Welsch: the nodes are the eigenvalues of the Legendre Jacobi
    matrix and the weights twice the squared first components of its
    eigenvectors. The same rule as leggauss to 6e-16 in the nodes and
    1e-13 relative in the weights, from the numpy.linalg the package
    already loads, where leggauss would first import numpy.polynomial
    (about 4 ms).
    """
    k = np.arange(1, QUAD_NODES)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1), -1))
    nodes, w = (1 + x) / 2, 2 * v[0] ** 2
    nodes.flags.writeable = w.flags.writeable = False
    return nodes, w
