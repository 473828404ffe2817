"""Moment calculus of random diagonal unitaries.

Exact moment maps, degeneracy-modified second moments, finite phase
designs, and frame potentials: the ideal multinomial closed form, the
finite-window value and Monte-Carlo estimates.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_DESIGN_SIZE = 2**24
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


def _index_tuples(d: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(d), repeat=k))


def phi_k_diagonal(m, k: int) -> np.ndarray:
    """k-th moment map of ideal random diagonal unitaries.

    An element m[(i1..ik), (j1..jk)] survives iff the row and column index
    tuples agree as multisets; every other element is zeroed.
    """
    if k not in (1, 2, 3):
        raise ValueError("only moment orders 1, 2, 3 are supported")
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    d = round(n ** (1.0 / k))
    if d**k != n or m.shape != (n, n):
        raise ValueError(f"matrix dimension {m.shape} is not a {k}-fold power")
    keys = [tuple(sorted(t)) for t in _index_tuples(d, k)]
    ids = {}
    key_id = np.array([ids.setdefault(key, len(ids)) for key in keys])
    mask = key_id[:, None] == key_id[None, :]
    return np.where(mask, m, 0.0)


def phi2_with_energies(m, spec: DegeneracySpec) -> np.ndarray:
    """Second moment map for the phase ensemble generated by fixed energies.

    An element (ij, kl) survives iff E_i + E_j - E_k - E_l = 0 within the
    spec resolution. For generic energies this reduces to
    ``phi_k_diagonal(m, 2)``; first-order degeneracies and second-order
    resonances add exactly the extra surviving patterns.
    """
    m = np.asarray(m, dtype=complex)
    d = spec.dim
    if m.shape != (d * d, d * d):
        raise ValueError("matrix dimension does not match energy count squared")
    e = spec.energies
    s = (e[:, None] + e[None, :]).reshape(-1)  # pair sums, index = i*d+j
    mask = np.abs(s[:, None] - s[None, :]) <= spec.resolution
    return np.where(mask, m, 0.0)


@dataclass(frozen=True)
class DiagonalDesign:
    """Finite phase ensemble matching RDU moments up to order k.

    Each coordinate phase is drawn from {2*pi*m/(k+1) : m = 0..k}. The full
    product set has (k+1)^d members; ``enumerate_phases`` materializes it
    when that is desk-sized, ``sample`` draws uniformly from it otherwise.
    """

    k: int
    d: int

    def __post_init__(self):
        if self.k not in (1, 2, 3):
            raise ValueError("design order must be 1, 2, or 3")
        if self.d < 1:
            raise ValueError("dimension must be positive")

    @property
    def size(self) -> int:
        return (self.k + 1) ** self.d

    @property
    def enumerable(self) -> bool:
        return self.size <= MAX_DESIGN_SIZE

    def enumerate_phases(self) -> np.ndarray:
        """All phase vectors, shape (size, d)."""
        if not self.enumerable:
            raise ValueError(
                f"design of size {self.size} exceeds the enumeration guard")
        base = 2 * np.pi * np.arange(self.k + 1) / (self.k + 1)
        grids = np.meshgrid(*([base] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        m = rng.integers(0, self.k + 1, size=(n, self.d))
        return 2 * np.pi * m / (self.k + 1)


def diagonal_design(k: int, d: int) -> DiagonalDesign:
    return DiagonalDesign(k, d)


def _compositions(k: int, d: int) -> np.ndarray:
    """All tuples of d non-negative integers summing to k, shape (n, d)."""
    out = []
    for bars in itertools.combinations(range(k + d - 1), d - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(k + d - 2 - prev)
        out.append(comp)
    return np.array(out, dtype=np.int64)


def _multinomial(k: int, comp: np.ndarray) -> np.ndarray:
    coefs = np.full(len(comp), math.factorial(k), dtype=float)
    for col in comp.T:
        coefs /= np.array([math.factorial(int(c)) for c in col])
    return coefs


def frame_potential_rdu_exact(k: int, d: int) -> float:
    """Frame potential of ideal random diagonal unitaries.

    Evaluates the multinomial sum sum_{n1+..+nd=k} multinom(k; n)^2, which
    equals d, 2d^2-d, 6d^3-9d^2+4d for k = 1, 2, 3.
    """
    if k not in (1, 2, 3):
        raise ValueError("only k = 1, 2, 3 are supported")
    comp = _compositions(k, d)
    return float(np.sum(_multinomial(k, comp) ** 2))


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


def frame_potential_mc(sampler, k: int, num_samples: int,
                       seed: int) -> tuple[float, float]:
    """Pair-sample Monte-Carlo estimate of E|Tr(U^dag V)|^{2k}.

    ``sampler(rng)`` must return the diagonal of one unitary as a complex
    vector. Each sample uses an independent counter-based substream, so the
    estimate is reproducible regardless of evaluation order.
    """
    from .sampler import substream

    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    vals = np.empty(num_samples)
    for i in range(num_samples):
        rng = substream(seed, i)
        u = sampler(rng)
        v = sampler(rng)
        vals[i] = np.abs(np.vdot(u, v)) ** (2 * k)
    est = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / np.sqrt(num_samples))
    return est, err


def rdu_sampler(d: int):
    """Sampler of ideal random-diagonal-unitary diagonals."""
    def draw(rng: np.random.Generator) -> np.ndarray:
        return np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))
    return draw


def window_sampler(energies, t_min: float, t_max: float):
    """Sampler of diagonals exp(-i E t) with t uniform in the window."""
    check_window(t_min, t_max)
    energies = np.asarray(energies, dtype=float)
    def draw(rng: np.random.Generator) -> np.ndarray:
        t = rng.uniform(t_min, t_max)
        return np.exp(-1j * energies * t)
    return draw
