"""Moment maps, finite phase designs and per-sample frame potentials of
random diagonal unitaries, for tests.

The package computes frame potentials in closed form or by a factored
quadrature and draws Monte-Carlo samples from closed-form streams; these
definitions, enumerations, per-node sums and per-sample Generator loops
are what it is checked against.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from hamshadow.rdu import (
    MAX_FP_TERMS,
    QUAD_HALF_PHASE,
    QUAD_NODES,
    DegeneracySpec,
)
from hamshadow.sampler import substream
from hamshadow.times import ENERGY_RESOLUTION, check_window

MAX_DESIGN_SIZE = 2**24


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
    keys = [tuple(sorted(t)) for t in itertools.product(range(d), repeat=k)]
    ids = {}
    key_id = np.array([ids.setdefault(key, len(ids)) for key in keys])
    mask = key_id[:, None] == key_id[None, :]
    return np.where(mask, m, 0.0)


def phi2_with_energies(m, spec: DegeneracySpec) -> np.ndarray:
    """Second moment map for the phase ensemble generated by fixed energies.

    An element (ij, kl) survives iff E_i + E_j - E_k - E_l = 0 within the
    energy resolution. For generic energies this reduces to
    ``phi_k_diagonal(m, 2)``; first-order degeneracies and second-order
    resonances add exactly the extra surviving patterns.
    """
    m = np.asarray(m, dtype=complex)
    d = len(spec.energies)
    if m.shape != (d * d, d * d):
        raise ValueError("matrix dimension does not match energy count squared")
    e = spec.energies
    s = (e[:, None] + e[None, :]).reshape(-1)  # pair sums, index = i*d+j
    mask = np.abs(s[:, None] - s[None, :]) <= ENERGY_RESOLUTION
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


def compositions(k: int, d: int) -> np.ndarray:
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


def multinomial(k: int, comp: np.ndarray) -> np.ndarray:
    coefs = np.full(len(comp), math.factorial(k), dtype=float)
    for col in comp.T:
        coefs /= np.array([math.factorial(int(c)) for c in col])
    return coefs


def frame_potential_direct_sum(spec: DegeneracySpec, k: int,
                               t_min: float, t_max: float) -> float:
    """The window frame potential on the package's composite Gauss-Legendre
    rule, with S(tau) = sum_j e^{i E_j tau} summed directly at every node:
    one complex exponential per term, panels * nodes * d in all."""
    check_window(t_min, t_max)
    e = spec.energies
    d = len(e)
    dt = t_max - t_min
    width = k * float(e.max() - e.min()) * dt
    if width == 0:
        return float(d) ** (2 * k)
    panels = max(1, math.ceil(width / (2 * QUAD_HALF_PHASE)))
    if panels * QUAD_NODES * d > MAX_FP_TERMS:
        raise ValueError("too many terms for the direct sum")
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    shifted = e - (e.max() + e.min()) / 2
    per_chunk = max(1, 2**16 // (QUAD_NODES * d))
    total = 0.0
    for start in range(0, panels, per_chunk):
        p = np.arange(start, min(start + per_chunk, panels))
        u = ((p[:, None] + (1 + x) / 2) / panels).ravel()
        s = np.exp(1j * np.multiply.outer(u * dt, shifted)).sum(axis=1)
        total += float(((np.tile(w, len(p)) * (1 - u))
                        @ (s.real**2 + s.imag**2) ** k))
    return total / panels


def frame_potential_mc_loop(sampler, k: int, num_samples: int,
                            seed: int) -> tuple[float, float]:
    """Pair-sample Monte-Carlo estimate of E|Tr(U^dag V)|^{2k}, one
    Generator per sample.

    ``sampler(rng)`` must return the diagonal of one unitary as a complex
    vector; sample i draws U then V from substream(seed, i).
    """
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
