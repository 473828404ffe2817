"""Simulated quench-measurement experiments.

Each shot evolves the target state under the Hamiltonian for a random
time (or with ideal random phases), samples a bitstring from the Born
distribution, and records a snapshot. Shot i draws from the Philox
stream of ``substream(seed, i)``, so a batch is a pure function of its
arguments regardless of evaluation order. That stream is computed in
closed form for a block of shots at once: the SeedSequence keys, the
Philox4x64-10 blocks and the Generator's conversions to doubles and
bounded integers run as numpy array arithmetic, and a test pins the
result to ``substream(seed, i)`` draw for draw. The Born distributions
of a chunk of shots then come from one row-ordered product: the unit
phasors e^{i phi} of its phase vectors, formed by ``_unit_phasors`` from a
256-entry table and short polynomials rather than a complex ``exp``, times
the (d, rank x d) factor of the state and the eigenbasis, built once per
batch. The phasors agree with ``np.exp(1j * phi)`` to within 2e-15, so the
probabilities differ from an ``exp`` kernel's at rounding level only, which
could move an outcome only if its uniform variate fell within rounding
distance of a cdf boundary.
"""

from __future__ import annotations

import base64
import math
import operator
import os
import re
import stat
from dataclasses import dataclass, field

import numpy as np

from .qmatrix import SpectralHamiltonian, _sealed, as_complex, is_hermitian
from .rdu import check_window
from .shadowmap import hamiltonian_fingerprint

BORN_TOL = 1e-9
# Complex entries of the (d, shots x rank) matrix that one chunk of shots
# multiplies by V, and about the 64-bit words of one block of shot streams:
# 256 KiB per work array, whatever d and the state's rank.
CHUNK_ENTRIES = 2**14
# Shot counts must stay below this: each shot index is one 32-bit word of its
# substream's spawn key.
SHOT_LIMIT = 2**32

# _unit_phasors: e^{i phi} = T[n mod 256] e^{i r} with n = rint(phi / STEP),
# STEP = 2 pi / 256 and |r| <= STEP / 2. STEP splits into three parts (Cody
# and Waite): the first two hold 21 significant bits each, so n times them is
# exact while |n| < 2**32 (|phi| below about 1e8), and the last holds the rest
# of fl(2 pi) / 256 together with (2 pi - fl(2 pi)) / 256.
_TABLE_SIZE = 256
_TWO_PI_LOW = 2.4492935982947064e-16  # 2 pi - fl(2 pi)


def _leading_bits(x: float, bits: int) -> float:
    m, e = math.frexp(x)
    return math.ldexp(math.floor(math.ldexp(m, bits)), e - bits)


_STEP = 2 * math.pi / _TABLE_SIZE
_STEP_1 = _leading_bits(_STEP, 21)
_STEP_2 = _leading_bits(_STEP - _STEP_1, 21)
_STEP_3 = (_STEP - _STEP_1 - _STEP_2) + _TWO_PI_LOW / _TABLE_SIZE
# Taylor coefficients of cos r (degree 8) and sin r (degree 7), highest
# first; on |r| <= pi / 256 the truncation error is below 1e-22.
_COS_COEFFS = (1 / 40320, -1 / 720, 1 / 24, -1 / 2)
_SIN_COEFFS = (-1 / 5040, 1 / 120, -1 / 6)


def _phasor_table() -> np.ndarray:
    """T[j] = e^{2 pi i j / 256}: cos and sin of the rounded angle j STEP,
    corrected to first order by its residual from the split parts."""
    j = np.arange(_TABLE_SIZE, dtype=float)
    angle = j * _STEP
    residual = ((j * _STEP_1 - angle) + j * _STEP_2) + j * _STEP_3
    cos, sin = np.cos(angle), np.sin(angle)
    return (cos - sin * residual) + 1j * (sin + cos * residual)


_PHASOR_TABLE = _phasor_table()

_M32 = 0xFFFFFFFF
# SeedSequence (numpy/random/bit_generator.pyx): pool size and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10 (Random123): round multipliers and Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for (seed, path...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# The streams of substream(seed, i) for a block of shots i at once.
#
# The helpers take Python ints and uint64 arrays alike. A 32-bit word is
# held in a uint64 and masked after each product, and every array operand
# is a uint64 array, so no result depends on numpy's promotion rules.
# ---------------------------------------------------------------------------

def _hashmix(value, const: int, mult: int = _MULT_A) -> tuple:
    """SeedSequence's hashmix of value under hash constant const: (hash, next const)."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _philox_keys(seed: int, shots: np.ndarray) -> tuple:
    """Philox keys (k0, k1) of substream(seed, i) for each i in shots, uint64 arrays.

    SeedSequence(seed, spawn_key=(i,)) pads the seed's 32-bit words (low
    first) with zeros to the pool size, appends i as one more word, hashes
    the words into a four-word pool, and Philox keys itself from the pool's
    generate_state(2, uint64). Only the last word depends on the shot, so
    everything before it runs on Python ints.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [(seed >> 32 * j) & _M32 for j in range(max(1, -(-seed.bit_length() // 32)))]
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A
    pool = []
    for w in words[:_POOL_SIZE]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for w in words[_POOL_SIZE:] + [np.asarray(shots, dtype=np.uint64)]:
        for dst in range(_POOL_SIZE):
            h, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], h)
    const = _INIT_B
    for j, w in enumerate(pool):
        pool[j], const = _hashmix(w, const, _MULT_B)
    return pool[0] | pool[1] << 32, pool[2] | pool[3] << 32


def _mulhilo(a: int, b: np.ndarray) -> tuple:
    """(high, low) 64-bit words of the 128-bit product a * b.

    The high word is summed from 32-bit limb products, none of which
    overflows (Hacker's Delight, mulhu); the low word is the wrapped product.
    """
    a_lo, a_hi = a & _M32, a >> 32
    b_lo, b_hi = b & _M32, b >> 32
    t = a_hi * b_lo + (a_lo * b_lo >> 32)
    mid = a_lo * b_hi + (t & _M32)
    return a_hi * b_hi + (t >> 32) + (mid >> 32), b * a


def _philox(k0: np.ndarray, k1: np.ndarray, blocks: int) -> np.ndarray:
    """(n, 4 blocks) uint64: Philox4x64-10 of counters 1..blocks under keys (n,).

    A new numpy Philox bumps its counter before each block of four words,
    so row j is the first 4 blocks next_uint64 values of key (k0[j], k1[j]).
    """
    n = len(k0)
    k0, k1 = k0[:, None], k1[:, None]
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (n, blocks))
    c1 = c2 = c3 = np.zeros((n, blocks), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=2).reshape(n, 4 * blocks)


def _doubles(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each next_uint64 word: its top 53 bits times 2^-53."""
    return (words >> 11) * 2.0**-53


def _lemire_rejects(leftover: np.ndarray, span: int) -> np.ndarray:
    """Where Generator.integers(0, span) rejects a 32-bit draw and draws again.

    Lemire's method rejects when the low word of draw * span is below
    2^32 mod span: never for span 2 or 4, for span 3 a zero draw.
    """
    return leftover < (2**32 - span) % span


def _evolution_draws(seed: int, shots: np.ndarray, tm: TimeModel,
                     width: int) -> tuple:
    """(x, u): width evolution draws (n, width) and the outcome variate (n,)
    that substream(seed, i) makes for each shot i in shots.

    x is what ``width`` draws of rng.uniform(t_min, t_max) (uniform-window),
    rng.uniform(0, 2 pi) (ideal-rdu) or the design grid
    2 pi rng.integers(0, k + 1) / (k + 1) give, in any split into calls;
    u is the rng.random() after them. Integers take the 32-bit halves of
    each 64-bit word, low half first, and random() takes a fresh word. A
    shot whose integers Lemire's method would reject is drawn from its own
    substream instead.
    """
    k0, k1 = _philox_keys(seed, shots)
    if tm.kind != "design":
        low, high = ((tm.t_min, tm.t_max) if tm.kind == "uniform-window"
                     else (0.0, 2 * np.pi))
        u = _doubles(_philox(k0, k1, -(-(width + 1) // 4))[:, :width + 1])
        return low + (high - low) * u[:, :width], u[:, width]
    span = tm.k + 1
    used = -(-width // 2)
    out = _philox(k0, k1, -(-(used + 1) // 4))
    halves = np.stack([out[:, :used] & _M32, out[:, :used] >> 32], axis=2)
    scaled = halves.reshape(len(shots), 2 * used)[:, :width] * span
    x = 2 * np.pi * (scaled >> 32) / span
    u = _doubles(out[:, used])
    for j in np.flatnonzero(_lemire_rejects(scaled & _M32, span).any(axis=1)):
        rng = substream(seed, int(shots[j]))
        x[j] = 2 * np.pi * rng.integers(0, span, size=width) / span
        u[j] = rng.random()
    return x, u


# the fields each kind of TimeModel reads, in describe() order, and their types
_KIND_FIELDS = {"uniform-window": {"t_min": float, "t_max": float},
                "ideal-rdu": {}, "design": {"k": int}}


@dataclass(frozen=True)
class TimeModel:
    """How the random evolution is drawn for each shot.

    kind is "uniform-window" (t uniform in [t_min, t_max] us),
    "ideal-rdu" (iid uniform phases, no time), or "design" (phases from
    the finite k-design grid).
    """

    kind: str
    t_min: float = 0.0
    t_max: float = 0.0
    k: int = 2

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"unknown time model {self.kind!r}")
        if self.kind == "uniform-window":
            check_window(self.t_min, self.t_max)
            if not self.t_min >= 0:
                raise ValueError("uniform-window requires t_min >= 0")
        if self.kind == "design" and self.k not in (1, 2, 3):
            raise ValueError("design order must be 1, 2, or 3")
        # fields as describe() writes and parse() reads them: the ones the
        # kind does not read take their defaults
        window = self.kind == "uniform-window"
        object.__setattr__(self, "t_min", float(self.t_min) if window else 0.0)
        object.__setattr__(self, "t_max", float(self.t_max) if window else 0.0)
        object.__setattr__(self, "k", int(self.k) if self.kind == "design" else 2)

    def describe(self) -> str:
        return " ".join([self.kind, *(f"{key}={getattr(self, key)!r}"
                                      for key in _KIND_FIELDS[self.kind])])

    @staticmethod
    def parse(text: str) -> "TimeModel":
        """The model whose describe() is text; ValueError on any other text."""
        kind, *tokens = text.split(" ")
        types = _KIND_FIELDS.get(kind, {})  # TimeModel refuses an unknown kind
        fields = [token.partition("=") for token in tokens]
        if [(key, sep) for key, sep, _ in fields] != [(key, "=") for key in types]:
            form = " ".join([kind, *(f"{key}=<{key}>" for key in types)])
            raise ValueError(f"time model {text!r} is not of the form {form!r}")
        tm = TimeModel(kind, **{key: types[key](value) for key, _, value in fields})
        if tm.describe() != text:  # float() and int() also read "1", "2e1", "+2"
            raise ValueError(f"time model {text!r} is not as describe() writes it")
        return tm


@dataclass(frozen=True)
class Snapshot:
    """One experiment record: evolution time or phase vector, plus outcome."""

    bitstring: int
    time: float | None = None
    phases: np.ndarray | None = None

    def __post_init__(self):
        if (self.time is None) == (self.phases is None):
            raise ValueError("exactly one of time/phases must be set")
        if self.phases is not None:
            object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        if self.bitstring < 0:
            raise ValueError("bitstring must be a non-negative basis index")


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, just built here, made read-only, so that SnapshotSet keeps it
    without a copy."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """K >= 1 snapshots as columns: outcome indices ``bits`` (K,) and the
    one its time model records, ``times`` (K,), in us, for a uniform window,
    else ``phases`` (K, d), times within the window; an integer seed, and a
    fingerprint of printable ASCII without whitespace.

    The columns are read-only C-ordered copies of the arrays passed in (an
    array that is already read-only and owns its memory is kept as it is),
    so a later write by the caller cannot bypass the checks made here or
    leave stale the amplitude matrix Z that ``estimators.snapshot_amplitudes``
    keeps on the set. That Z costs 16 K d bytes while it is held.
    """

    bits: np.ndarray
    hamiltonian_fingerprint: str
    seed: int
    time_model: TimeModel
    times: np.ndarray | None = None
    phases: np.ndarray | None = None
    # (SpectralHamiltonian, Z) of the last gather; set by snapshot_amplitudes
    _amplitudes: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        timed = self.time_model.kind == "uniform-window"
        if (self.times is None) == timed or (self.phases is None) != timed:
            raise ValueError(f"time_model={self.time_model.describe()} records "
                             f"{'times' if timed else 'phases'} and nothing else")
        pattern, kind = _HEADER_FIELDS["fingerprint"]  # as a file's header holds it
        if not re.fullmatch(pattern, self.hamiltonian_fingerprint):
            raise ValueError(f"the fingerprint is not {kind}")
        object.__setattr__(self, "seed", operator.index(self.seed))
        bits = _sealed(self.bits, np.int64)
        evolution = _sealed(self.times if timed else self.phases, float)
        if (bits.ndim != 1 or evolution.ndim != (1 if timed else 2)
                or len(evolution) != len(bits) or not evolution.size):
            raise ValueError(f"outcomes of shape {bits.shape} and evolutions of "
                             f"shape {evolution.shape} are not K >= 1 records")
        if bits.min() < 0:
            raise ValueError("bitstring must be a non-negative basis index")
        lo, hi = self.time_model.t_min, self.time_model.t_max
        if timed and not np.all((lo <= evolution) & (evolution <= hi)):
            raise ValueError(f"a time lies outside the window [{lo!r}, {hi!r}] us")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "times" if timed else "phases", evolution)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def snapshots(self) -> list:
        """The rows as Snapshot records, built from the columns on each access."""
        bits = self.bits.tolist()
        if self.times is not None:
            return [Snapshot(b, time=t) for b, t in zip(bits, self.times.tolist())]
        return [Snapshot(b, phases=ph) for b, ph in zip(bits, self.phases)]


def _snapshot_columns(snaps) -> tuple:
    """(bits, times, phases) of a SnapshotSet or a sequence of Snapshot rows.

    Rows are stacked into columns; ValueError unless they all hold times or
    all hold phase vectors of one length.
    """
    if isinstance(snaps, SnapshotSet):
        return snaps.bits, snaps.times, snaps.phases
    rows = list(snaps)
    bits = np.array([s.bitstring for s in rows], dtype=np.int64)
    if all(s.time is not None for s in rows):
        return bits, np.array([s.time for s in rows], dtype=float), None
    return bits, None, np.array([s.phases for s in rows], dtype=float)


def _factor_state(rho_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, l) with rho_H = sum_r w_r l_r l_r^dag, rounding-level pairs dropped.

    A pure state keeps rank 1. eigh reads one triangle only, so a
    non-Hermitian input is refused rather than silently symmetrised.
    """
    rho_h = as_complex(rho_h)
    if not is_hermitian(rho_h):
        raise ValueError("state is not Hermitian; Born probabilities need rho = rho^dag")
    w, l = np.linalg.eigh(rho_h)
    keep = np.abs(w) > len(w) * np.finfo(float).eps * max(1.0, np.abs(w).max())
    return w[keep], l[:, keep]


def _unit_phasors(phi: np.ndarray) -> np.ndarray:
    """e^{i phi} elementwise, complex, within 2e-15 of np.exp(1j * phi).

    The error bound holds for |phi| below about 1e8 (see _STEP_1); 0 maps
    to exactly 1, and a non-finite phase to nan, with no warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        n = phi * (1 / _STEP)
        np.rint(n, out=n)
        r = n * -_STEP_1
        r += phi  # exact: n STEP_1 is exact and close to phi
        part = n * _STEP_2
        r -= part
        r -= np.multiply(n, _STEP_3, out=part)
        index = n.astype(np.int64)
    index &= _TABLE_SIZE - 1
    r2 = np.multiply(r, r, out=n)
    c = r2 * _COS_COEFFS[0]
    for coeff in _COS_COEFFS[1:]:
        c += coeff
        c *= r2
    c += 1.0
    s = np.multiply(r2, _SIN_COEFFS[0], out=part)
    for coeff in _SIN_COEFFS[1:]:
        s += coeff
        s *= r2
    s *= r
    s += r
    rot = np.empty(phi.shape, dtype=complex)
    rot.real, rot.imag = c, s
    out = _PHASOR_TABLE[index]
    out *= rot
    return out


def _born_factor(v: np.ndarray, l: np.ndarray) -> np.ndarray:
    """(d, r d) B with (e^{i phi} @ B)[r d + b] = (V diag(e^{i phi}) l_r)_b."""
    d, r = l.shape
    return (l[:, :, None] * v.T[:, None, :]).reshape(d, r * d)


def _born_rows(factor: np.ndarray, w: np.ndarray,
               phases: np.ndarray) -> np.ndarray:
    """Checked Born distributions, one row per phase vector of (K, d) phases.

    p[k, b] = sum_r w_r |(e^{i phi_k} @ B)[r d + b]|^2 for the factor B of
    _born_factor, all K rows from one (K, d) @ (d, r d) product.
    """
    k, d = phases.shape
    a = (_unit_phasors(phases) @ factor).view(float)
    a *= a
    sq = a[:, ::2] + a[:, 1::2]
    terms = sq.reshape(k, len(w), d)
    terms *= w[:, None]
    p = terms.sum(axis=1)
    total = p.sum(axis=1)
    bad = ~(np.abs(total - 1.0) < BORN_TOL)
    if bad.any():
        raise ValueError(f"Born distribution sums to {float(total[bad][0])!r}; "
                         "input is corrupted")
    np.clip(p, 0.0, None, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _choose(p: np.ndarray, u) -> np.ndarray:
    """Outcome of each row, as Generator.choice(d, p=row) picks it from u.

    choice draws one random() and returns cdf.searchsorted(u, "right") on
    cdf = cumsum(p) / cdf[-1]; the count of cdf entries <= u is that index.
    """
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= np.asarray(u)[:, None], axis=1)


def _sample(h: SpectralHamiltonian, rho, tm: TimeModel, num_shots: int,
            seed: int) -> tuple:
    """(draws, outcomes) of rho measured after evolving under h, one row per shot.

    Shot i draws its time (uniform-window) or its d phases (otherwise) and
    then one uniform variate, which picks the outcome as
    ``rng.choice(d, p=p)`` would, all from the stream of substream(seed, i)
    (see _evolution_draws). The draws are made in blocks of about
    CHUNK_ENTRIES words, so that the fixed cost of a block is spread over
    many shots whatever the state's rank; each block is then split into
    Born chunks that bound the (d, shots x rank) product at CHUNK_ENTRIES
    entries. The draws, and hence the outcomes, do not depend on either
    partition.
    """
    if num_shots >= SHOT_LIMIT:
        raise ValueError("num_shots must be below 2**32, so that each shot "
                         "index is one spawn-key word")
    v = h.eigenbasis
    window = tm.kind == "uniform-window"
    width = 1 if window else h.dim
    w, l = _factor_state(v.conj().T @ rho @ v)
    factor = _born_factor(v, l)
    chunk = max(1, CHUNK_ENTRIES // (h.dim * max(1, len(w))))
    block = max(chunk, CHUNK_ENTRIES // (width + 1))
    # filled in place, so the draws never exist twice (as blocks and joined)
    draws = np.empty((num_shots, width))
    outcomes = np.empty(num_shots, dtype=np.int64)
    for start in range(0, num_shots, block):
        shots = np.arange(start, min(start + block, num_shots), dtype=np.uint64)
        x, u = _evolution_draws(seed, shots, tm, width)
        draws[start:start + len(shots)] = x
        for j in range(0, len(shots), chunk):
            phases = -h.energies * x[j:j + chunk] if window else x[j:j + chunk]
            outcomes[start + j:start + min(j + chunk, len(shots))] = _choose(
                _born_rows(factor, w, phases), u[j:j + chunk])
    return draws, outcomes


def born_probabilities(h: SpectralHamiltonian, rho_h: np.ndarray,
                       phases: np.ndarray) -> np.ndarray:
    """p(b) = <b| V Lam rho_H conj(Lam) V^dag |b> for all outcomes b.

    ``phases`` is one phase vector (d,) or a batch (K, d); the result has
    the same shape, one distribution per phase vector.
    """
    phases = np.asarray(phases, dtype=float)
    w, l = _factor_state(rho_h)
    p = _born_rows(_born_factor(h.eigenbasis, l), w, np.atleast_2d(phases))
    return p[0] if phases.ndim == 1 else p


def _evolution_columns(tm: TimeModel, records) -> dict:
    """The times (K,) or phases (K, d) keyword of SnapshotSet for tm."""
    return {"times" if tm.kind == "uniform-window" else "phases": _read_only(records)}


def run_batch(h: SpectralHamiltonian, rho, tm: TimeModel,
              num_shots: int, seed: int) -> SnapshotSet:
    """Deterministic batch: shot i uses substream (seed, i)."""
    if num_shots < 1:
        raise ValueError("num_shots must be at least 1")
    rho = as_complex(rho)
    if rho.shape != (h.dim, h.dim):
        raise ValueError(f"state of shape {rho.shape} does not match the "
                         f"Hamiltonian's dimension {h.dim}")
    x, bits = _sample(h, rho, tm, num_shots, seed)
    window = tm.kind == "uniform-window"
    return SnapshotSet(_read_only(bits), hamiltonian_fingerprint(h), int(seed),
                       tm, **_evolution_columns(tm, x[:, 0] if window else x))


# ---------------------------------------------------------------------------
# Snapshot text format: ASCII lines, each ending in "\n", exactly
#
#   # hamshadow snapshots v2
#   # fingerprint=<printable ASCII>       the _HEADER_FIELDS lines, in order
#   # seed=<int>
#   # time_model=<TimeModel.describe()>
#   # shots=<K>
#   t_us=<float> b=<int>   (or)   phases=<base64> b=<int>     (K rows of one kind)
#
# with no blank line, no other field and no other whitespace. A <float> is
# a string that repr() writes for a Python float, such as 2.5, -0.0, 1e-05
# or nan, and no other that float() reads, such as 1_0.0, +2.0 or 2.
# A v2 phase row holds the standard base64 of its d little-endian IEEE-754
# doubles, so it is written and read without formatting or parsing a float
# and round-trips bit for bit. v1 files, whose phase rows are the reprs
# r1,r2,... of the doubles, still load; no other version does.
# ---------------------------------------------------------------------------

_VERSION_PREFIX = "# hamshadow snapshots "
# the header lines in order, which the manifest shares: each key, the pattern
# of its value and what that reads (the time model is then parsed)
_HEADER_FIELDS = {"fingerprint": ("[!-~]*", "printable ASCII without whitespace"),
                  "seed": ("-?[0-9]+", "an integer"),
                  "time_model": ("[ -~]*", "printable ASCII"),
                  "shots": ("[0-9]+", "a non-negative integer")}
# what repr() writes for a float: a t_us= payload and each value of a v1 one
_FLOAT = r"(?:-?[0-9]+\.[0-9]+(?:e[-+][0-9]+|)|-?[0-9]+e[-+][0-9]+|-?inf|nan)"
# the row pattern of each (version, kind), with the groups payload and
# outcome, compiled when a file needs it; a v2 phase payload is then checked
# by its decoder
_ROWS = {(version, kind): rf"{kind}=({payload}) b=([0-9]+)\n"
         for version, phases in (("v1", rf"{_FLOAT}(?:,{_FLOAT})*"), ("v2", "[!-~]+"))
         for kind, payload in (("t_us", _FLOAT), ("phases", phases))}


def _record_fields(snaps: SnapshotSet) -> list:
    """The key=value lines a snapshot file's header and a manifest share."""
    values = (snaps.hamiltonian_fingerprint, snaps.seed,
              snaps.time_model.describe(), len(snaps))
    return [f"{key}={value}" for key, value in zip(_HEADER_FIELDS, values)]


def save_snapshots(path, snaps: SnapshotSet) -> None:
    bits = snaps.bits.tolist()
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(f"{_VERSION_PREFIX}v2\n")
        f.writelines(f"# {field}\n" for field in _record_fields(snaps))
        if snaps.time_model.kind == "uniform-window":
            f.writelines(f"t_us={t!r} b={b}\n"
                         for t, b in zip(snaps.times.tolist(), bits))
        else:
            rows = np.ascontiguousarray(snaps.phases, dtype="<f8")
            f.writelines(f"phases={base64.b64encode(ph).decode('ascii')} b={b}\n"
                         for ph, b in zip(rows, bits))


def _v1_phases(payload: str) -> bytes:
    """The little-endian doubles of a v1 payload r1,r2,..."""
    return np.array([float(x) for x in payload.split(",")], dtype="<f8").tobytes()


def _v2_phases(payload: str) -> bytes:
    """The little-endian doubles of a v2 payload; ValueError unless it is
    strict base64 of a whole, non-zero number of doubles."""
    raw = base64.b64decode(payload, validate=True)
    if not raw or len(raw) % 8:
        raise ValueError(f"{len(raw)} bytes are not whole doubles")
    return raw


_PHASE_DECODERS = {"v1": _v1_phases, "v2": _v2_phases}


def _parse_header(path, lines) -> tuple:
    """(version, fingerprint, seed, time model, shots) of a snapshot file's
    first five (line number, line) pairs: a v1 or v2 version line, then the
    _HEADER_FIELDS lines in order. ValueError, naming the file, on any other."""
    line = next(lines, (1, ""))[1]
    if not line.startswith(_VERSION_PREFIX):
        raise ValueError(f"{path}: no '{_VERSION_PREFIX}v<n>' version line")
    version = line[len(_VERSION_PREFIX):].removesuffix("\n")
    if version not in _PHASE_DECODERS:
        raise ValueError(f"{path}: unknown snapshot format version "
                         f"{version!r}; this reader knows v1 and v2")
    values = []
    for lineno, (key, (pattern, kind)) in enumerate(_HEADER_FIELDS.items(), start=2):
        header = re.fullmatch(f"# {key}=(.*)\n", next(lines, (lineno, ""))[1])
        if header is None:
            raise ValueError(f"{path}: no {key} header on line {lineno}")
        value = header[1]
        if not re.fullmatch(pattern, value):
            raise ValueError(f"{path}: bad {key} header {value!r}: not {kind}")
        values.append(value)
    fingerprint, seed, time_model, shots = values
    try:
        tm = TimeModel.parse(time_model)
    except ValueError as e:
        raise ValueError(f"{path}: bad time_model header {time_model!r}") from e
    return version, fingerprint, int(seed), tm, int(shots)


def _malformed(path, lineno: int, line: str) -> ValueError:
    return ValueError(f"{path}: line {lineno}: malformed snapshot row {line[:60]!r}")


def load_snapshots(path) -> SnapshotSet:
    """Read a v1 or v2 snapshot file into columns.

    ValueError on a header that _parse_header refuses, on a file without rows
    or other than shots= of them, and, naming the line, on a row that does
    not match the _ROWS pattern of its version and of the kind the time
    model records (a byte outside ASCII reads as a lone surrogate; a row of
    the other kind is named as such), whose payload does not decode, whose
    time lies outside the window, whose outcome exceeds 64 bits or whose
    phase count differs from the first row's. Phase rows are decoded into one (K, d) array.
    """
    with open(path, encoding="ascii", errors="surrogateescape", newline="\n") as f:
        st = os.fstat(f.fileno())
        size = st.st_size if stat.S_ISREG(st.st_mode) else math.inf  # a pipe's is 0
        lines = enumerate(f, start=1)
        version, fingerprint, seed, tm, shots = _parse_header(path, lines)
        window = tm.kind == "uniform-window"
        want, other = ("t_us", "phases") if window else ("phases", "t_us")
        decode = float if window else _PHASE_DECODERS[version]
        match = re.compile(_ROWS[version, want]).fullmatch
        bits, times, phases = [], [], None
        for lineno, line in lines:
            row = match(line)
            if row is None:
                if re.fullmatch(_ROWS[version, other], line):
                    raise ValueError(f"{path}: line {lineno}: {other}= row, but "
                                     f"time_model={tm.describe()} records {want}=")
                raise _malformed(path, lineno, line)
            payload, b = row.groups()
            try:
                value = decode(payload)
            except ValueError as e:
                raise _malformed(path, lineno, line) from e
            b = int(b)
            if b >= 2**63:
                raise ValueError(f"{path}: line {lineno}: outcome b={b} "
                                 "exceeds 64 bits")
            if window:
                if not tm.t_min <= value <= tm.t_max:
                    raise ValueError(f"{path}: line {lineno}: t_us={payload} lies "
                                     f"outside the window [{tm.t_min!r}, {tm.t_max!r}] us")
                times.append(value)
            else:
                if phases is None:
                    # a row of d phases takes at least 2 d bytes of a regular
                    # file, which bounds what a false shots header can allocate
                    first_line, width = lineno, len(value)
                    phases = np.empty((min(shots, size // (width // 4)),
                                       width // 8), dtype="<f8")
                    dest = memoryview(phases.reshape(-1).view(np.uint8))
                elif len(value) != width:
                    raise ValueError(f"{path}: line {lineno}: {len(value) // 8} phases, "
                                     f"but line {first_line} holds {width // 8}")
                k = len(bits)
                if k < len(phases):  # a row beyond shots= is refused below
                    dest[k * width:(k + 1) * width] = value
            bits.append(b)
    if shots != len(bits):
        raise ValueError(f"{path}: header declares shots={shots} "
                         f"but the file holds {len(bits)} rows")
    if not bits:
        raise ValueError(f"{path}: no snapshot rows")
    col = np.array(times, dtype=float) if window else phases.astype(float, copy=False)
    return SnapshotSet(_read_only(np.array(bits, dtype=np.int64)), fingerprint,
                       seed, tm, **_evolution_columns(tm, col))


def write_manifest(path, snaps: SnapshotSet, extra: dict | None = None) -> None:
    with open(path, "w") as f:
        f.write("hamshadow manifest v1\n")
        f.writelines(f"{field}\n" for field in _record_fields(snaps))
        f.write("rng=philox seed-sequence substream per shot index\n")
        for k, v in (extra or {}).items():
            f.write(f"{k}={v}\n")
