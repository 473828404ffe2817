"""Simulated quench-measurement experiments.

Each shot evolves the target state under the Hamiltonian for a random
time (or with ideal random phases), samples a bitstring from the Born
distribution, and records a snapshot. All randomness flows through
counter-based Philox substreams keyed by (seed, shot index), so a batch
is a pure function of its arguments regardless of evaluation order.
Shots are evaluated in chunks: each shot still draws its evolution and
one uniform outcome variate from its own substream, and one matrix
product gives the Born distributions of the whole chunk.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .qmatrix import SpectralHamiltonian, as_complex, is_hermitian
from .rdu import check_window
from .shadowmap import hamiltonian_fingerprint

BORN_TOL = 1e-9
# Complex entries of the (d, shots x rank) matrix that one chunk of shots
# multiplies by V: 256 KiB per work array, whatever d and the state's rank.
CHUNK_ENTRIES = 2**14


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for (seed, path...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


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
        if self.kind not in ("uniform-window", "ideal-rdu", "design"):
            raise ValueError(f"unknown time model {self.kind!r}")
        if self.kind == "uniform-window":
            check_window(self.t_min, self.t_max)
            if not self.t_max > self.t_min >= 0:
                raise ValueError("uniform-window requires t_max > t_min >= 0")
        if self.kind == "design" and self.k not in (1, 2, 3):
            raise ValueError("design order must be 1, 2, or 3")

    def describe(self) -> str:
        if self.kind == "uniform-window":
            return f"uniform-window t_min={self.t_min!r} t_max={self.t_max!r}"
        if self.kind == "design":
            return f"design k={self.k}"
        return "ideal-rdu"

    @staticmethod
    def parse(text: str) -> "TimeModel":
        parts = text.split()
        kind = parts[0]
        kw = dict(p.split("=", 1) for p in parts[1:])
        if kind == "uniform-window":
            return TimeModel(kind, t_min=float(kw["t_min"]), t_max=float(kw["t_max"]))
        if kind == "design":
            return TimeModel(kind, k=int(kw["k"]))
        return TimeModel(kind)


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


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """K snapshots as columns: outcome indices ``bits`` (K,) and exactly one
    of the evolution ``times`` (K,), in us, or ``phases`` (K, d)."""

    bits: np.ndarray
    hamiltonian_fingerprint: str
    seed: int
    time_model: TimeModel
    times: np.ndarray | None = None
    phases: np.ndarray | None = None

    def __post_init__(self):
        if (self.times is None) == (self.phases is None):
            raise ValueError("exactly one of times/phases must be set")
        timed = self.phases is None
        bits = np.asarray(self.bits, dtype=np.int64)
        evolution = np.asarray(self.times if timed else self.phases, dtype=float)
        if (bits.ndim != 1 or evolution.ndim != (1 if timed else 2)
                or len(evolution) != len(bits)):
            raise ValueError(f"outcomes of shape {bits.shape} do not match "
                             f"evolutions of shape {evolution.shape}")
        if bits.size and bits.min() < 0:
            raise ValueError("bitstring must be a non-negative basis index")
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


def _draw_evolution(dim: int, tm: TimeModel, rng: np.random.Generator):
    """A shot's time (uniform-window) or phase vector (otherwise)."""
    if tm.kind == "uniform-window":
        return float(rng.uniform(tm.t_min, tm.t_max))
    if tm.kind == "design":
        m = rng.integers(0, tm.k + 1, size=dim)
        return 2 * np.pi * m / (tm.k + 1)
    return rng.uniform(0, 2 * np.pi, size=dim)


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


def _born_rows(v: np.ndarray, w: np.ndarray, l: np.ndarray,
               phases: np.ndarray) -> np.ndarray:
    """Checked Born distributions, one row per phase vector of (K, d) phases.

    p[k, b] = sum_r w_r |(V diag(e^{i phi_k}) l_r)_b|^2, all K rows from one
    (d, d) @ (d, K r) product.
    """
    k, d = phases.shape
    r = len(w)
    m = np.exp(1j * phases).T[:, :, None] * l[:, None, :]
    a = (v @ m.reshape(d, k * r)).reshape(d, k, r)
    p = np.ascontiguousarray(((a.real ** 2 + a.imag ** 2) @ w).T)
    total = p.sum(axis=1)
    bad = ~(np.abs(total - 1.0) < BORN_TOL)
    if bad.any():
        raise ValueError(f"Born distribution sums to {float(total[bad][0])!r}; "
                         "input is corrupted")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=1, keepdims=True)


def _choose(p: np.ndarray, u) -> np.ndarray:
    """Outcome of each row, as Generator.choice(d, p=row) picks it from u.

    choice draws one random() and returns cdf.searchsorted(u, "right") on
    cdf = cumsum(p) / cdf[-1]; the count of cdf entries <= u is that index.
    """
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= np.asarray(u)[:, None], axis=1)


def _sample(v: np.ndarray, rho, rngs, draw) -> tuple:
    """(records, outcomes) of rho measured in the eigenbasis v, one shot per rng.

    ``draw(rng)`` makes a shot's evolution draws and returns (record, phase
    vector); one ``rng.random()`` then picks the outcome, the draw that
    ``rng.choice(d, p=p)`` would make. Shots are evaluated in chunks that
    bound the (d, shots x rank) product at CHUNK_ENTRIES entries, so the
    draws, and hence the outcomes, do not depend on the chunking.
    """
    w, l = _factor_state(v.conj().T @ as_complex(rho) @ v)
    chunk = max(1, CHUNK_ENTRIES // (v.shape[0] * max(1, len(w))))

    def shots():
        for rng in rngs:
            record, phases = draw(rng)
            yield record, phases, rng.random()

    records, outcomes = [], []
    it = shots()
    while batch := list(itertools.islice(it, chunk)):
        rec, phases, u = zip(*batch)
        records += rec
        outcomes.append(_choose(_born_rows(v, w, l, np.array(phases)), u))
    return records, np.concatenate(outcomes)


def born_probabilities(h: SpectralHamiltonian, rho_h: np.ndarray,
                       phases: np.ndarray) -> np.ndarray:
    """p(b) = <b| V Lam rho_H conj(Lam) V^dag |b> for all outcomes b.

    ``phases`` is one phase vector (d,) or a batch (K, d); the result has
    the same shape, one distribution per phase vector.
    """
    phases = np.asarray(phases, dtype=float)
    p = _born_rows(h.eigenbasis, *_factor_state(rho_h), np.atleast_2d(phases))
    return p[0] if phases.ndim == 1 else p


def _evolution_columns(tm: TimeModel, records) -> dict:
    """The times (K,) or phases (K, d) keyword of SnapshotSet for tm."""
    key = "times" if tm.kind == "uniform-window" else "phases"
    return {key: np.asarray(records, dtype=float)}


def _shots(h: SpectralHamiltonian, rho, tm: TimeModel, rngs) -> tuple:
    """(evolution draws, outcomes), one shot per generator of rngs."""
    def draw(rng):
        x = _draw_evolution(h.dim, tm, rng)
        return x, (-h.energies * x if tm.kind == "uniform-window" else x)

    return _sample(h.eigenbasis, rho, rngs, draw)


def sample_snapshot(h: SpectralHamiltonian, rho, tm: TimeModel,
                    rng: np.random.Generator) -> Snapshot:
    (x,), (b,) = _shots(h, rho, tm, [rng])
    if tm.kind == "uniform-window":
        return Snapshot(int(b), time=x)
    return Snapshot(int(b), phases=x)


def run_batch(h: SpectralHamiltonian, rho, tm: TimeModel,
              num_shots: int, seed: int) -> SnapshotSet:
    """Deterministic batch: shot i uses substream (seed, i)."""
    if num_shots < 1:
        raise ValueError("num_shots must be at least 1")
    records, bits = _shots(h, rho, tm, (substream(seed, i) for i in range(num_shots)))
    return SnapshotSet(bits, hamiltonian_fingerprint(h), int(seed), tm,
                       **_evolution_columns(tm, records))


def run_local_batch(patch_hs, rho, tm: TimeModel, num_shots: int, seed: int,
                    per_patch_times: bool = False) -> list:
    """Joint Born sampling on the full state with per-patch columns.

    The evolution is the tensor product of the patch evolutions with a
    shared random time (or independent ideal phases per patch). With
    ``per_patch_times`` each patch draws its own time, which removes the
    induced degeneracy when patch Hamiltonians coincide. Returns one
    SnapshotSet per patch, patch 0 the most significant factor.
    """
    import warnings

    rho = as_complex(rho)
    dims = [h.dim for h in patch_hs]
    d = int(np.prod(dims))
    if rho.shape != (d, d):
        raise ValueError("patch dimensions do not multiply to the state dimension")
    window = tm.kind == "uniform-window"
    shared_time = window and not per_patch_times
    if shared_time:
        for i in range(len(patch_hs)):
            for j in range(i + 1, len(patch_hs)):
                ei, ej = patch_hs[i].energies, patch_hs[j].energies
                if np.any(np.abs(ei[:, None] - ej[None, :]) <= 1e-9):
                    warnings.warn(
                        f"patches {i} and {j} share eigen-energies under a shared "
                        "evolution time; consider per_patch_times=True",
                        stacklevel=2)
    v_full = functools.reduce(np.kron, [h.eigenbasis for h in patch_hs])

    def draw(rng):
        if shared_time:
            xs = [_draw_evolution(1, tm, rng)] * len(patch_hs)
        else:
            xs = [_draw_evolution(h.dim, tm, rng) for h in patch_hs]
        # phases of the tensor product of the patch evolutions
        return xs, functools.reduce(
            lambda a, b: np.add.outer(a, b).reshape(-1),
            [-h.energies * x if window else x for h, x in zip(patch_hs, xs)])

    records, bits = _sample(v_full, rho,
                            (substream(seed, i) for i in range(num_shots)), draw)
    patch_bits = np.unravel_index(bits, dims)
    return [SnapshotSet(patch_bits[i], hamiltonian_fingerprint(h), int(seed), tm,
                        **_evolution_columns(tm, [r[i] for r in records]))
            for i, h in enumerate(patch_hs)]


# ---------------------------------------------------------------------------
# Snapshot text format
#
#   # hamshadow snapshots v1
#   # fingerprint=<hex16>
#   # seed=<int>
#   # time_model=<description>
#   # shots=<int>
#   t_us=<float> b=<int>          (or)   phases=<r1,r2,...> b=<int>
# ---------------------------------------------------------------------------

def save_snapshots(path, snaps: SnapshotSet) -> None:
    bits = snaps.bits.tolist()
    with open(path, "w") as f:
        f.write("# hamshadow snapshots v1\n")
        f.write(f"# fingerprint={snaps.hamiltonian_fingerprint}\n")
        f.write(f"# seed={snaps.seed}\n")
        f.write(f"# time_model={snaps.time_model.describe()}\n")
        f.write(f"# shots={len(snaps)}\n")
        if snaps.times is not None:
            f.writelines(f"t_us={t!r} b={b}\n"
                         for t, b in zip(snaps.times.tolist(), bits))
        else:
            # row by row, so that K*d float objects never exist at once
            f.writelines(f"phases={','.join(map(repr, ph.tolist()))} b={b}\n"
                         for ph, b in zip(snaps.phases, bits))


def _parse_row(line: str) -> tuple:
    """(bitstring, field, value): "t_us" with a float or "phases" with an array."""
    fields = dict(p.split("=", 1) for p in line.split())
    b = int(fields["b"])
    if b < 0:
        raise ValueError("bitstring must be a non-negative basis index")
    if "t_us" in fields:
        return b, "t_us", float(fields["t_us"])
    return b, "phases", np.array([float(x) for x in fields["phases"].split(",")])


def load_snapshots(path) -> SnapshotSet:
    """Read a snapshot file into columns.

    ValueError on a short file, and, naming the line, on a malformed row, a
    row of the kind the time_model header does not record (t_us= for
    uniform-window, phases= otherwise) or a phase vector whose length
    differs from the first row's.
    """
    meta = {}
    rows = []  # (line number, bitstring, field, value)
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("# ").strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k.strip()] = v.strip()
                continue
            try:
                rows.append((lineno, *_parse_row(line)))
            except (KeyError, ValueError) as e:
                raise ValueError(f"{path}: line {lineno}: malformed snapshot row "
                                 f"{line[:60]!r}") from e
    if meta.get("shots") != str(len(rows)):
        raise ValueError(f"{path}: header declares shots={meta.get('shots')} "
                         f"but the file holds {len(rows)} rows")
    try:
        tm = TimeModel.parse(meta.get("time_model", "ideal-rdu"))
    except (IndexError, KeyError, ValueError) as e:
        raise ValueError(f"{path}: bad time_model header "
                         f"{meta.get('time_model')!r}") from e
    want = "t_us" if tm.kind == "uniform-window" else "phases"
    for lineno, _, field, value in rows:
        if field != want:
            raise ValueError(f"{path}: line {lineno}: {field}= row, but "
                             f"time_model={tm.describe()} records {want}=")
        if field == "phases" and len(value) != len(rows[0][3]):
            raise ValueError(f"{path}: line {lineno}: {len(value)} phases, but "
                             f"line {rows[0][0]} holds {len(rows[0][3])}")
    col = np.array([r[3] for r in rows], dtype=float)
    if want == "phases":
        col = col.reshape(len(rows), len(rows[0][3]) if rows else 0)
    return SnapshotSet([r[1] for r in rows], meta.get("fingerprint", ""),
                       int(meta.get("seed", 0)), tm, **_evolution_columns(tm, col))


def write_manifest(path, snaps: SnapshotSet, extra: dict | None = None) -> None:
    with open(path, "w") as f:
        f.write("hamshadow manifest v1\n")
        f.write(f"fingerprint={snaps.hamiltonian_fingerprint}\n")
        f.write(f"seed={snaps.seed}\n")
        f.write(f"time_model={snaps.time_model.describe()}\n")
        f.write(f"shots={len(snaps)}\n")
        f.write("rng=philox seed-sequence substream per shot index\n")
        for k, v in (extra or {}).items():
            f.write(f"{k}={v}\n")
