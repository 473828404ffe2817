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

import itertools
from dataclasses import dataclass

import numpy as np

from .qmatrix import SpectralHamiltonian, as_complex, is_hermitian
from .shadowmap import Snapshot, hamiltonian_fingerprint

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
        if self.kind == "uniform-window" and not (self.t_max > self.t_min >= 0):
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
class SnapshotSet:
    snapshots: list
    hamiltonian_fingerprint: str
    seed: int
    time_model: TimeModel

    def __len__(self) -> int:
        return len(self.snapshots)


def _draw_evolution(dim: int, tm: TimeModel, rng: np.random.Generator):
    """Returns (time, phases) with exactly one of them set."""
    if tm.kind == "uniform-window":
        return float(rng.uniform(tm.t_min, tm.t_max)), None
    if tm.kind == "design":
        m = rng.integers(0, tm.k + 1, size=dim)
        return None, 2 * np.pi * m / (tm.k + 1)
    return None, rng.uniform(0, 2 * np.pi, size=dim)


def _eigenframe(v: np.ndarray, rho) -> np.ndarray:
    return v.conj().T @ as_complex(rho) @ v


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


def _sample(v: np.ndarray, rho_h: np.ndarray, rngs, draw) -> list:
    """(record, outcome) for each generator of rngs, in order.

    ``draw(rng)`` makes a shot's evolution draws and returns (record, phase
    vector); one ``rng.random()`` then picks the outcome, the draw that
    ``rng.choice(d, p=p)`` would make. Shots are evaluated in chunks that
    bound the (d, shots x rank) product at CHUNK_ENTRIES entries, so the
    draws, and hence the outcomes, do not depend on the chunking.
    """
    w, l = _factor_state(rho_h)
    chunk = max(1, CHUNK_ENTRIES // (v.shape[0] * max(1, len(w))))

    def shots():
        for rng in rngs:
            record, phases = draw(rng)
            yield record, phases, rng.random()

    out = []
    it = shots()
    while batch := list(itertools.islice(it, chunk)):
        records, phases, u = zip(*batch)
        out += zip(records, _choose(_born_rows(v, w, l, np.array(phases)), u))
    return out


def born_probabilities(h: SpectralHamiltonian, rho_h: np.ndarray,
                       phases: np.ndarray) -> np.ndarray:
    """p(b) = <b| V Lam rho_H conj(Lam) V^dag |b> for all outcomes b.

    ``phases`` is one phase vector (d,) or a batch (K, d); the result has
    the same shape, one distribution per phase vector.
    """
    phases = np.asarray(phases, dtype=float)
    p = _born_rows(h.eigenbasis, *_factor_state(rho_h), np.atleast_2d(phases))
    return p[0] if phases.ndim == 1 else p


def _snapshots(h: SpectralHamiltonian, rho, tm: TimeModel, rngs) -> list:
    def draw(rng):
        t, phases = _draw_evolution(h.dim, tm, rng)
        return (t, phases), (-h.energies * t if t is not None else phases)

    shots = _sample(h.eigenbasis, _eigenframe(h.eigenbasis, rho), rngs, draw)
    return [Snapshot(bitstring=int(b), time=t, phases=ph) for (t, ph), b in shots]


def sample_snapshot(h: SpectralHamiltonian, rho, tm: TimeModel,
                    rng: np.random.Generator) -> Snapshot:
    return _snapshots(h, rho, tm, [rng])[0]


def run_batch(h: SpectralHamiltonian, rho, tm: TimeModel,
              num_shots: int, seed: int) -> SnapshotSet:
    """Deterministic batch: shot i uses substream (seed, i)."""
    if num_shots < 1:
        raise ValueError("num_shots must be at least 1")
    snaps = _snapshots(h, rho, tm, (substream(seed, i) for i in range(num_shots)))
    return SnapshotSet(snaps, hamiltonian_fingerprint(h), int(seed), tm)


def run_local_batch(patch_hs, rho, tm: TimeModel, num_shots: int, seed: int,
                    per_patch_times: bool = False) -> list:
    """Joint Born sampling on the full state with per-patch records.

    The evolution is the tensor product of the patch evolutions with a
    shared random time (or independent ideal phases per patch). With
    ``per_patch_times`` each patch draws its own time, which removes the
    induced degeneracy when patch Hamiltonians coincide.
    """
    import warnings

    rho = as_complex(rho)
    dims = [h.dim for h in patch_hs]
    d = int(np.prod(dims))
    if rho.shape != (d, d):
        raise ValueError("patch dimensions do not multiply to the state dimension")
    shared_time = tm.kind == "uniform-window" and not per_patch_times
    if shared_time:
        for i in range(len(patch_hs)):
            for j in range(i + 1, len(patch_hs)):
                ei, ej = patch_hs[i].energies, patch_hs[j].energies
                if np.any(np.abs(ei[:, None] - ej[None, :]) <= 1e-9):
                    warnings.warn(
                        f"patches {i} and {j} share eigen-energies under a shared "
                        "evolution time; consider per_patch_times=True",
                        stacklevel=2)
    v_full = np.array([[1.0 + 0j]])
    for h in patch_hs:
        v_full = np.kron(v_full, h.eigenbasis)

    def draw(rng):
        if shared_time:
            t, _ = _draw_evolution(1, tm, rng)
            patch_draws = [(t, None) for _ in patch_hs]
        else:
            patch_draws = [_draw_evolution(h.dim, tm, rng) for h in patch_hs]
        return patch_draws, _joint_phases(patch_hs, patch_draws)

    shots = _sample(v_full, _eigenframe(v_full, rho),
                    (substream(seed, i) for i in range(num_shots)), draw)
    per_patch = [[] for _ in patch_hs]
    for patch_draws, b in shots:
        bits = _split_index(int(b), dims)
        for pi, ((t, ph), bp) in enumerate(zip(patch_draws, bits)):
            per_patch[pi].append(Snapshot(bitstring=bp, time=t, phases=ph))
    return [SnapshotSet(per_patch[i], hamiltonian_fingerprint(h), int(seed), tm)
            for i, h in enumerate(patch_hs)]


def _joint_phases(patch_hs, patch_draws) -> np.ndarray:
    parts = []
    for h, (t, ph) in zip(patch_hs, patch_draws):
        parts.append(-h.energies * t if t is not None else np.asarray(ph))
    out = parts[0]
    for nxt in parts[1:]:
        out = (out[:, None] + nxt[None, :]).reshape(-1)
    return out


def _split_index(b: int, dims) -> list:
    out = []
    for d in reversed(dims):
        out.append(b % d)
        b //= d
    return list(reversed(out))


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
    with open(path, "w") as f:
        f.write("# hamshadow snapshots v1\n")
        f.write(f"# fingerprint={snaps.hamiltonian_fingerprint}\n")
        f.write(f"# seed={snaps.seed}\n")
        f.write(f"# time_model={snaps.time_model.describe()}\n")
        f.write(f"# shots={len(snaps)}\n")
        for s in snaps.snapshots:
            if s.time is not None:
                f.write(f"t_us={float(s.time)!r} b={s.bitstring}\n")
            else:
                ph = ",".join(repr(float(x)) for x in s.phases)
                f.write(f"phases={ph} b={s.bitstring}\n")


def _parse_row(line: str) -> Snapshot:
    fields = dict(p.split("=", 1) for p in line.split())
    b = int(fields["b"])
    if "t_us" in fields:
        return Snapshot(bitstring=b, time=float(fields["t_us"]))
    ph = np.array([float(x) for x in fields["phases"].split(",")])
    return Snapshot(bitstring=b, phases=ph)


def load_snapshots(path) -> SnapshotSet:
    """Read a snapshot file; ValueError on a malformed row or a short file."""
    meta = {}
    snaps = []
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
                snaps.append(_parse_row(line))
            except (KeyError, ValueError) as e:
                raise ValueError(f"{path}: line {lineno}: malformed snapshot row "
                                 f"{line[:60]!r}") from e
    if meta.get("shots") != str(len(snaps)):
        raise ValueError(f"{path}: header declares shots={meta.get('shots')} "
                         f"but the file holds {len(snaps)} rows")
    try:
        tm = TimeModel.parse(meta.get("time_model", "ideal-rdu"))
    except (IndexError, KeyError, ValueError) as e:
        raise ValueError(f"{path}: bad time_model header "
                         f"{meta.get('time_model')!r}") from e
    return SnapshotSet(
        snapshots=snaps,
        hamiltonian_fingerprint=meta.get("fingerprint", ""),
        seed=int(meta.get("seed", 0)),
        time_model=tm,
    )


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
