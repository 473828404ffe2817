"""Output checks that rest on computations made apart from the package.

Every reference value here comes from numpy and scipy applied to the
inputs, or from a property the method must have. Nothing is compared with
a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import chi2

# Estimates must lie within this many standard errors of Tr(O rho). Six
# keeps a false alarm below about 1e-8 per check for Gaussian errors, so a
# run of thousands of checks never fails on correct code by chance.
Z_MAX = 6.0
# A histogram fails when its chi-square p-value falls below this.
HISTOGRAM_P_MIN = 1e-6
# Pool outcomes whose expected count is below this into one bin.
MIN_EXPECTED = 5.0
REL_TOL = 1e-9
# Purity is compared with its recomputation relative to the size of the two
# terms whose difference it is; both implementations round those terms.
PURITY_RTOL = 1e-7
# Energy differences below this count as resonant, as in the package.
RESONANCE = 1e-9

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]),
}


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def pauli_matrix(labels: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for c in labels:
        out = np.kron(out, PAULI[c])
    return out


def ghz_vector(n: int) -> np.ndarray:
    """(|0101...> + |1010...>)/sqrt(2), qubit 0 the most significant bit."""
    a = sum(1 << (n - 1 - j) for j in range(n) if j % 2 == 1)
    psi = np.zeros(2**n, dtype=complex)
    psi[a] = psi[(2**n - 1) ^ a] = 1 / np.sqrt(2)
    return psi


def expectation(o: np.ndarray, rho: np.ndarray) -> float:
    return float(np.trace(o @ rho).real)


def _window_average(omega: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Average of e^{-i omega t} over t uniform in the window (1 at omega = 0)."""
    t1, t2 = window
    small = np.abs(omega) < RESONANCE
    w = np.where(small, 1.0, omega)
    return np.where(small, 1.0, (np.exp(-1j * w * t2) - np.exp(-1j * w * t1))
                    / (-1j * w * (t2 - t1)))


class Frame:
    """numpy's own eigenframe of a Hamiltonian and the inverse of its channel.

    A snapshot (b, phases phi or time t, with phi = -E t) gives the row
    z = V[b, :] e^{i phi} and sigma = conj(z) z^T. Averaged over the
    evolution ensemble, sigma is N(V^dag rho V) for a channel N: with ideal
    random phases (window None) N scales off-diagonal (m, n) by X_mn and maps
    the diagonal by X = |V|^2^T |V|^2; over a uniform time window it is the
    dense d^2 x d^2 matrix built below. rho_k = N^-1(sigma_k) is then an
    unbiased estimate of V^dag rho V. Eigenvector phases cancel in every
    quantity computed here, so they need not match the package's.
    """

    def __init__(self, hamiltonian: np.ndarray, window):
        self.e, self.v = np.linalg.eigh(hamiltonian)
        self.window = window
        d = len(self.e)
        vsq = np.abs(self.v) ** 2
        self.x = vsq.T @ vsq
        self.off = ~np.eye(d, dtype=bool)
        if window is None:
            self.x_inv = np.linalg.inv(self.x)
        else:
            # N[(m,n),(p,q)] = sum_b conj(V_bm) V_bn V_bp conj(V_bq) times the
            # window average of e^{-i (E_p + E_n - E_q - E_m) t}.
            e = self.e
            outer = (self.v.conj()[:, :, None] * self.v[:, None, :]).reshape(d, d * d)
            omega = (e[None, :, None, None] + e[None, None, :, None]
                     - e[None, None, None, :] - e[:, None, None, None])
            channel = (outer.T @ outer.conj()) * _window_average(
                omega, window).reshape(d * d, d * d)
            self.n_inv = np.linalg.inv(channel)

    def born_average(self, rho: np.ndarray) -> np.ndarray:
        """Outcome distribution averaged over the evolution ensemble.

        Ideal random phases keep only the diagonal of rho in the eigenbasis:
        p(b) = sum_m |V_bm|^2 (V^dag rho V)_mm. A uniform window weights
        element (m, n) by the window average of e^{-i (E_m - E_n) t}.
        """
        v = self.v
        rho_h = v.conj().T @ rho @ v
        if self.window is None:
            return (np.abs(v) ** 2) @ np.diag(rho_h).real
        avg = _window_average(self.e[:, None] - self.e[None, :], self.window)
        p = np.clip(np.einsum("bm,mn,bn->b", v, rho_h * avg, v.conj()).real, 0, None)
        return p / p.sum()

    def amplitudes(self, snapshots) -> np.ndarray:
        bits = np.array([s.bitstring for s in snapshots])
        if self.window is None:
            phases = np.array([s.phases for s in snapshots])
        else:
            phases = -np.outer([s.time for s in snapshots], self.e)
        return self.v[bits] * np.exp(1j * phases)

    def estimate_bound(self, o: np.ndarray) -> float:
        """Largest |o-hat| any single snapshot can give for observable o.

        o-hat = Tr(A N^-1(sigma)) with A = V^dag o V equals conj(z)^T C z for
        a d x d kernel C, and |z| = 1, so |o-hat| <= ||C||. Every estimate
        of Tr(o rho), a mean of such values, lies within this bound.
        """
        a = self.v.conj().T @ o @ self.v
        d = len(a)
        if self.window is None:
            kernel = np.where(self.off, a.T / self.x, 0.0)
            kernel[np.arange(d), np.arange(d)] = self.x_inv @ np.diag(a)
        else:
            kernel = (a.T.reshape(-1) @ self.n_inv).reshape(d, d)
        return float(np.linalg.norm(kernel, 2))

    def purity_u_statistic(self, snapshots) -> tuple[float, float]:
        """Tr(rho^2) U-statistic recomputed from snapshots.

        Returns (Tr S^2 - sum_k Tr rho_k^2) / (K (K - 1)), S = sum_k rho_k,
        and the size of the two terms it is the difference of, which sets
        the rounding error of any implementation.
        """
        z = self.amplitudes(snapshots)
        k, d = z.shape
        if self.window is None:
            a = np.abs(z) ** 2
            diag = a @ self.x_inv.T
            tr_sq = np.sum(diag**2, axis=1) + np.einsum(
                "km,mn,kn->k", a, np.where(self.off, 1.0 / self.x**2, 0.0), a)
            s = (z.conj().T @ z) / self.x
            s[np.arange(d), np.arange(d)] = diag.sum(axis=0)
        else:
            rhos = ((z.conj()[:, :, None] * z[:, None, :]).reshape(k, d * d)
                    @ self.n_inv.T).reshape(k, d, d)
            tr_sq = np.einsum("kmn,knm->k", rhos, rhos)
            s = rhos.sum(axis=0)
        full = np.sum(s * s.T)
        scale = (abs(full) + np.sum(np.abs(tr_sq))) / (k * (k - 1))
        return float(((full - tr_sq.sum()) / (k * (k - 1))).real), float(scale)

    def linear_proxy(self, o: np.ndarray) -> float:
        """(1/d) sum_{i != j} |A_ij|^2 / X_ij with A = V^dag o V."""
        a = self.v.conj().T @ o @ self.v
        return float(np.sum(np.abs(a[self.off]) ** 2 / self.x[self.off]) / len(a))

    def swap_proxy(self) -> float:
        """(1/d^2) sum_{i != j} X_ij^-2, the SWAP variance proxy."""
        return float(np.sum(1.0 / self.x[self.off] ** 2) / len(self.x) ** 2)


def estimate_near_truth(name: str, value: float, std_error: float,
                        truth: float, bound: float) -> None:
    """An estimate lies within Z_MAX standard errors of Tr(O rho) = truth.

    It must also lie within ``bound``, the largest value a single snapshot
    can contribute. An inverse map that does not match the data can give
    estimates so spread out that their own error bar covers the truth.
    """
    require(np.isfinite(value) and np.isfinite(std_error) and std_error >= 0,
            f"{name}: non-finite estimate {value!r} +- {std_error!r}")
    require(abs(value) <= bound * (1 + REL_TOL),
            f"{name}: estimate {value:.6g} exceeds the single-snapshot bound "
            f"{bound:.6g}")
    z = abs(value - truth) / std_error if std_error > 0 else np.inf
    require(z <= Z_MAX or abs(value - truth) <= REL_TOL,
            f"{name}: estimate {value:.6g} +- {std_error:.3g} is {z:.1f} "
            f"standard errors from Tr(O rho) = {truth:.6g}")


def purity_matches(value: float, recomputed: tuple[float, float]) -> None:
    """The program's purity equals the recomputed U-statistic up to rounding."""
    ref, scale = recomputed
    require(np.isfinite(value) and abs(value - ref) <= PURITY_RTOL * scale,
            f"purity {value!r} differs from the recomputed U-statistic {ref!r}")


def histogram_matches(bits: np.ndarray, p: np.ndarray) -> float:
    """Chi-square test of sampled outcomes against p; returns the p-value."""
    k = len(bits)
    counts = np.bincount(bits, minlength=len(p)).astype(float)
    require(len(counts) == len(p), "outcome outside the Hilbert space")
    expected = k * p
    big = expected >= MIN_EXPECTED
    obs = list(counts[big])
    exp = list(expected[big])
    if np.any(~big):
        obs.append(counts[~big].sum())
        exp.append(expected[~big].sum())
    obs, exp = np.array(obs), np.array(exp)
    keep = exp > 0
    require(np.all(obs[~keep] == 0), "outcome of zero Born probability drawn")
    stat = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    pval = float(chi2.sf(stat, max(int(keep.sum()) - 1, 1)))
    require(pval >= HISTOGRAM_P_MIN,
            f"histogram differs from the averaged Born distribution "
            f"(chi2={stat:.1f}, dof={int(keep.sum()) - 1}, p={pval:.2e})")
    return pval


def second_moment_matches(name: str, values: np.ndarray, exact: float) -> None:
    """Monte-Carlo mean of o-hat^2 agrees with the exact second moment."""
    sq = np.asarray(values, dtype=float) ** 2
    se = float(np.std(sq, ddof=1) / np.sqrt(len(sq)))
    z = abs(float(np.mean(sq)) - exact) / se
    require(z <= Z_MAX, f"{name}: mean o-hat^2 {np.mean(sq):.6g} +- {se:.3g} is "
            f"{z:.1f} standard errors from the exact second moment {exact:.6g}")


def at_least(name: str, value: float, floor: float) -> None:
    require(np.isfinite(value) and value >= floor - REL_TOL * max(1.0, abs(floor)),
            f"{name}: {value!r} is below {floor!r}")


def frame_potential_floor(k: int, d: int) -> float:
    """Ideal random-diagonal-unitary frame potential, the least any ensemble has."""
    return {1: d, 2: 2 * d**2 - d, 3: 6 * d**3 - 9 * d**2 + 4 * d}[k]


def snapshot_file_rows(path) -> tuple[int, int]:
    """(header shots=, number of data rows) read straight from the file."""
    shots, rows = None, 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("#"):
                if line.startswith("# shots="):
                    shots = int(line.split("=", 1)[1])
            elif line:
                rows += 1
    require(shots is not None, f"{path}: no shots= header")
    return shots, rows


def same_snapshots(a, b) -> None:
    """Two snapshot sets hold the same records and header fields."""
    require(len(a) == len(b), f"{len(a)} snapshots saved, {len(b)} loaded")
    require(a.hamiltonian_fingerprint == b.hamiltonian_fingerprint
            and a.seed == b.seed and a.time_model == b.time_model,
            "snapshot header changed on reload")
    for x, y in zip(a.snapshots, b.snapshots):
        require(x.bitstring == y.bitstring and x.time == y.time
                and (x.phases is None) == (y.phases is None)
                and (x.phases is None or np.array_equal(x.phases, y.phases)),
                "a snapshot changed on reload")


def read_csv_estimates(path) -> dict:
    """name -> (value, std_error) from an estimate CSV."""
    out = {}
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        out[row["observable"]] = (float(row["value"]), float(row["std_error"]))
    return out
