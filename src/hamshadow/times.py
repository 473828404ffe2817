"""The law of the quench evolution: how each shot's evolution is drawn.

The other modules ask a TimeModel what it reads (KIND_FIELDS), which
column its records hold and what it draws, not its kind. A model that
draws times also gives its characteristic function chi(w) = E_t e^{-i w t},
the weight of each element of the window map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ENERGY_RESOLUTION = 1e-9  # energies, and residual phase rates, this close are equal

# the fields each kind of TimeModel reads, in describe() order, and their types
KIND_FIELDS = {"uniform-window": {"t_min": float, "t_max": float},
               "ideal-rdu": {}, "design": {"k": int}}


def check_window(t_min: float, t_max: float) -> None:
    """ValueError unless t_min and t_max are finite and t_max > t_min."""
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError(f"window bounds must be finite, got [{t_min}, {t_max}]")
    if not t_max > t_min:
        raise ValueError("t_max must exceed t_min")


def _window_weight(omega: np.ndarray, diff: np.ndarray, length: float) -> np.ndarray:
    """The uniform window's chi(omega) = diff / (-i omega length), from
    diff = e^{-i omega t_max} - e^{-i omega t_min} and written into it, and
    exactly 1 at a resonance, |omega| < ENERGY_RESOLUTION, where the
    quotient loses its digits."""
    small = np.abs(omega) < ENERGY_RESOLUTION
    diff /= -1j * np.where(small, 1.0, omega) * length
    diff[small] = 1.0
    return diff


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
        if self.kind not in KIND_FIELDS:
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
                                      for key in KIND_FIELDS[self.kind])])

    @staticmethod
    def parse(text: str) -> "TimeModel":
        """The model whose describe() is text; ValueError on any other text."""
        kind, *tokens = text.split(" ")
        types = KIND_FIELDS.get(kind, {})  # TimeModel refuses an unknown kind
        fields = [token.partition("=") for token in tokens]
        if [(key, sep) for key, sep, _ in fields] != [(key, "=") for key in types]:
            form = " ".join([kind, *(f"{key}=<{key}>" for key in types)])
            raise ValueError(f"time model {text!r} is not of the form {form!r}")
        tm = TimeModel(kind, **{key: types[key](value) for key, _, value in fields})
        if tm.describe() != text:  # float() and int() also read "1", "2e1", "+2"
            raise ValueError(f"time model {text!r} is not as describe() writes it")
        return tm

    @property
    def column(self) -> str:
        """The SnapshotSet column its records hold: "times" or "phases"."""
        return "times" if self.kind == "uniform-window" else "phases"

    @property
    def bounds(self) -> tuple[float, float]:
        """[low, high) of each draw: the window in us, else 0 to 2 pi."""
        window = self.kind == "uniform-window"
        return (self.t_min, self.t_max) if window else (0.0, 2 * np.pi)

    @property
    def grid(self) -> int | None:
        """The k + 1 grid phases a design draws, or None for a uniform draw."""
        return self.k + 1 if self.kind == "design" else None

    def _end_phases(self, freqs: np.ndarray) -> np.ndarray:
        """e^{-i freqs t} at t_min and at t_max; ValueError for a kind that
        draws phases, which has no time law."""
        if self.column != "times":
            raise ValueError(f"{self.describe()} draws phases, not times: "
                             "it has no characteristic function")
        return np.exp(-1j * np.multiply.outer((self.t_min, self.t_max), freqs))

    def characteristic(self, omega: np.ndarray) -> np.ndarray:
        """chi(omega) = E_t e^{-i omega t} on an array of frequencies in rad/us."""
        omega = np.asarray(omega, dtype=float)
        at_min, at_max = self._end_phases(omega)
        return _window_weight(omega, at_max - at_min, self.t_max - self.t_min)

    def difference_characteristic(self, freqs: np.ndarray):
        """rows(j) = chi(freqs[j, None] - freqs) for row indices j. The end
        phases are formed once, and each call multiplies them out, as
        e^{-i (a - b) t} = e^{-i a t} conj(e^{-i b t}), rather than taking a
        complex exp of every difference."""
        ph_min, ph_max = self._end_phases(freqs)
        conj_min, conj_max = ph_min.conj(), ph_max.conj()
        length = self.t_max - self.t_min

        def rows(j) -> np.ndarray:
            omega = freqs[j, None] - freqs
            diff = np.outer(ph_max[j], conj_max)
            diff -= np.outer(ph_min[j], conj_min)
            return _window_weight(omega, diff, length)
        return rows
