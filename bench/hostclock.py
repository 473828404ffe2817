"""Host-speed probe that corrects timings for load from outside the run.

On a shared host the same code runs at one of two speeds that alternate many
times a second: on a 2-core VM, inside a busy process, a fixed pure-Python
loop takes about 62 us in the fast state and about 87 us in the slow one,
and the share of slow time drifts over minutes. Wall times of one commit
then spread by 10 to 40 % from run to run, whatever the run length.

A ``HostProbe`` runs that loop from a SIGALRM timer every INTERVAL_S seconds
in the measured process and records when each probe ended and how long it
took. ``corrected(start, end)`` scales a wall-time interval by
REFERENCE_PROBE_S over the mean probe time inside it: an estimate of the
time the interval would have taken had the host run at its fast speed
throughout. Probes run between bytecodes, so a long call into native code
delays them but does not skew them; they cost about 1 % of the process's
time.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

INTERVAL_S = 0.02
LOOP = 1000
# The probe's duration in the host's fast state on the machine the benchmark
# was tuned on. It only fixes the unit: a corrected time equals the wall time
# of a run made entirely in that state.
REFERENCE_PROBE_S = 6.2e-5
# An interval with fewer probes inside it is judged by this many probes
# nearest to it.
MIN_PROBES = 5


class HostProbe:
    def __init__(self):
        self.samples = []  # (monotonic end time, duration) per probe

    def _probe(self, signum, frame):
        t = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i * i
        self.samples.append((time.monotonic(), time.perf_counter() - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time in [start, end] over REFERENCE_PROBE_S."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_PROBES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:MIN_PROBES]]
        return statistics.fmean(inside) / REFERENCE_PROBE_S

    def corrected(self, start: float, end: float) -> float:
        """Monotonic interval [start, end] in seconds at the host's fast speed."""
        return (end - start) / self.slowdown(start, end)

    def dump(self, path) -> None:
        """Write the whole-process slowdown, for a caller that timed the process."""
        self.stop()
        with open(path, "w") as f:
            json.dump({"slowdown": self.slowdown(float("-inf"), float("inf")),
                       "probes": len(self.samples)}, f)
