"""Host-speed probe: a fixed piece of work that never touches xyep.

On a shared virtual machine the speed of a vCPU drifts by 20-40% over
seconds to minutes (other tenants, frequency), and a run of tens of
seconds cannot average that away.  The child process therefore runs
:func:`probe` between tasks, at least every ``PROBE_GAP_S``, and scales
each task's latency by ``PROBE_REF_S`` over the mean of the probes taken
just before and just after it.  The result reads as seconds on the host
at the speed where the probe takes ``PROBE_REF_S``; a change to xyep
moves it exactly as it moves the raw latency, because the probe runs
none of xyep's code.  Raw latencies stay in the report.

The probe mixes kinds of work the workloads do: an interpreted integer
loop, small complex numpy operations (the root iterations) and a small
LAPACK eigensolve (dense ED, companion matrices).  Over two-minute
recordings of both workloads, scaling by this mix left the least
pass-to-pass spread of the mixes tried; a big-integer kernel (the exact
resultant's work) tracked the host worse than any of these, even on
``ep-census``.  The interpreted loop alone (:func:`probe_pure`, no numpy)
scales the set-up time, measured in a fresh interpreter before numpy is
imported.
"""

from __future__ import annotations

import bisect
import time

# probe durations on an Intel Xeon (KVM, 2 vCPUs, Python 3.11, numpy 2.4,
# OpenBLAS pinned to one thread), medians over a minute
PROBE_REF_S = 4.0e-3
PROBE_PURE_REF_S = 1.0e-3
# take a probe after any task that ends this long after the last probe
PROBE_GAP_S = 0.05


def _interpreted():
    s = 0
    for i in range(12000):
        s += i * i % 7
    return s


def probe_pure() -> float:
    """Seconds for the interpreted part of the probe."""
    t0 = time.perf_counter()
    _interpreted()
    return time.perf_counter() - t0


class Probe:
    """The whole probe; holds its fixed numpy inputs."""

    def __init__(self):
        import numpy as np   # not at module level: set-up probes run before numpy loads

        self._np = np
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48))
        self._v = rng.standard_normal(24) + 0j

    def _vector(self):
        np = self._np
        z = self._v.copy()
        for _ in range(60):
            w = np.polyval(self._v, z)
            z = 0.5 * z + w / (1 + np.abs(w))   # bounded: no overflow, no nan
        return z

    def __call__(self) -> float:
        t0 = time.perf_counter()
        _interpreted()
        self._vector()
        self._np.linalg.eigvals(self._a)
        return time.perf_counter() - t0


def scale(starts, durations, probe_times, probe_durations, ref):
    """Each duration times ``ref`` over the mean of its neighbouring probes.

    ``starts`` and ``probe_times`` are on one clock and sorted; every
    start must have a probe before it and one after it.
    """
    out = []
    for t, d in zip(starts, durations):
        j = bisect.bisect_right(probe_times, t)
        local = 0.5 * (probe_durations[j - 1] + probe_durations[j])
        out.append(d * ref / local)
    return out
