"""How fast the machine runs while an op runs, measured inside the op.

On a shared machine, other tenants slow every computation of a process by
up to 2x, and the slowdown changes from one second to the next while the
process keeps its full CPU time, so CPU time moves with wall time.  A
:class:`Probe` times a small fixed computation every ``INTERVAL_S`` of wall
time while an op runs, from a ``SIGALRM`` handler, and the op's calibration
time is the mean of those timings.  The op's time over its calibration time
cancels most of what the machine speed does to the op.  A probe taken only
between ops cannot do this: the speed changes within one op.

The probe is small-array numpy arithmetic of the kind the solvers do on the
benchmark's grids (a pointwise Newton step, ``np.roll`` and a reduction).
It uses only numpy, never otgeo, so a change to otgeo moves the ratio in
full, and its inputs are fixed, so it does the same work every time.  It
runs in the op's thread between two bytecodes and touches nothing of the
op's, so the op's output is unchanged; it adds 2-3% to the op's wall
time, on every commit alike.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
ROUNDS = 20

_A = np.linspace(0.5, 1.5, 17 * 32).reshape(17, 32)
_B = np.linspace(0.0, 1.0, 17 * 32).reshape(17, 32)


def probe(rounds=ROUNDS):
    """The fixed computation, about 1 ms; returns a checksum so none of it is skipped."""
    m = _A.copy()
    total = 0.0
    for _ in range(rounds):
        f = m**3 - _A * m**2 + 0.1 * np.log(m) - _B
        m = np.maximum(m - f / (3.0 * m**2 - 2.0 * _A * m + 0.1 / m), 1e-3)
        total += float(np.sum(np.roll(m, 1, axis=1)))
    return total


class Probe:
    """Context manager that times :func:`probe` every ``INTERVAL_S`` while it is open.

    ``samples`` holds the wall time of each probe.  At least one probe is
    timed, also when the block ends before the first interval.  Use it in the
    main thread only (signal handlers run there).
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()
        return False

    def _sample(self, *_):
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def mean_s(self):
        """The calibration time: the mean probe time, in seconds.

        The mean, not the median: an op pays for the machine's slow moments
        too, so its calibration must average over them in the same way.
        """
        return statistics.fmean(self.samples)
