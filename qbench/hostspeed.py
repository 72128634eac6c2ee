"""Host speed: fixed reference work, timed between the benchmark's calls.

A shared host runs the same work up to 1.7x slower for stretches of
seconds to minutes, and CPU time slows with wall time, so no statistic of
the program's own times removes it.  The benchmark therefore samples three
small kernels between its calls, all through one timed region, and
multiplies the region's times by the host's speed over that region: the
geometric mean, over the kernels, of each kernel's reference time over its
median sample.
The times it reports read as times on a host that runs the kernels in their
reference times.

The kernels call nothing in threshq, so a change to the program cannot
move them, and between them they cover what threshq's calls do: interpreter
arithmetic, reads scattered over more memory than a core's cache holds,
and small LAPACK eigensolves.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

# Median time of one run of each kernel over a few minutes on a 2-vCPU
# "Intel(R) Xeon(R) Processor" host, Python 3.11.7, numpy 2.4.6, so that
# scaled times there read close to unscaled ones.  They only set the scale
# of the reported times; any fixed values would do.
REFERENCE_S = {"interp": 300e-6, "scatter": 320e-6, "eigh": 200e-6}
PROBE_EVERY_S = 0.1    # least time between two probe points in a region
REPS = 3               # runs of each kernel at a probe point

_rng = random.Random(0)
_TABLE = bytearray(8 << 20)                     # twice a core's L2
for _at in range(0, len(_TABLE), 1 << 16):      # written, so no page is shared
    _TABLE[_at:_at + (1 << 16)] = _rng.randbytes(1 << 16)
_INDEX = [_rng.randrange(len(_TABLE)) for _ in range(1000)]
_MASK = len(_TABLE) - 1
_shift = 0
_MATRICES = [(lambda a: a + a.T)(np.random.default_rng(i).standard_normal((16, 16)))
             for i in range(2)]


def _interp() -> int:
    acc = 0
    for i in range(3000):
        acc += (i * 7919) % 1009
    return acc


def _scatter() -> int:
    """1000 reads at offsets that move on each run, so that they miss the
    cache: with fixed offsets they fit in 64 KiB and hit from the second
    run on."""
    global _shift
    _shift = shift = (_shift + 2654435761) & _MASK
    table, mask, acc = _TABLE, _MASK, 0
    for i in _INDEX:
        acc += table[(i + shift) & mask]
    return acc


def _eigh() -> None:
    for a in _MATRICES:
        np.linalg.eigh(a)


KERNELS = {"interp": _interp, "scatter": _scatter, "eigh": _eigh}


class Probe:
    """Kernel samples over one timed region."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}
        self.last = -math.inf

    def sample(self, reps: int = REPS) -> None:
        clock = time.perf_counter
        for _ in range(reps):
            for name, kernel in KERNELS.items():
                start = clock()
                kernel()
                self.samples[name].append(clock() - start)
        self.last = clock()

    def maybe_sample(self) -> None:
        """Sample if PROBE_EVERY_S has passed since the last probe point."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    def speed(self) -> float:
        """Host speed over the region; 1.0 at the reference times, below 1
        on a slower host."""
        return statistics.geometric_mean(
            REFERENCE_S[name] / statistics.median(ts) for name, ts in self.samples.items())
