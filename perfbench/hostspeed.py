"""Host-speed sampling, so that job times from a shared host can be compared.

The benchmark's host shares its cores with other tenants.  Its speed swings
by up to a factor of two within seconds, and the swings come and go over
minutes; CPU time swings with wall time, so the guest cannot see the cause.
A run's raw job time therefore says as much about the neighbours as about
the program.

While jobs run, ``HostSpeed`` interrupts the main thread every
``INTERVAL_S`` seconds (SIGALRM; no thread is started) and times a fixed
reference kernel.  There are two kernels, one for each kind of work the
workloads do:

- ``python``: a pure-Python ``Fraction`` loop, like the rational arithmetic
  of the circuit build, Bareiss and the sampler;
- ``numpy``: modular row updates of a 600 x 600 int64 matrix, like the mod-p
  elimination.

Each workload names the kernel that matches its dominant layer
(workloads.KERNEL).  The kernels use only the standard library and numpy,
so no change to phyloag moves their time.  A sample's slowdown is its
kernel time divided by the kernel's reference time (``REFERENCE_S``), and
each stretch of job time between two samples is divided by the mean
slowdown at its two ends.  The sum is the job time in *reference seconds*:
the time the jobs would have taken on a host that runs the kernel in its
reference time throughout.  Kernel time is excluded from every job time,
raw or scaled.  ``measure_slowdown`` takes one sample on its own; run.py
scales each set-up probe by the samples just before and just after it.

The reference times are the median kernel times on an Intel Xeon (KVM,
2 vCPUs) host.  They are part of the benchmark: changing them changes every
reference-second figure.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.5
REFERENCE_S = {"python": 0.009, "numpy": 0.0095}

_PRIME = 2147483629
_MATRIX = np.random.default_rng(0).integers(0, _PRIME, size=(600, 600),
                                            dtype=np.int64)
_SCRATCH = np.empty_like(_MATRIX)  # reused, so sampling adds no peak memory


def _python_kernel():
    total = Fraction(0)
    for i in range(1, 2400):
        total += Fraction(1, i % 97 + 1)


def _numpy_kernel():
    for r in range(4):
        np.outer(_MATRIX[:, r], _MATRIX[r], out=_SCRATCH)
        np.subtract(_MATRIX, _SCRATCH, out=_SCRATCH)
        np.remainder(_SCRATCH, _PRIME, out=_SCRATCH)


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def measure_slowdown(kernel):
    """Run ``kernel`` once; its time divided by its reference time."""
    start = time.perf_counter()
    KERNELS[kernel]()
    return (time.perf_counter() - start) / REFERENCE_S[kernel]


@dataclass
class Sample:
    """Job wall and CPU time since the previous sample, and this sample's
    slowdown (kernel time / reference time)."""

    wall_s: float
    cpu_s: float
    slowdown: float


class HostSpeed:
    """Context manager that samples the host's speed with one kernel while
    jobs run; see the module docstring.  Not re-entrant; restores the
    SIGALRM handler and timer on exit."""

    def __init__(self, kernel, interval_s=INTERVAL_S):
        self.kernel = kernel
        self.interval_s = interval_s
        self.samples = []

    def _sample(self, *_):
        wall, cpu = time.perf_counter(), time.process_time()
        slowdown = measure_slowdown(self.kernel)
        self.samples.append(Sample(wall - self._wall, cpu - self._cpu,
                                   slowdown))
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def __enter__(self):
        self.samples = []
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        self._sample()  # the speed at the start of the first stretch
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()  # the speed at the end of the last stretch

    def _scaled(self, times):
        ends = [s.slowdown for s in self.samples]
        return sum(t / ((ends[i] + ends[i + 1]) / 2)
                   for i, t in enumerate(times[1:]))

    @property
    def wall_s(self):
        return sum(s.wall_s for s in self.samples)

    @property
    def cpu_s(self):
        return sum(s.cpu_s for s in self.samples)

    @property
    def ref_wall_s(self):
        return self._scaled([s.wall_s for s in self.samples])

    @property
    def ref_cpu_s(self):
        return self._scaled([s.cpu_s for s in self.samples])

    def median_slowdown(self):
        return statistics.median(s.slowdown for s in self.samples)
