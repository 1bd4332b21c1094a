"""Host-speed reference, sampled while a timed command runs.

On a shared host the speed of one core drifts by a quarter or more over
minutes, so a command's wall time alone spreads from run to run by more
than the benchmark's bounds.  A :class:`Sampler` runs a small fixed kernel
every ``INTERVAL_S`` of wall time from a ``SIGALRM`` handler, inside the
timed process, and records how long each run of the kernel took.  The
kernel is benchmark code, never the program's, so its time tracks the host
and not the code under test.  The runner reports the command's time with
the kernel's own time taken out, scaled by ``NOMINAL_S[kernel] / mean
sample``: the time the command would take on a host where the kernel runs
in its nominal time.

Each workload names the kernel that resembles where its time goes:
``python`` (an interpreter-bound loop) for autograd dispatch and JSONL
work, ``matmul`` (float64 products at the paper's projection sizes) for
the BLAS-bound forward pass.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2
# Each kernel's typical time on the 2-vCPU VM the benchmark was tuned on;
# these constants only scale the normalised metrics.
NOMINAL_S = {"python": 0.0060, "matmul": 0.0022}


def _python_kernel():
    s = 0
    for i in range(60000):
        s += i * i % 7
    return s


_A = np.random.default_rng(0).standard_normal((16, 256))
_B = np.random.default_rng(1).standard_normal((256, 256))


def _matmul_kernel():
    out = _A
    for _ in range(24):
        out = np.tanh(out @ _B)
    return out


KERNELS = {"python": _python_kernel, "matmul": _matmul_kernel}


class Sampler:
    """Context manager that samples ``kernel`` every ``interval`` seconds."""

    def __init__(self, kernel, interval=INTERVAL_S):
        self.kernel = kernel
        self.interval = interval
        self.samples = []
        self._previous = None

    def _sample(self, _signum, _frame):
        start = perf_counter()
        KERNELS[self.kernel]()
        self.samples.append(perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def record(self):
        """Sample count, total and mean sample time, and the nominal time."""
        total = sum(self.samples)
        return {"ref_kernel": self.kernel, "ref_samples": len(self.samples),
                "ref_total_s": total,
                "ref_mean_s": total / len(self.samples) if self.samples else None,
                "ref_nominal_s": NOMINAL_S[self.kernel]}


def normalised_s(rep):
    """A timed command's time without the samples, at the kernel's nominal speed."""
    return (rep["wall_s"] - rep["ref_total_s"]) * rep["ref_nominal_s"] / rep["ref_mean_s"]
