"""Host-speed reference: times of the program scaled to one host speed.

On a machine that shares physical cores with other tenants the speed of
one core moves by up to 2x, in states that last from a second to tens of
seconds, so two runs of the same code can differ by more than any change
worth measuring.  The benchmark therefore runs a fixed reference
computation, which uses numpy and the interpreter but no splineprod code,
between the program's operations, at least every PROBE_EVERY_S seconds
and after every operation longer than that.  An operation's time is
scaled by NOMINAL_S over the mean of the two reference times that
bracket it: it reads as the time the operation would take on a host
where the reference takes NOMINAL_S.  A program change moves the
operation's time and not the reference's, so it moves the scaled time
by the same share.
"""
from __future__ import annotations

import time

import numpy as np

# reference seconds that a scaled time is stated at: about the
# reference's time on an unloaded 2-vCPU Xeon virtual machine
NOMINAL_S = 0.005
PROBE_EVERY_S = 0.1

_A = np.linspace(0.0, 1.0, 1600).reshape(40, 40)
_X = np.linspace(1.0, 2.0, 200)
_B = np.linspace(0.0, 1.0, 20000).reshape(2000, 10)
_C = np.linspace(1.0, 2.0, 20000).reshape(2000, 10)


def reference() -> float:
    """Seconds of one run of the fixed reference computation.

    It has two parts, in the two shapes of the program's hot paths:
    short interpreted loops around small numpy calls, and numpy calls on
    arrays of thousands of rows.  Either part alone follows the host's
    speed states less closely than their sum: the first speeds up more
    than the program's batched kernels when the host is unloaded, the
    second less than its per-row loops.  The arrays stay in cache, so
    the operation after a probe does not start cold.
    """
    start = time.perf_counter()
    s = 0.0
    for i in range(400):
        y = _X * 1.0001 + i
        s += float(np.dot(y[:40], _A[i % 40]))
        d = {j: j * 2 for j in range(20)}
        s += sum(d.values())
    for _ in range(18):
        c = _B * _C
        c += _B
        s += float(c.sum(axis=1)[0] + np.cumprod(c[:, :5], axis=1)[0, -1])
    return time.perf_counter() - start


class Probe:
    """Reference times taken between the operations of a pass."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def maybe(self) -> int:
        """Probe if PROBE_EVERY_S has passed since the last probe ended.

        Returns the index of the latest sample.
        """
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.force()
        return len(self.samples) - 1

    def force(self) -> None:
        self.samples.append(reference())
        self._last = time.perf_counter()

    def factor(self, before: int, after: int) -> float:
        """Scale for an operation between samples `before` and `after`."""
        return NOMINAL_S / (0.5 * (self.samples[before] + self.samples[after]))


def scaled_setup(raw_s: float, probes: int = 3) -> float:
    """Set-up seconds scaled by the median of references taken after it."""
    refs = sorted(reference() for _ in range(probes))
    return raw_s * NOMINAL_S / refs[len(refs) // 2]
