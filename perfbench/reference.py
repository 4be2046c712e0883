"""Fixed loops that gauge how fast the host runs right now.

On a shared host the same code can run up to twice as slow, in bursts and in
stretches of up to a minute.  The benchmark reads a gauge loop just before
and just after each command and each set-up, and scales the command's time
by the gauge's nominal time over the faster reading, which gives the
command's seconds at the host's nominal speed.  The gauges do not touch the
package, so a change to the package moves the command's time and not the
gauge.

Interpreted Python and LAPACK slow down by different amounts, so there are
two gauges and each workload names the one that resembles its work:
``mixed`` (integer, ``Fraction``, dict and adjacency-list loops plus a small
eigensolve) and ``lapack`` (dense symmetric eigensolves only).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy

REPEATS = 3
_SMALL = numpy.add.outer(numpy.arange(80.0), numpy.arange(80.0)) % 17
_LARGE = numpy.add.outer(numpy.arange(160.0), numpy.arange(160.0)) % 17


def _mixed():
    total = 0
    for i in range(40_000):
        total += i * i % 7
    x = Fraction(1, 3)
    for i in range(1, 400):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    table = {}
    for i in range(10_000):
        table[(i * 7919) % 65521, i & 255] = i
    adj = [[] for _ in range(1000)]
    for i in range(10_000):
        adj[(i * 31) % 1000].append((i * 17) % 1000)
    seen, stack = set(), [0]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj[v])
    numpy.linalg.eigvalsh(_SMALL)


def _lapack():
    for _ in range(3):
        numpy.linalg.eigvalsh(_LARGE)


# Each gauge's loop and its time at the host's full speed: the fastest of
# many runs on a 2-vCPU Intel Xeon VM with CPython 3.11 and one BLAS thread.
# The nominal time only fixes the scale of the reported seconds; the ratios
# between runs do not depend on it.
GAUGES = {
    "mixed": (_mixed, 0.0077),
    "lapack": (_lapack, 0.0032),
}


def reference_s(gauge: str) -> float:
    """The median time of ``REPEATS`` runs of the gauge's loop, in seconds."""
    loop, _ = GAUGES[gauge]
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, before: float, after: float, gauge: str) -> float:
    """``seconds`` at nominal speed, given the gauge just before and after.

    It takes the faster of the two readings: the host slows in bursts, and a
    burst that hits one reading but not the command would otherwise make the
    command look fast.
    """
    return seconds * GAUGES[gauge][1] / min(before, after)
