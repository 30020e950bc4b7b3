"""A host-speed probe, so a timing means the same thing an hour later.

The reference host is a 2-vCPU VM whose speed wanders by tens of percent
at every time scale from 50 ms to an hour; a 10-second timed region read
off the wall clock spreads 15-20 % (quartiles, same inputs) and the
median drifts with the time of day. None of that is the simulator.

While a region is measured, a timer fires every ``INTERVAL_S`` and the
main thread runs a fixed kernel (dict, heap and integer work -- the
simulator's own diet), timing it with the thread's CPU clock so that a
pool worker preempting the kernel does not count. The region's *speed*
is the kernel's mean time over ``NOMINAL_KERNEL_S``; reported seconds
are ``(wall - CPU time spent in the probe) / speed``: what the region would
have taken had the host run at its nominal speed throughout. On the
reference host this cuts the spread of the serial workloads four- to
five-fold (README, "Steadiness"); raw seconds and the speed are kept in
every document.

The kernel touches no simulator state and no shared RNG, so results are
bit-identical with and without it (the result digests say so). Traced
runs do not use it: their seconds are attributed, not compared.
"""

from __future__ import annotations

import heapq
import signal
import time

#: sampling period; 200 samples in a 10 s region at ~3 % overhead
INTERVAL_S = 0.05
#: the kernel's long-run mean on the reference host, which makes
#: normalised seconds equal wall seconds there on an average day
NOMINAL_KERNEL_S = 1.7e-3


def _kernel() -> int:
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(2000):
        table[(i * 7919) % 5003] = i
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total + len(table)


class SpeedProbe:
    """Context manager; read :attr:`speed` and :meth:`normalise` after.

    ``sharing`` is how many pool workers the measured region runs on
    (1 = this thread): the probe's own CPU time comes out of the
    region's wall one-for-one when the region runs here, and is spread
    over the workers' cores when this thread only waits for them. A
    disabled probe arms no timer and leaves seconds raw."""

    def __init__(self, enabled: bool = True, sharing: int = 1) -> None:
        self.enabled = enabled
        self.sharing = sharing
        self.kernel_cpu_s: list[float] = []
        #: CPU seconds the probe itself used inside the region
        self.spent_s = 0.0

    def _fire(self, signum, frame) -> None:
        start = time.thread_time()
        _kernel()
        done = time.thread_time()
        self.kernel_cpu_s.append(done - start)
        self.spent_s += time.thread_time() - start

    def __enter__(self) -> "SpeedProbe":
        if self.enabled:
            signal.signal(signal.SIGALRM, self._fire)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            # Ignore, not default: an alarm already in flight must not kill us.
            signal.signal(signal.SIGALRM, signal.SIG_IGN)

    @property
    def speed(self) -> float:
        """Mean kernel time over nominal: above 1 is a slow host. A
        region with no sample (disabled, or shorter than the sampling
        period) reads as nominal."""
        samples = self.kernel_cpu_s
        if not samples:
            return 1.0
        return sum(samples) / len(samples) / NOMINAL_KERNEL_S

    def normalise(self, wall_s: float) -> float:
        return (wall_s - self.spent_s / self.sharing) / self.speed
