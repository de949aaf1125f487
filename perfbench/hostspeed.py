"""Host speed, measured with a fixed loop of the benchmark's own.

On the 2-core VM the benchmark was built on, the speed at which a core
runs Python switches between two levels about 1.8x apart, for stretches
from a tenth of a second to minutes, whatever the process itself does
(another tenant's load, as far as can be told from inside).  Raw host
seconds then measure the neighbour as much as idastra.  The loop below
does a fixed amount of interpreter work of the same kinds the search
does (integer arithmetic, tuples, list and dict operations, calls) and
uses nothing of idastra; timed between the program's operations, it
tells how fast the host is running Python at that moment.  A time
measured over an interval, divided by the mean loop time over the same
interval and multiplied by REFERENCE_S, is that time at the reference
speed.  Interleaved with a serial puzzle search, the ratio of the two
varied 3% (coefficient of variation over 1-second blocks) where the
search time alone varied 9%.
"""

import signal
import time

# about one loop's time on that VM (Python 3.11); any fixed value would
# do, since results are compared only on one machine
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.1


def _work():
    acc = {}
    stack = []
    x = 12345
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = (x >> 16) & 255
        acc[key] = acc.get(key, 0) + 1
        stack.append((key, i, x & 7))
        if len(stack) > 8:
            stack.pop(0)
    return len(acc) + len(stack)


def sample():
    """Seconds one run of the fixed loop takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Sampler:
    """Samples the loop every SAMPLE_EVERY_S of wall time (from a SIGALRM
    handler, so long calls are sampled too) while in its `with` block,
    and once just outside it at either end."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0        # seconds of the block spent sampling
        self._old = None

    def _take(self, *_signal):
        dt = sample()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.samples.append(sample())
        self._old = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(sample())
        return False

    def scale(self, wall):
        """Factor turning seconds measured over the block (of `wall`
        seconds) into seconds at the reference speed, sampling left out."""
        mean = sum(self.samples) / len(self.samples)
        return (wall - self.spent) / wall * REFERENCE_S / mean
