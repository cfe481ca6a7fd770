"""Host-speed normalisation of wall-clock times.

On a shared host the same pass can take 40% longer when a neighbour
loads the core, and such phases last tens of seconds, so the medians of
raw wall time differ by more than any useful bound from one run to the
next.  A :class:`Speedometer` thread therefore times a fixed
calibration kernel — parsing a small JSON document into fresh objects —
every ``period`` seconds while the benchmark runs.  The kernel starts with cold caches, as the benchmark's
own code does after a thread switch, so it meets the same contention
for the shared caches and memory.  (20 ms of interpreter work evicts
the private caches whatever the benchmark's footprint, so the cold
start costs the kernel alike from one commit to the next.)

A region's *normalised* time is its host wall time scaled by
``REFERENCE_KERNEL_S`` over the kernel's mean time inside that region;
the slowest quarter of kernel timings is dropped, because those include
preemptions.  The result reads as seconds on a host where the kernel
takes ``REFERENCE_KERNEL_S``; the raw host times are reported beside it.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from typing import List, Tuple

#: Typical calibration kernel time on the host the benchmark was
#: written on (Intel Xeon vCPU at 2.1 GHz, Python 3.11).
REFERENCE_KERNEL_S = 0.00025

#: Fewest kernel timings a region's speed is estimated from; shorter
#: regions borrow the nearest timings around them.
MIN_SAMPLES = 12


#: The calibration document: small records, like the profile store's lines.
_DOCUMENT = json.dumps([{"a": index, "b": index * 0.5, "c": str(index)} for index in range(300)])


def kernel() -> int:
    """Fixed interpreter work: parse a JSON document into fresh objects."""

    return len(json.loads(_DOCUMENT))


class Speedometer:
    """Background thread timing :func:`kernel` every ``period`` seconds."""

    def __init__(self, period: float = 0.02) -> None:
        self.period = period
        #: (start time, kernel duration), in start order.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            start = time.perf_counter()
            kernel()
            self.samples.append((start, time.perf_counter() - start))

    def start(self) -> "Speedometer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def kernel_time(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]``, slowest quarter dropped."""

        times = [sample[0] for sample in self.samples]
        low = bisect.bisect_left(times, start)
        high = bisect.bisect_right(times, end)
        while high - low < MIN_SAMPLES and (low > 0 or high < len(times)):
            low, high = max(0, low - 1), min(len(times), high + 1)
        durations = sorted(sample[1] for sample in self.samples[low:high])
        kept = durations[: max(1, (len(durations) * 3) // 4)]
        return sum(kept) / len(kept)

    def normalise(self, start: float, end: float) -> float:
        """``end - start`` rescaled to the reference host speed."""

        return (end - start) * REFERENCE_KERNEL_S / self.kernel_time(start, end)
