"""Host-speed probe: a fixed piece of work, timed between the program's ticks.

The shared virtual machines this benchmark runs on change speed by up to
about 1.7x, in stretches of a second to minutes, whatever the benchmark
does. The program and this probe slow down together (README.md has the
measurements), so the benchmark reports each time scaled by
`PROBE_REF_S / probe time nearby`: the time the work would take on a host
where the probe takes `PROBE_REF_S`. The probe does not call the program,
so a change to the program moves the scaled times and leaves the probe as
it was.

The probe mixes the kinds of work the program does, because the host's slow
stretches slow them by different amounts: a pure-Python float loop (the
interpreter), element-wise numpy on 160 KiB arrays, and attribute reads
from objects scattered over 3.5 MiB of heap, beyond the per-core cache
(memory latency, which neighbours on the host contend for). A probe with
only the first two parts left a bias of up to 20% between the host's fast
and slow stretches on `arena5k_avoid` and `maze1k_beacon`.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

# Probe time on the reference host. Chosen near the probe's time on the
# machine the benchmark was built on in its faster state, so that scaled
# figures read close to wall times there.
PROBE_REF_S = 4.0e-3
WINDOW = 10  # ticks on either side whose probes set one tick's speed

CELLS = 32768  # scattered objects; about 3.5 MiB, counted in the peak RSS
CHASE = 3750  # objects read per probe, continuing where the last stopped


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: float) -> None:
        self.x = x
        self.y = x


class Probe:
    """The fixed work. Build one per process, before the timed work."""

    def __init__(self) -> None:
        self.values = [float(i) for i in range(2000)]
        self.array = np.arange(20000, dtype=np.float64)
        self.cells = [_Cell(float(i)) for i in range(CELLS)]
        random.Random(0).shuffle(self.cells)  # visit them out of memory order
        self.cursor = 0
        self()  # the first run is cold

    def __call__(self) -> float:
        """Run the fixed work once; return its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(10):
            for x in self.values:
                acc += x * 0.5
        a = self.array
        for _ in range(20):
            a = np.sqrt(a * a + 1.0)
        end = self.cursor + CHASE
        for cell in self.cells[self.cursor : end]:
            acc += cell.x * cell.y
        self.cursor = end % (CELLS - CHASE)
        return time.perf_counter() - t0


def scale_ticks(tick_s: list[float], probe_s: list[float]) -> list[float]:
    """Scale each tick by the median probe time of the ticks within WINDOW
    of it; `probe_s[i]` was timed right before tick `i`."""
    scaled = []
    for i, t in enumerate(tick_s):
        near = probe_s[max(0, i - WINDOW) : i + WINDOW + 1]
        scaled.append(t * PROBE_REF_S / statistics.median(near))
    return scaled
