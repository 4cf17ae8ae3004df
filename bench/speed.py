"""Machine-speed monitor, so that times from a noisy host can be compared.

On a shared virtual machine the speed of a CPU moves by 2x and more
within seconds when other tenants load the same physical core: on a
2-vCPU x86-64 KVM guest, a pure Python item that takes 0.075 s in one
second takes 0.14 s in the next,
and the process's CPU time moves just as much.  So the benchmark pins
itself to one CPU and runs this module there as a second process, which
times a small fixed probe (exact Gaussian elimination of a 5 x 7 rational
matrix, standard library only, independent of pbwforge) every
INTERVAL_S seconds and appends ``end_time duration`` lines to a file.
An interval of work is then reported at the reference speed:

    scaled = wall * REFERENCE_S / mean(probe durations during the interval)

REFERENCE_S is about what the probe takes in the monitor on the machine
the benchmark was defined on, so scaled times read as seconds there.
The monitor takes about 1% of the CPU.

    python3 bench/speed.py FILE     # the monitor; stops when its parent exits
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_S = 0.001
INTERVAL_S = 0.1
MIN_SAMPLES = 3

_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i * j + 2) % 5) for j in range(7))
    for i in range(5)
)


def probe() -> float:
    """Seconds taken by one fixed exact row reduction."""
    start = time.perf_counter()
    rows = [list(r) for r in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        src = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    if r != len(_MATRIX):
        raise RuntimeError("speed probe lost rank")
    return time.perf_counter() - start


class Monitor:
    """The probe loop in a child process, and the scale factors it gives."""

    def __init__(self, path: Path) -> None:
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        self.times: list = []
        self.durations: list = []

    def refresh(self) -> None:
        """Read the samples written so far."""
        times, durations = [], []
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                parts = line.split()
                if len(parts) == 2:
                    times.append(float(parts[0]))
                    durations.append(float(parts[1]))
        self.times, self.durations = times, durations

    def scaled(self, wall: float, t0: float, t1: float) -> float:
        """``wall`` seconds spent in [t0, t1], at the reference speed.

        Uses the probes that ended inside the interval, widened to the
        nearest MIN_SAMPLES probes when the interval is short."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        n = len(self.times)
        if n < MIN_SAMPLES:
            raise RuntimeError("the speed monitor recorded too few samples")
        while hi - lo < MIN_SAMPLES:
            if lo > 0 and (hi >= n or t0 - self.times[lo - 1] <= self.times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        window = self.durations[lo:hi]
        return wall * REFERENCE_S * len(window) / sum(window)

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        self.refresh()
        self.path.unlink(missing_ok=True)


def monitor(path: str) -> None:
    parent = os.getppid()
    with open(path, "a", buffering=1) as out:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            d = probe()
            out.write(f"{time.perf_counter():.6f} {d:.8f}\n")


if __name__ == "__main__":
    monitor(sys.argv[1])
