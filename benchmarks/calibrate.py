"""Host-speed calibration for the benchmark's gated timings.

The shared host the benchmark runs on changes speed by a fifth or more,
within seconds and over minutes, and every op's wall time changes with it.  A fixed kernel that
builds and rescales a dict shaped like a Fock state slows down the same
way, so the runner reports timings in reference seconds: wall seconds x
``REFERENCE_S`` / the kernel's time around them.  The host's speed moves
within seconds, so the kernel runs just before and just after what it
scales.  See README.md.

The kernel runs in a child process while the measuring process waits, so
the kernel's memory never counts in the measuring process's peak RSS.

    python3 benchmarks/calibrate.py   # times the kernel once per line on stdin
"""

from __future__ import annotations

import subprocess
import sys
import time

REFERENCE_S = 0.07  # the kernel's time on README.md's baseline host in its fast phase


def kernel() -> float:
    """Seconds to build and rescale a 100,000-entry dict from tuple keys to
    complex values, the shape of a Fock state in photonmesh."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(100000):
        key = (i & 1023, i >> 10, i % 5, i % 3)
        table[key] = table.get(key, 0j) + complex(i, 1)
    for key, value in table.items():
        table[key] = value * 0.5
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second, from kernel times just before and
    just after the interval being scaled."""
    return 2 * REFERENCE_S / (before + after)


class Calibrator:
    """A child process that times the kernel on request."""

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.times: list[float] = []
        try:
            self.run()  # the first run pays for the child's first allocations
        except BaseException:
            self._child.kill()
            self._child.wait()
            raise
        self.times.clear()

    def run(self) -> float:
        """Time the kernel once, in seconds."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        seconds = float(self._child.stdout.readline())
        self.times.append(seconds)
        return seconds

    def close(self) -> None:
        self._child.stdin.close()
        self._child.wait(timeout=60)

    def __enter__(self) -> Calibrator:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
