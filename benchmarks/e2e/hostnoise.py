"""Host-noise guard: calibration kernels and a concurrent speed monitor.

This benchmark runs on shared two-core VMs whose effective speed steps
between about 1x, 1.5x and 2x slower for seconds at a time (measured:
the same 200x200 GEMM takes 4.2, 6.1 or 8.3 ms in consecutive
two-second windows, with no steal time visible to the guest).  A run of
half a minute samples those states unevenly, so wall-clock medians of
identical code differ by 15-25% between runs.

Two instruments deal with that, both independent of the code under
test:

* :class:`Calibration`: two fixed numpy kernels timed at the
  start, middle and end of a run; their max/min - 1 is
  ``host.calib_drift`` and marks a run ``unstable``.
* :class:`SpeedMonitor`: a child process pinned to the benchmark's own
  CPU that times a fixed 0.2 ms kernel twenty-five times a second.  It sees
  exactly the slowdown the measured code sees, *while* the code runs,
  so a sample's wall time divided by the monitor's mean slowdown over
  that sample's interval estimates the time on a quiet host.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

import numpy as np

#: duration of the monitor kernel on the reference host (2.1 GHz Xeon VM)
#: in its quiet state; a sample's slowdown is measured against it.  On a
#: different host every normalised time scales by one constant factor,
#: which no comparison between two runs on that host can see.
REFERENCE_KERNEL_S = 1.6e-4
MONITOR_PERIOD_S = 0.04

def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Two fixed numpy kernels, timed whenever ``take`` is called."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = rng.standard_normal((200, 200))
        self._stream = rng.standard_normal(1_000_000)
        self.gemm_s: list[float] = []  # ten 200x200 products (compute bound)
        self.stream_s: list[float] = []  # five 8 MB multiply-adds (memory bound)
        self.take()

    def take(self) -> None:
        self.gemm_s.append(_best_of(lambda: [self._dense @ self._dense for _ in range(10)]))
        self.stream_s.append(
            _best_of(lambda: [self._stream * 1.0001 + self._stream for _ in range(5)])
        )

    @property
    def drift(self) -> float:
        """max/min - 1 of the worse kernel over all takes."""
        return max(max(s) / min(s) - 1.0 for s in (self.gemm_s, self.stream_s))

    def as_dict(self) -> dict:
        return {
            "calib_gemm_s": self.gemm_s,
            "calib_stream_s": self.stream_s,
            "calib_drift": self.drift,
        }


def pin_to_current_cpu() -> int | None:
    """Pin this process (and every thread it starts later) to one CPU.

    With one client, one dispatcher and one worker that wait on each
    other, a single CPU loses nothing, and it is what lets the monitor
    share the measured code's hardware thread.  Returns the CPU, or
    ``None`` where affinity is not supported.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        # the CPU this thread is on now, or the first allowed one
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        if cpu not in cpus:
            cpu = cpus[0]
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError, ValueError, IndexError):
        return None


class SpeedMonitor:
    """Child process timing a fixed kernel on the benchmark's CPU.

    The child reads nothing and writes its records to its stdout when
    its stdin closes, so it also ends if the benchmark dies.  ``stop``
    closes the pipe and waits for the child.
    """

    def __init__(self, cpu: int | None):
        self.cpu = cpu
        self._proc: subprocess.Popen | None = None
        self._times: list[float] = []
        self._durs: list[float] = []

    def start(self) -> None:
        if self.cpu is None:
            return
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        # wait until the child has imported numpy and taken a sample
        self._proc.stdout.readline()

    def stop(self) -> None:
        if self._proc is None:
            return
        out, _ = self._proc.communicate()
        self._proc = None
        data = np.frombuffer(out, dtype=np.float64).reshape(-1, 2)
        self._times = data[:, 0].tolist()
        self._durs = data[:, 1].tolist()

    @property
    def active(self) -> bool:
        return bool(self._durs)

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran over ``[start, end]``.

        Work that takes ``w`` quiet seconds takes ``w * f(t)`` under
        slowdown ``f``, so the quiet time of an interval is its wall time
        times the mean of ``1/f`` over it: the harmonic mean of the
        readings.  A reading inflated by preemption of the child counts
        for almost nothing in it.  1.0 without a monitor; short intervals
        borrow their neighbours' readings.
        """
        if not self._durs:
            return 1.0
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        while hi - lo < 5 and (lo > 0 or hi < len(self._durs)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self._durs))
        return statistics.harmonic_mean(self._durs[lo:hi]) / REFERENCE_KERNEL_S

    def overall(self) -> float:
        """Slowdown over the whole run."""
        if not self._durs:
            return 1.0
        return statistics.harmonic_mean(self._durs) / REFERENCE_KERNEL_S

    def series(self) -> list[list[float]]:
        """``[time, kernel seconds]`` readings, for the ``--out`` document."""
        return [list(pair) for pair in zip(self._times, self._durs)]


class Samples:
    """Timed intervals by name; ``quiet`` divides each by the slowdown the
    monitor saw during it, once the monitor has stopped."""

    def __init__(self):
        self.by_name: dict[str, list[tuple[float, float, int]]] = {}

    def add(self, name: str, start: float, end: float, divisor: int = 1) -> None:
        # a burst's wall is shared by its ``divisor`` right-hand sides
        self.by_name.setdefault(name, []).append((start, end, divisor))

    def time(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, start, time.perf_counter())
        return out

    def wall(self, name: str) -> list[float]:
        return [(e - s) / d for s, e, d in self.by_name.get(name, [])]

    def quiet(self, name: str, monitor: SpeedMonitor) -> list[float]:
        return [
            (e - s) / d / monitor.slowdown(s, e) for s, e, d in self.by_name.get(name, [])
        ]


def _monitor_main(cpu: int) -> None:
    """The child: time the kernel every period until stdin closes."""
    import select

    os.sched_setaffinity(0, {cpu})
    rng = np.random.default_rng(0)
    v = 256
    links = rng.standard_normal((v, 3, 3)) + 1j * rng.standard_normal((v, 3, 3))
    field = rng.standard_normal((v, 4, 3)) + 1j * rng.standard_normal((v, 4, 3))
    gather = rng.permutation(v)
    dense = rng.standard_normal((128, 128))

    def kernel() -> None:
        # the three kinds of work the program does: gathered small
        # matrix products with a reduction, a BLAS call, interpreter time
        hop = np.matmul(links[:, None, :, :], field[gather][..., None])[..., 0]
        np.vdot(hop, field)
        dense @ dense
        acc = 0
        for i in range(1000):
            acc += i * i

    records: list[float] = []
    announced = False
    while True:
        kernel()  # refill the caches the benchmark just evicted
        t0 = time.perf_counter()
        kernel()
        records += (t0, time.perf_counter() - t0)
        if not announced:
            sys.stdout.buffer.write(b"ready\n")
            sys.stdout.buffer.flush()
            announced = True
        if select.select([sys.stdin], [], [], MONITOR_PERIOD_S)[0]:
            break
    sys.stdout.buffer.write(np.asarray(records, dtype=np.float64).tobytes())
    sys.stdout.buffer.flush()


if __name__ == "__main__":
    _monitor_main(int(sys.argv[1]))
