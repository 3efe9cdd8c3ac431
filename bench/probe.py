"""Speed probe: how fast the cores ran while a pass ran.

    python3 probe.py        (worker.py starts it and talks to it on stdin/stdout)

On a shared host a core's speed drifts by up to 40% over seconds to
minutes, and the host takes cores away for a while (steal time, up to
30% of a pass at 2 threads).  Between `begin CPU...` and `end`, this
process wakes every INTERVAL_S seconds and runs a fixed kernel of about
2 ms (an FFT, a Cholesky factorisation and an interpreter loop, the kinds
of work a pass does, and no greyvar code) on each listed core in turn,
and records the CPU time it took: a slower core spends more CPU time on
the same work.  On `end` it prints the mean CPU time of one kernel run
and the steal time of the listed cores averaged over them, in seconds.
It is a process of its own so that it never waits for the GIL of the
process it measures.  It exits when its standard input closes.
"""

from __future__ import annotations

import os
import select
import sys
import time

import numpy as np

INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
SIGNAL = _rng.standard_normal(1 << 14)
_m = _rng.standard_normal((60, 60))
SPD = _m @ _m.T + 60.0 * np.eye(60)


def kernel_cpu_s() -> float:
    """Run the kernel once; return the CPU time it took."""
    start = time.thread_time()
    for _ in range(4):
        np.abs(np.fft.rfft(SIGNAL)).sum()
        np.linalg.cholesky(SPD)
    total = 0
    for i in range(8_000):
        total += i * i % 7
    return time.thread_time() - start


def steal_s(cpus: list) -> float:
    """Steal time of these cores so far, summed, from /proc/stat (0 where
    the system does not report it)."""
    try:
        with open("/proc/stat") as handle:
            lines = handle.readlines()
    except OSError:
        return 0.0
    names = {f"cpu{c}" for c in cpus}
    ticks = sum(int(f[8]) for f in (line.split() for line in lines)
                if f[0] in names and len(f) > 8)
    return ticks / os.sysconf("SC_CLK_TCK")


def main() -> int:
    kernel_cpu_s()
    cpus: list = []
    stolen_at_begin = 0.0
    samples: list = []
    active = False
    turn = 0
    stdin = sys.stdin.buffer.raw
    pending = b""
    while True:
        ready, _, _ = select.select([stdin], [], [], INTERVAL_S)
        if not ready:
            if active:
                if cpus:
                    os.sched_setaffinity(0, [cpus[turn % len(cpus)]])
                    turn += 1
                samples.append(kernel_cpu_s())
            continue
        chunk = os.read(stdin.fileno(), 4096)
        if not chunk:
            return 0
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            command, *args = line.decode().split()
            if command == "begin":
                cpus = [int(a) for a in args]
                samples = []
                active = True
                stolen_at_begin = steal_s(cpus)
            elif command == "end":
                active = False
                stolen = (steal_s(cpus) - stolen_at_begin) / max(len(cpus), 1)
                # A pass too short for a sample gets one taken now.
                samples = samples or [kernel_cpu_s()]
                print(repr(sum(samples) / len(samples)), repr(stolen), flush=True)


if __name__ == "__main__":
    sys.exit(main())
