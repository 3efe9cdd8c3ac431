"""One process of the greyvar benchmark; run.py starts it.

    worker.py prep|setup|measure --workload W --seed N --work DIR
              [--size full|tiny] [--seconds S] [--spans FILE]

`prep` writes the workload's stored inputs, `setup` imports greyvar and
makes the warm-up calls (run.py times the whole process), and `measure`
times passes for at least S seconds and prints one JSON line; with
--spans it alternates untraced and traced passes at one thread and
writes the spans to FILE.  Without --spans a SpeedProbe measures how fast
the cores ran during each pass, so run.py can scale pass times to a
reference core speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from spans import Tracer, pass_metrics

HERE = os.path.dirname(os.path.abspath(__file__))


class SpeedProbe:
    """Client of probe.py, which measures how fast the cores ran during a
    pass and how long the host took them away; it runs on the pass's cores
    and takes about 2% of one."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def begin(self, cpus: list):
        self.proc.stdin.write(" ".join(["begin", *map(str, cpus)]) + "\n")
        self.proc.stdin.flush()

    def end(self) -> tuple:
        """(mean CPU time of one kernel run, steal time per core) since begin()."""
        self.proc.stdin.write("end\n")
        self.proc.stdin.flush()
        kernel, stolen = self.proc.stdout.readline().split()
        return float(kernel), float(stolen)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=10)
        self.proc.stdout.close()


def _measure(workload, seconds: float, spans_path: str | None, probe) -> dict:
    workload.warm_up()
    walls = {"t1": [], "t2": [], "traced": []}
    record = {"attempted": 0, "failures": [], "digests": None}
    trace = spans_path is not None
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    kernel_s = {"t1": [], "t2": []}
    stolen_s = {"t1": [], "t2": []}
    tracer = None
    if trace:
        tracer = Tracer()
        per_pass = []
        # Untraced and traced passes alternate, all at one thread.
        kinds = [("t1", 1), ("traced", 1)]
    else:
        kinds = [("t1", 1), ("t2", 2)]

    def one_pass(kind, threads):
        if kind == "traced":
            tracer.install(len(walls["traced"]))
        # A 1-thread pass, and the probe with it, stay on one core.
        pass_cpus = cpus[:1] if threads == 1 else cpus
        if cpus:
            os.sched_setaffinity(0, pass_cpus)
        if probe is not None:
            probe.begin(pass_cpus)
        try:
            start = time.perf_counter()
            res = workload.run_pass(threads)
            wall = time.perf_counter() - start
        finally:
            if kind == "traced":
                tracer.uninstall()
            if probe is not None:
                kernel, stolen = probe.end()
        if kind == "traced":
            per_pass.append(pass_metrics(tracer.spans, len(walls["traced"]), wall))
        walls[kind].append(wall)
        if probe is not None:
            kernel_s[kind].append(kernel)
            stolen_s[kind].append(stolen)
        record["attempted"] += res.attempted
        record["failures"] += res.failures
        digests = {key: workloads.digest(out) for key, out in res.outputs.items()}
        if record["digests"] is None:
            record["digests"] = digests
            record["failures"] += workload.check(res.outputs)
        elif digests != record["digests"]:
            changed = sorted(k for k in set(digests) | set(record["digests"])
                             if digests.get(k) != record["digests"].get(k))
            record["failures"] += [f"{k}: results differ from the first pass ({kind})"
                                   for k in changed]

    # One untimed pass lets memory and caches settle; its outputs are the
    # reference that every timed pass must reproduce.
    one_pass("t1", 1)
    walls["t1"].clear()
    kernel_s["t1"].clear()
    stolen_s["t1"].clear()
    # Peak memory of warm-up plus one pass at 1 thread; 2-thread passes
    # would add a timing-dependent overlap of per-thread buffers.
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Timed passes run in the order A B B A A B ..., so drift during the run
    # hits both kinds alike, until the time is up and each kind has run once.
    order = kinds + kinds[::-1]
    started = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - started < seconds:
        one_pass(*order[i % 4])
        i += 1

    record["walls"] = walls
    record["kernel_s"] = kernel_s
    record["stolen_s"] = stolen_s
    if trace:
        names = sorted({k for m in per_pass for k in m})
        layers = {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in names}
        layers["trace.overhead_ratio"] = (
            statistics.median(walls["traced"]) / statistics.median(walls["t1"]) - 1.0)
        record["layers"] = layers
        tracer.write(spans_path)
    return record


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["prep", "setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="trace passes and write their spans to this file")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size], args.work)
    if args.mode == "prep":
        workload.prepare()
    elif args.mode == "setup":
        workload.warm_up()
    else:
        probe = None if args.spans else SpeedProbe()
        try:
            record = _measure(workload, args.seconds, args.spans, probe)
        finally:
            if probe is not None:
                probe.close()
        record["environment"] = _environment()
        print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
