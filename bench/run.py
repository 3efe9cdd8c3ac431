"""Benchmark of the greyvar library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every greyvar process runs from
`src/` with BLAS pinned to one thread, so `ref_wall_s.t2` means two
worker threads.  With `--trace 0` it prints the end-to-end metrics:
set-up time (median of fresh interpreters that import greyvar.cli and
make the workload's warm-up calls), the median wall time of a warm pass
at 1 and 2 threads scaled to a reference core speed, and peak resident
memory through warm-up and one 1-thread pass.  With `--trace 1` it
alternates untraced and traced passes at 1 thread and prints the
per-layer metrics.  Outputs are checked in both modes.  The last line of output is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`; scratch files, spans and a
result record go to `.bench_out/`.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("simulate-presets", "validate-many-short", "analyse-stored")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.95
# Pass times are scaled to a core on which probe.py's kernel takes this
# much CPU time, about its median on the 2-core Xeon host of the first
# baseline.
REF_KERNEL_S = 0.002

# (name, unit, better, bound as a share of the parent's median).  On a
# shared 2-core machine the speed of a core drifts by up to 40% over
# seconds to minutes and the host takes cores away (steal time), so raw
# pass times spread by 3-21% across 30-second runs; less steal time and
# scaled by the probe's kernel time they spread by 1.5-6%.  Set-up time is
# not scaled and gets the widest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ref_wall_s.t1", "s", "lower", 0.2),
    ("ref_wall_s.t2", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = [
    (f"sampling.sample_ggbm.{branch}.{stat}", unit, "lower")
    for branch in ("dyadic", "uniform")
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("us_per_point", "us"))
] + [
    ("sampling.sample_ggbm_batch.calls", "count", "lower"),
    ("sampling.sample_ggbm_batch.self_s", "s", "lower"),
    ("sampling.sample_ggbm_batch.us_per_path", "us", "lower"),
    ("sampling.points", "count", "lower"),
] + [
    (f"variation.{fn}.{stat}", unit, "lower")
    for fn in ("variation_sequence", "p_variation_sum", "hoelder_dominance_bound")
    for stat, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("variation.increments", "count", "lower"),
    ("variation.ns_per_increment", "ns", "lower"),
] + [
    (f"inference.{fn}.self_s", "s", "lower")
    for fn in ("estimate_alpha", "estimate_beta", "estimate_beta_pooled", "discriminate")
] + [
    ("inference.beta_solved_ratio", "ratio", "higher"),
    ("inference.decided_ratio", "ratio", "higher"),
] + [
    (f"special.{fn}.{stat}", unit, "lower")
    for fn in ("mwright_pdf", "mittag_leffler")
    for stat, unit in (("calls", "count"), ("self_s", "s"))
] + [
    (f"validation.{fn}.self_s", "s", "lower")
    for fn in ("special_identity_report", "check_increment_cf", "check_even_moments",
               "check_mixing_decay", "gauss_legendre_integral")
] + [
    ("validation.checks_passed_ratio", "ratio", "higher"),
    ("serialize.load_bundle.self_s", "s", "lower"),
    ("serialize.bytes_read", "bytes", "lower"),
    ("serialize.path_to_csv.self_s", "s", "lower"),
    ("serialize.atomic_write_bytes.self_s", "s", "lower"),
    ("serialize.bytes_written", "bytes", "lower"),
] + [
    (f"cli.run_config.{command}.s", "s", "lower")
    for command in ("variation", "discriminate", "sample", "validate")
] + [
    ("cli.run_config.self_s", "s", "lower"),
] + [
    (f"{layer}.self_s", "s", "lower")
    for layer in ("special", "sampling", "variation", "inference", "validation", "serialize")
] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode: str, args, work: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", work, "--size", args.size, *extra]
    # A session of its own, so that on a timeout the worker and the probe
    # process it starts are stopped together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the worker's process group and wait until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _ref_wall(walls: list, stolen: list, kernel_s: list) -> float:
    """Median pass wall time, less the time the host took its cores away,
    scaled to the reference core speed."""
    return statistics.median((w - s) / k * REF_KERNEL_S
                             for w, s, k in zip(walls, stolen, kernel_s))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "greyvar", "cli.py")):
        print(f"error: no greyvar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(".bench_out", f"work-{tag}")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    spans_path = os.path.join(out_dir, f"spans-{tag}.jsonl")
    try:
        _worker("prep", args, work)
        extra = ["--seconds", str(args.seconds)]
        if args.trace:
            extra += ["--spans", spans_path]
        measured = json.loads(_worker("measure", args, work, *extra).stdout.strip().splitlines()[-1])
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                _worker("setup", args, work)
                setups.append(time.perf_counter() - start)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    failures = list(measured["failures"])
    walls = measured["walls"]
    if args.trace:
        layers = measured["layers"]
        values = {name: layers.get(name, 0.0) for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
        if values["trace.coverage"] < MIN_COVERAGE:
            failures.append(f"trace coverage {values['trace.coverage']:.4f} < {MIN_COVERAGE}")
    else:
        kernel_s, stolen_s = measured["kernel_s"], measured["stolen_s"]
        values = {
            "setup_s": statistics.median(setups),
            "ref_wall_s.t1": _ref_wall(walls["t1"], stolen_s["t1"], kernel_s["t1"]),
            "ref_wall_s.t2": _ref_wall(walls["t2"], stolen_s["t2"], kernel_s["t2"]),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}

    attempted = measured["attempted"]
    failed = min(len(failures), attempted)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **measured["environment"],
        "pass_walls_s": {kind: w for kind, w in walls.items() if w},
        "median_pass_wall_s": {kind: statistics.median(w) for kind, w in walls.items() if w},
        "probe_kernel_cpu_s": measured.get("kernel_s"),
        "probe_stolen_s": measured.get("stolen_s"),
        "setup_runs_s": setups,
        "results_sha256": measured["digests"],
        "failed_ops": failed / attempted,
        "failures": failures,
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as handle:
        json.dump({"record": record, "metrics": values}, handle, indent=1, sort_keys=True)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:<48} {value:>16.6g} {units[name]}")
    print(f"{'failed_ops':<48} {record['failed_ops']:>16.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
