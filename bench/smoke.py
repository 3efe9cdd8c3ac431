"""Smoke test of the greyvar benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload untraced and traced with `--size tiny`, and checks
that each prints a well-formed, correct result naming every metric, that
the traced runs record every span the per-layer metrics are built from,
that BENCHMARK.json matches run.py, and that the benchmark refuses to run
without the greyvar sources.  It is a script rather than a pytest module,
so the tier-1 suite does not collect it; it takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SPAN_NAMES = {
    "sampling.sample_ggbm", "sampling.sample_ggbm_batch",
    "variation.variation_sequence", "variation.p_variation_sum",
    "variation.hoelder_dominance_bound",
    "inference.estimate_alpha", "inference.estimate_beta", "inference.estimate_beta_pooled",
    "inference.discriminate",
    "special.mwright_pdf", "special.mittag_leffler",
    "validation.special_identity_report", "validation.check_increment_cf",
    "validation.check_even_moments", "validation.check_mixing_decay",
    "validation.gauss_legendre_integral",
    "serialize.load_bundle", "serialize.path_to_csv", "serialize.atomic_write_bytes",
    "cli.run_config",
}
SPAN_KEYS = {"name", "start", "end", "parent", "pass_id", "info"}
SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_definition() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END), "end_to_end differs from run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
          "per_layer differs from run.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "workloads differ from run.py")


def check_run(workload: str, trace: int) -> set:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
    check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: {proc.stderr}")
    check(result["attempted"] >= 1, "no operations attempted")
    table = run.PER_LAYER if trace else run.END_TO_END
    expected = {m[0]: m[1] for m in table}
    check({k: v["unit"] for k, v in result["metrics"].items()} == expected,
          f"{workload} trace={trace}: metric names or units differ")
    if not trace:
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{workload}: an end-to-end metric is not positive")
        return set()
    spans_path = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{SEED}-trace1.jsonl")
    with open(spans_path) as handle:
        spans = [json.loads(line) for line in handle]
    check(spans and all(set(s) == SPAN_KEYS for s in spans), "malformed span records")
    return {s["name"] for s in spans}


def check_refuses_without_sources() -> None:
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0, "ran without the greyvar sources")
    check(not proc.stdout.strip(), "printed a result without the greyvar sources")


def main() -> int:
    check_definition()
    check_refuses_without_sources()
    seen = set()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            seen |= check_run(workload, trace)
    check(SPAN_NAMES <= seen, f"spans never recorded: {sorted(SPAN_NAMES - seen)}")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
