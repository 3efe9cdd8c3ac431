"""The three workloads of the greyvar benchmark.

Each workload derives every seed from one workload seed, runs passes of
public `greyvar` calls at a given thread count, and checks outputs with
properties that do not depend on the random stream.  Calls go through
module attributes (`cli.run_config`, not an imported name), so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import traceback
from concurrent.futures import ThreadPoolExecutor

import greyvar.cli as cli
import greyvar.inference as inference
import greyvar.sampling as sampling
import greyvar.serialize as serialize
import greyvar.special as special
import greyvar.variation as variation
from greyvar.errors import NoSolutionError
from greyvar.params import GreyParams

# Paths (for validate-all, paths per check) per pass.  `full` keeps one
# pass near a second on a 2-core machine, so a run holds many passes;
# validate-all cannot go lower because check_increment_cf rejects fewer
# than 10^4 paths.  `tiny` is for the smoke test.
SIZES = {
    "full": {"prop7-trichotomy": 20, "thm10-grid": 10, "fbm-singularity": 40,
             "sample": 4, "validate-all": 10_000, "stored": 30},
    "tiny": {"prop7-trichotomy": 2, "thm10-grid": 1, "fbm-singularity": 2,
             "sample": 2, "validate-all": 10_000, "stored": 3},
}
STORED_LEVEL = 16
STORED_GROUPS = ((1.0, 0.3), (1.2, 0.7), (1.6, 1.0))
FIT_LEVELS = (8, STORED_LEVEL)
Z_PASS = 4.0


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def digest(output) -> str:
    # Results may hold numpy scalars (a numpy bool for a passed flag).
    text = json.dumps(output, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()


def _pmap(fn, items, threads):
    """Order-preserving map over a thread pool, as the CLI does."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _non_finite(value, where: str) -> list:
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{where}: non-finite value {value}"]
    if isinstance(value, dict):
        return [f for k, v in value.items() for f in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, (list, tuple)):
        return [f for i, v in enumerate(value) for f in _non_finite(v, f"{where}[{i}]")]
    return []


class PassResult:
    """Outputs of one pass keyed by operation group, with failures."""

    def __init__(self):
        self.outputs: dict = {}
        self.attempted = 0
        self.failures: list = []

    def attempt(self, key, call, outcomes=()):
        """Run one operation; an exception in `outcomes` is a result, not a failure."""
        self.attempted += 1
        try:
            return call()
        except outcomes as exc:
            return {"outcome": type(exc).__name__}
        except Exception:
            self.failures.append(f"{key}: {traceback.format_exc(limit=4)}")
            return None


def _regime_failures(where: str, regime: str, growth: float) -> list:
    """Level-sequence growth (top-level sum over bottom-level sum, 8 octaves
    apart) must match the trichotomy label: the sums in these workloads
    shrink or grow by a factor 3 or more, or stay near their limit."""
    ok = {"zero": growth < 0.5, "infinite": growth > 2.0,
          "critical-finite": 0.5 <= growth <= 2.0}[regime]
    return [] if ok else [f"{where}: regime {regime} but sums grew by {growth:.3g}"]


class CliWorkload:
    """Commands through `cli.run_config`; one operation per command."""

    def __init__(self, ops, warm_ops):
        self.ops = ops
        self.warm_ops = warm_ops

    def prepare(self):
        pass

    def warm_up(self):
        for command, cfg in self.warm_ops:
            cli.run_config(command, dict(cfg))

    def run_pass(self, threads: int) -> PassResult:
        res = PassResult()
        for key, command, cfg in self.ops:
            report = res.attempt(key, lambda: cli.run_config(command, dict(cfg), threads=threads))
            if report is not None:
                res.outputs[key] = report["results"]
        return res

    def check(self, outputs: dict) -> list:
        failures = [f for key, out in outputs.items() for f in _non_finite(out, key)]
        for key, command, cfg in self.ops:
            if key not in outputs:
                continue
            check = getattr(self, f"_check_{command}")
            failures += check(key, cfg, outputs[key])
        return failures

    @staticmethod
    def _check_variation(key, cfg, out):
        failures = []
        n = out["n_paths"]
        for entry in out["table"]:
            label = variation.variation_trichotomy(cfg["alpha"], cfg["beta"], entry["p"])
            where = f"{key} p={entry['p']:.4g}"
            if entry["regime"] != label.regime.value:
                failures.append(f"{where}: regime {entry['regime']} != {label.regime.value}")
            failures += _regime_failures(where, label.regime.value,
                                         entry["median"][-1] / entry["median"][0])
            if label.regime.value == "critical-finite":
                se = entry["sd"][-1] / math.sqrt(n)
                if abs(entry["mean"][-1] - label.limit) > Z_PASS * se:
                    failures.append(f"{where}: top-level mean {entry['mean'][-1]:.4g} "
                                    f"not within 4 SE ({se:.3g}) of mu {label.limit:.4g}")
        return failures

    @staticmethod
    def _check_discriminate(key, cfg, out):
        failures = []
        for m in out["matrix"]:
            counts = m["counts"]
            if sum(counts.values()) != cfg["n_paths"]:
                failures.append(f"{key} pair {m['pair']}: decision counts do not sum to n_paths")
            won = counts["first"] if m["truth"] == m["pair"][0] else counts["second"]
            if m["accuracy"] != won / cfg["n_paths"]:
                failures.append(f"{key} pair {m['pair']}: accuracy disagrees with counts")
        return failures

    @staticmethod
    def _check_sample(key, cfg, out):
        files = out["files"]
        if len(files) != cfg["n_paths"]:
            return [f"{key}: wrote {len(files)} files for {cfg['n_paths']} paths"]
        # CSV floats round-trip exactly, so the files reproduce the checksum.
        values = b""
        for name in files:
            with open(name) as handle:
                values += serialize.path_from_csv(handle.read()).values.tobytes()
        if hashlib.sha256(values).hexdigest() != out["checksum"]:
            return [f"{key}: CSV files do not reproduce the reported checksum"]
        return []

    @staticmethod
    def _check_validate(key, cfg, out):
        failures = []
        expected = 1 + 3 * len(cfg["param_sets"])
        if len(out["checks"]) != expected:
            failures.append(f"{key}: {len(out['checks'])} checks, expected {expected}")
        if not out["all_passed"]:
            failed = [c["check"] for c in out["checks"] if not c["passed"]]
            failures.append(f"{key}: checks failed: {failed}")
        return failures


def _preset(name: str, n_paths: int, seed: int):
    cfg = cli.load_preset(name)
    command = cfg.pop("command")
    cfg.update(n_paths=n_paths, master_seed=derive_seed(seed, name))
    return name, command, cfg


def simulate_presets(seed: int, sizes: dict, work: str) -> CliWorkload:
    ops = [_preset(name, sizes[name], seed)
           for name in ("prop7-trichotomy", "thm10-grid", "fbm-singularity")]
    # A 1000-point uniform grid is not a power of two: the Cholesky branch.
    sample = {"process": "ggbm", "alpha": 1.2, "beta": 0.7, "grid": "uniform", "n": 999,
              "n_paths": sizes["sample"], "master_seed": derive_seed(seed, "sample"),
              "format": "csv", "out": os.path.join(work, "sample", "path.csv")}
    ops.append(("sample", "sample", sample))
    warm_sample = dict(sample, n_paths=1, out=os.path.join(work, "warm", "path.csv"))
    for cfg in (sample, warm_sample):
        os.makedirs(os.path.dirname(cfg["out"]), exist_ok=True)
    warm = [(ops[0][1], dict(ops[0][2], n_paths=1)), (ops[1][1], dict(ops[1][2], n_paths=1)),
            ("sample", warm_sample)]
    return CliWorkload(ops, warm)


class ValidateWorkload(CliWorkload):
    def warm_up(self):
        # cmd_validate rejects n_paths < 10^4, so warm up the layer calls it
        # makes with one path instead.
        cfg = self.ops[0][2]
        rng = sampling.RngSpec(cfg["master_seed"], 0)
        for alpha, beta in cfg["param_sets"]:
            sampling.sample_ggbm_batch(GreyParams(alpha, beta), sampling.DyadicGrid(1), rng, 1)
        special.mittag_leffler(0.5, 1.0)
        special.mwright_pdf(0.5, 1.0)


def validate_many_short(seed: int, sizes: dict, work: str) -> ValidateWorkload:
    return ValidateWorkload([_preset("validate-all", sizes["validate-all"], seed)], [])


class AnalyseStored:
    """Estimators on stored paths: load bundles, analyse every path, pool per group."""

    def __init__(self, seed: int, sizes: dict, work: str):
        self.seed = seed
        self.n_paths = sizes["stored"]
        self.bundles = [os.path.join(work, f"group{i}.npz") for i in range(len(STORED_GROUPS))]
        self.warm_bundle = os.path.join(work, "warm.npz")

    def prepare(self):
        grid = sampling.DyadicGrid(STORED_LEVEL)
        for i, (alpha, beta) in enumerate(STORED_GROUPS):
            rng = sampling.RngSpec(derive_seed(self.seed, f"group{i}"), 0)
            params = GreyParams(alpha, beta)
            paths = [sampling.sample_ggbm(params, grid, rng.stream(j)) for j in range(self.n_paths)]
            serialize.save_bundle(self.bundles[i], paths)
            if i == 0:
                serialize.save_bundle(self.warm_bundle, paths[:1])

    def warm_up(self):
        paths, header = serialize.load_bundle(self.warm_bundle)
        params = GreyParams(**header["params"])
        _analyse_path((paths[0], params, _candidates(params)))
        try:
            inference.estimate_beta_pooled(paths, params.alpha, inference.region_for(params))
        except NoSolutionError:
            pass

    def run_pass(self, threads: int) -> PassResult:
        res = PassResult()
        groups = []
        for i, bundle in enumerate(self.bundles):
            loaded = res.attempt(f"group{i} load", lambda: serialize.load_bundle(bundle))
            if loaded is not None:
                paths, header = loaded
                params = GreyParams(**header["params"])
                groups.append((i, paths, params, _candidates(params)))
        items = [(path, params, cands) for _, paths, params, cands in groups for path in paths]
        rows = iter(_pmap(_analyse_path, items, threads))
        for i, paths, params, _ in groups:
            group_rows = []
            for _ in paths:
                row, attempted, failures = next(rows)
                res.attempted += attempted
                res.failures += failures
                group_rows.append(row)
            region = inference.region_for(params)
            pooled = res.attempt(
                f"group{i} pooled",
                lambda: _beta_dict(inference.estimate_beta_pooled(paths, params.alpha, region)),
                NoSolutionError)
            res.outputs[f"group{i}"] = {"alpha": params.alpha, "beta": params.beta,
                                        "paths": group_rows, "pooled_beta": pooled}
        return res

    def check(self, outputs: dict) -> list:
        failures = [f for key, out in outputs.items() for f in _non_finite(out, key)]
        for key, out in outputs.items():
            rows = out["paths"]
            alpha_hats = [r["alpha"]["alpha_hat"] for r in rows if r.get("alpha")]
            if alpha_hats and abs(statistics.median(alpha_hats) - out["alpha"]) > 0.05:
                failures.append(f"{key}: median alpha_hat {statistics.median(alpha_hats):.4f} "
                                f"not within 0.05 of {out['alpha']}")
            for p in _p_values(out["alpha"]):
                seqs = [r[f"V{p!r}"] for r in rows if r.get(f"V{p!r}")]
                if not seqs:
                    continue
                growth = statistics.median(s[-1] / s[0] for s in seqs)
                label = variation.variation_trichotomy(out["alpha"], out["beta"], p)
                failures += _regime_failures(f"{key} p={p:.4g}", label.regime.value, growth)
        return failures


def _p_values(alpha: float):
    return (1.0, 2.0 / alpha, 3.0)


def _candidates(params: GreyParams):
    """The path's own law, a different-alpha rival and an equal-alpha rival."""
    own = inference.Candidate(params)
    other_alpha = params.alpha + 0.4 if params.alpha + 0.4 < 2.0 else params.alpha - 0.4
    other_beta = 0.9 if params.beta < 0.6 else 0.3
    return (own, inference.Candidate(GreyParams(other_alpha, params.beta)),
            inference.Candidate(GreyParams(params.alpha, other_beta)))


def _beta_dict(b) -> dict:
    return {"beta_hat": b.beta_hat, "boundary": b.boundary, "target_gamma": b.target_gamma,
            "v_value": b.v_value}


def _analyse_path(item):
    """Per-path analysis; returns (row, operations attempted, failures)."""
    path, params, (own, rival_alpha, rival_beta) = item
    res = PassResult()
    row = {}
    levels = list(range(FIT_LEVELS[0], FIT_LEVELS[1] + 1))
    for p in _p_values(params.alpha):
        row[f"V{p!r}"] = res.attempt(
            "variation_sequence",
            lambda: [r.value for r in variation.variation_sequence(path, p, levels)])
    a = res.attempt("estimate_alpha", lambda: inference.estimate_alpha(path, 1.0, FIT_LEVELS))
    row["alpha"] = a and {"alpha_hat": a.alpha_hat, "std_error": a.std_error, "boundary": a.boundary}
    region = inference.region_for(params)
    row["beta"] = res.attempt(
        "estimate_beta", lambda: _beta_dict(inference.estimate_beta(path, params.alpha, region)),
        NoSolutionError)
    for key, rival in (("vs_alpha", rival_alpha), ("vs_beta", rival_beta)):
        row[key] = res.attempt(
            "discriminate", lambda: inference.discriminate(path, own, rival).to_dict())
    p = 2.0 / params.alpha
    row["hoelder"] = res.attempt(
        "hoelder_dominance_bound", lambda: list(variation.hoelder_dominance_bound(path, p, p + 1.0)))
    return row, res.attempted, res.failures


WORKLOADS = {
    "simulate-presets": simulate_presets,
    "validate-many-short": validate_many_short,
    "analyse-stored": AnalyseStored,
}
