"""Reproducible experiment harness.

Subcommands: sample | variation | estimate | discriminate | validate.
Every command is a pure function of (config, master_seed): reports echo
the normalized config, and re-running an identical config byte-reproduces
the results section.  Exit codes: 0 success, 2 usage error, 3 numerical
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from importlib import resources
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import GreyVarError, NumericalError, AccuracyError, EstimationError
from .inference import (
    BetaRegion,
    Candidate,
    Label,
    discriminate,
    distinguishability_check,
    estimate_alpha,
    estimate_beta,
    estimate_beta_pooled,
    region_for,
)
from .params import GreyParams
from .sampling import (
    DyadicGrid,
    Grid,
    RngSpec,
    SamplePath,
    UniformGrid,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    sample_ggbm,
)
from .serialize import (
    atomic_write_text,
    dump_report,
    path_to_csv,
    save_bundle,
    variation_table_csv,
)
from .special import theoretical_variation_limit
from .validation import (
    CfCheckSpec,
    check_even_moments,
    check_increment_cf,
    check_mixing_decay,
    special_identity_report,
)
from .variation import VariationRecord, variation_sequence, variation_trichotomy

__all__ = ["main", "run_config", "load_preset", "PRESET_NAMES"]

PRESET_NAMES = ("prop7-trichotomy", "thm10-grid", "fbm-singularity", "validate-all")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(GreyVarError):
    """A config field is missing or malformed (usage error)."""


def _field(cfg: dict, key: str, kind, required: bool = True, default=None):
    if key not in cfg:
        if required:
            raise ConfigError(f"config field {key!r} is required")
        return default
    value = cfg[key]
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind is float:
            return float(value)
        if kind is str:
            if not isinstance(value, str):
                raise ValueError
            return value
        if kind is list:
            if not isinstance(value, list):
                raise ValueError
            return value
        raise AssertionError(kind)
    except (TypeError, ValueError):
        raise ConfigError(f"config field {key!r} has invalid value {value!r}") from None


def _grid_from(cfg: dict) -> Grid:
    kind = _field(cfg, "grid", str, required=False, default="dyadic")
    if kind == "dyadic":
        return DyadicGrid(_field(cfg, "level", int))
    if kind == "uniform":
        return UniformGrid(_field(cfg, "n", int))
    raise ConfigError(f"config field 'grid' must be 'dyadic' or 'uniform', got {kind!r}")


def _n_paths(cfg: dict, default: int) -> int:
    n_paths = _field(cfg, "n_paths", int, required=False, default=default)
    if n_paths < 1:
        raise ConfigError(f"config field 'n_paths' must be >= 1, got {n_paths}")
    return n_paths


def _seed_spec(cfg: dict) -> RngSpec:
    return RngSpec(_field(cfg, "master_seed", int), 0)


def _pmap(fn: Callable, items: Sequence, threads: int) -> List:
    """Order-preserving map; results do not depend on scheduling."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------- sample


def cmd_sample(cfg: dict, threads: int = 1) -> dict:
    process = _field(cfg, "process", str, required=False, default="ggbm")
    grid = _grid_from(cfg)
    n_paths = _n_paths(cfg, 1)
    base = _seed_spec(cfg)

    def one(i: int) -> SamplePath:
        rng = base.stream(i)
        if process == "ggbm":
            params = GreyParams(_field(cfg, "alpha", float), _field(cfg, "beta", float))
            return sample_ggbm(params, grid, rng)
        if process == "fbm-cholesky":
            return sample_fbm_cholesky(_field(cfg, "hurst", float), grid, rng)
        if process == "fbm-circulant":
            if not isinstance(grid, DyadicGrid):
                raise ConfigError("fbm-circulant requires a dyadic grid")
            return sample_fbm_circulant(_field(cfg, "hurst", float), grid.level, rng)
        raise ConfigError(f"unknown process {process!r}")

    paths = _pmap(one, range(n_paths), threads)
    checksum = hashlib.sha256(b"".join(p.values.tobytes() for p in paths)).hexdigest()
    results: dict = {
        "n_paths": n_paths,
        "process": process,
        "checksum": checksum,
        "files": [],
    }

    out = cfg.get("out")
    fmt = _field(cfg, "format", str, required=False, default="csv")
    if out:
        if out.endswith(".npz"):
            save_bundle(out, paths, config=cfg)
            results["files"] = [out]
        elif fmt == "json":
            payload = {
                "times": list(map(float, grid.times())),
                "paths": [list(map(float, p.values)) for p in paths],
                "config": cfg,
            }
            atomic_write_text(out, json.dumps(payload, sort_keys=True))
            results["files"] = [out]
        elif fmt == "csv":
            if n_paths == 1:
                atomic_write_text(out, path_to_csv(paths[0]))
                results["files"] = [out]
            else:
                stem, ext = os.path.splitext(out)
                names = []
                for i, p in enumerate(paths):
                    name = f"{stem}_{i:04d}{ext or '.csv'}"
                    atomic_write_text(name, path_to_csv(p))
                    names.append(name)
                results["files"] = names
        else:
            raise ConfigError(f"unknown format {fmt!r}")
    return results


# ------------------------------------------------------------- variation


def cmd_variation(cfg: dict, threads: int = 1) -> dict:
    alpha = _field(cfg, "alpha", float)
    beta = _field(cfg, "beta", float)
    params = GreyParams(alpha, beta)
    level = _field(cfg, "level", int)
    n_paths = _n_paths(cfg, 1)
    p_values = [float(p) for p in _field(cfg, "p_values", list)]
    lo, hi = _field(cfg, "levels", list, required=False, default=[max(1, level - 8), level])
    levels = list(range(int(lo), int(hi) + 1))
    base = _seed_spec(cfg)

    def one(i: int):
        path = sample_ggbm(params, DyadicGrid(level), base.stream(i))
        return {p: [r.value for r in variation_sequence(path, p, levels)] for p in p_values}

    rows = _pmap(one, range(n_paths), threads)

    table = []
    for p in p_values:
        values = np.array([row[p] for row in rows])  # (n_paths, n_levels)
        label = variation_trichotomy(alpha, beta, p)
        table.append(
            {
                "p": p,
                "regime": label.regime.value,
                "limit": label.limit,
                "levels": levels,
                "mean": [float(v) for v in values.mean(axis=0)],
                "median": [float(v) for v in np.median(values, axis=0)],
                "sd": [float(v) for v in values.std(axis=0)],
            }
        )
    p_crit = 2.0 / alpha
    results = {
        "table": table,
        "critical_p": p_crit,
        "mu": theoretical_variation_limit(params),
        "n_paths": n_paths,
    }

    out = cfg.get("out")
    fmt = _field(cfg, "format", str, required=False, default="json")
    if out:
        if fmt == "csv":
            records = []
            for entry in table:
                for lev, mean in zip(entry["levels"], entry["mean"]):
                    records.append(VariationRecord(level_or_n=lev, p=entry["p"], value=mean))
            atomic_write_text(out, variation_table_csv(records))
        else:
            atomic_write_text(out, dump_report(results))
    return results


# -------------------------------------------------------------- estimate


def cmd_estimate(cfg: dict, threads: int = 1) -> dict:
    alpha = _field(cfg, "alpha", float)
    beta = _field(cfg, "beta", float)
    params = GreyParams(alpha, beta)
    level = _field(cfg, "level", int)
    n_paths = _n_paths(cfg, 100)
    p = _field(cfg, "p", float, required=False, default=1.0)
    lo, hi = _field(cfg, "fit_levels", list, required=False, default=[8, level])
    region_name = _field(cfg, "beta_region", str, required=False, default="auto")
    if region_name == "auto":
        region = region_for(params)
    elif region_name in ("low", "high"):
        region = BetaRegion(region_name)
    else:
        raise ConfigError("beta_region must be 'low', 'high', or 'auto'")
    base = _seed_spec(cfg)

    def one(i: int):
        path = sample_ggbm(params, DyadicGrid(level), base.stream(i))
        a = estimate_alpha(path, p, (int(lo), int(hi)))
        row = {
            "path": i,
            "alpha_hat": a.alpha_hat,
            "alpha_se": a.std_error,
            "alpha_boundary": a.boundary,
        }
        try:
            b = estimate_beta(path, alpha, region)
            row.update(beta_hat=b.beta_hat, beta_boundary=b.boundary, beta_error=None)
        except (EstimationError, GreyVarError) as exc:
            row.update(beta_hat=None, beta_boundary=None, beta_error=type(exc).__name__)
        return row, path

    pairs = _pmap(one, range(n_paths), threads)
    rows = [r for r, _ in pairs]
    paths = [pth for _, pth in pairs]

    alpha_hats = np.array([r["alpha_hat"] for r in rows])
    beta_hats = [r["beta_hat"] for r in rows if r["beta_hat"] is not None]
    try:
        pooled = estimate_beta_pooled(paths, alpha, region)
        pooled_dict = {"beta_hat": pooled.beta_hat, "boundary": pooled.boundary}
    except GreyVarError as exc:
        pooled_dict = {"error": type(exc).__name__}
    results = {
        "rows": rows,
        "summary": {
            "alpha_mean": float(alpha_hats.mean()),
            "alpha_bias": float(alpha_hats.mean() - alpha),
            "beta_median": float(np.median(beta_hats)) if beta_hats else None,
            "beta_errors": sum(1 for r in rows if r["beta_error"]),
            "beta_region": region.value,
            "pooled_beta": pooled_dict,
        },
    }

    out = cfg.get("out")
    fmt = _field(cfg, "format", str, required=False, default="json")
    if out:
        if fmt == "csv":
            lines = ["path,alpha_hat,alpha_se,alpha_boundary,beta_hat,beta_boundary,beta_error"]
            for r in rows:
                lines.append(
                    f"{r['path']},{r['alpha_hat']!r},{r['alpha_se']!r},{r['alpha_boundary']},"
                    f"{'' if r['beta_hat'] is None else repr(r['beta_hat'])},"
                    f"{'' if r['beta_boundary'] is None else r['beta_boundary']},"
                    f"{r['beta_error'] or ''}"
                )
            atomic_write_text(out, "\n".join(lines) + "\n")
        else:
            atomic_write_text(out, dump_report(results))
    return results


# ---------------------------------------------------------- discriminate


def cmd_discriminate(cfg: dict, threads: int = 1) -> dict:
    cand_list = _field(cfg, "candidates", list)
    if len(cand_list) < 2:
        raise ConfigError("need at least two candidates")
    candidates = [Candidate(GreyParams(float(a), float(b))) for a, b in cand_list]
    level = _field(cfg, "level", int)
    n_paths = _n_paths(cfg, 100)
    threshold = _field(cfg, "threshold", float, required=False, default=0.5)
    record_decisions = bool(cfg.get("record_decisions", False))
    base = _seed_spec(cfg)

    pairs = []
    skipped = []
    for j in range(len(candidates)):
        for k in range(j + 1, len(candidates)):
            check = distinguishability_check(candidates[j], candidates[k])
            if check:
                pairs.append((j, k))
            else:
                skipped.append({"pair": [j, k], "reason": check.reason})

    matrix = []
    stream = 0
    for j, k in pairs:
        for truth in (j, k):
            offset = stream
            stream += n_paths

            def one(i: int, truth=truth, j=j, k=k, offset=offset):
                path = sample_ggbm(
                    candidates[truth].params, DyadicGrid(level), base.stream(offset + i)
                )
                return discriminate(path, candidates[j], candidates[k], threshold)

            decisions = _pmap(one, range(n_paths), threads)
            labels = [d.label for d in decisions]
            counts = {
                "first": sum(1 for l in labels if l is Label.FIRST),
                "second": sum(1 for l in labels if l is Label.SECOND),
                "inconclusive": sum(1 for l in labels if l is Label.INCONCLUSIVE),
            }
            correct = counts["first"] if truth == j else counts["second"]
            entry = {
                "pair": [j, k],
                "truth": truth,
                "counts": counts,
                "accuracy": correct / n_paths,
            }
            if record_decisions:
                entry["decisions"] = [d.to_dict() for d in decisions]
            matrix.append(entry)

    results = {
        "candidates": [{"alpha": c.params.alpha, "beta": c.params.beta, "mu": c.mu} for c in candidates],
        "threshold": threshold,
        "level": level,
        "n_paths": n_paths,
        "matrix": matrix,
        "skipped_pairs": skipped,
    }
    out = cfg.get("out")
    fmt = _field(cfg, "format", str, required=False, default="json")
    if out:
        if fmt == "csv":
            lines = ["pair_j,pair_k,truth,first,second,inconclusive,accuracy"]
            for m in matrix:
                lines.append(
                    f"{m['pair'][0]},{m['pair'][1]},{m['truth']},{m['counts']['first']},"
                    f"{m['counts']['second']},{m['counts']['inconclusive']},{m['accuracy']!r}"
                )
            atomic_write_text(out, "\n".join(lines) + "\n")
        else:
            atomic_write_text(out, dump_report(results))
    return results


# -------------------------------------------------------------- validate


def cmd_validate(cfg: dict, threads: int = 1) -> dict:
    param_sets = _field(cfg, "param_sets", list, required=False)
    if param_sets is None:
        param_sets = [[_field(cfg, "alpha", float), _field(cfg, "beta", float)]]
    n_paths = _n_paths(cfg, 20000)
    thetas = tuple(float(x) for x in _field(cfg, "thetas", list, required=False, default=[0.0, 0.5, 1.0, 2.0]))
    s = _field(cfg, "s", float, required=False, default=0.5)
    t = _field(cfg, "t", float, required=False, default=1.0)
    orders = [int(o) for o in _field(cfg, "moment_orders", list, required=False, default=[2, 4])]
    moment_t = _field(cfg, "moment_t", float, required=False, default=1.0)
    lags = [int(l) for l in _field(cfg, "lags", list, required=False, default=[1, 2, 4, 8, 16, 32, 64])]
    base = _seed_spec(cfg)

    # Each check draws from its own stream offset, so the thread count
    # cannot change the results.
    tasks: List[Callable] = [special_identity_report]
    stream = 1_000_000
    for a, b in param_sets:
        params = GreyParams(float(a), float(b))
        tasks += [
            partial(check_increment_cf, params, CfCheckSpec(thetas, s, t, n_paths), base.stream(stream)),
            partial(check_even_moments, params, moment_t, orders, n_paths, base.stream(stream + n_paths)),
            partial(check_mixing_decay, params, lags, n_paths, base.stream(stream + 2 * n_paths)),
        ]
        stream += 3 * n_paths
    identities, *reports = _pmap(lambda task: task(), tasks, threads)
    checks = [identities] + [r.to_dict() for r in reports]

    results = {
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "n_paths": n_paths,
    }
    out = cfg.get("out")
    if out:
        atomic_write_text(out, dump_report(results))
    return results


# ------------------------------------------------------------------ shell

_COMMANDS = {
    "sample": cmd_sample,
    "variation": cmd_variation,
    "estimate": cmd_estimate,
    "discriminate": cmd_discriminate,
    "validate": cmd_validate,
}


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("greyvar.presets").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def run_config(command: str, cfg: dict, threads: int = 1) -> dict:
    """Execute one command; returns the full report dictionary."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    started = time.perf_counter()
    results = _COMMANDS[command](cfg, threads=threads)
    return {
        "config": cfg,
        "results": results,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }


def _resolve_threads(value: Optional[int]) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("GREYVAR_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"GREYVAR_THREADS must be an integer, got {env!r}")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greyvar",
        description="Grey Brownian motion simulation and variation analysis harness",
    )
    parser.add_argument("--version", action="version", version=f"greyvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--preset", choices=PRESET_NAMES, help="packaged preset config")
        cmd.add_argument("--seed", type=int, help="override master_seed")
        cmd.add_argument("--out", help="override output path")
        cmd.add_argument("--format", choices=["csv", "json"], help="override output format")
        cmd.add_argument("--threads", type=int, help="worker threads (or GREYVAR_THREADS)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config and args.preset:
            raise ConfigError("give either --config or --preset, not both")
        if args.config:
            try:
                with open(args.config) as handle:
                    cfg = json.load(handle)
            except OSError:
                raise
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        elif args.preset:
            cfg = load_preset(args.preset)
        else:
            raise ConfigError("a config is required (--config FILE or --preset NAME)")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        cfg = dict(cfg)
        cfg.pop("command", None)
        if args.seed is not None:
            cfg["master_seed"] = args.seed
        if "master_seed" not in cfg:
            raise ConfigError(
                "config field 'master_seed' is required (no wall-clock seeding)"
            )
        if args.out:
            cfg["out"] = args.out
        if args.format:
            cfg["format"] = args.format
        threads = _resolve_threads(args.threads)

        report = run_config(args.command, cfg, threads=threads)
        sys.stdout.write(dump_report(report) + "\n")
        return EXIT_OK
    except (ConfigError,) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, AccuracyError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GreyVarError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
