"""Reproducible experiment harness.

Subcommands: sample | variation | estimate | discriminate | validate.
Every command is a pure function of (config, master_seed): reports echo
the normalized config, and re-running an identical config byte-reproduces
the results section.  Exit codes: 0 success, 2 usage error, 3 numerical
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import GreyVarError, InputError, NumericalError
from .inference import (
    Candidate,
    Label,
    _beta_from_sums,
    _check_discrimination,
    _check_level_range,
    discriminate,
    distinguishability_check,
    estimate_alpha,
    region_for,
)
from .params import GreyParams
from .sampling import (
    DyadicGrid,
    Grid,
    RngSpec,
    UniformGrid,
    sample_ggbm,
)
from .serialize import atomic_write_bytes, dump_report, path_to_csv, save_bundle, table_csv
from .special import theoretical_variation_limit
from .validation import (
    _cf_path_count,
    check_even_moments,
    check_increment_cf,
    check_mixing_decay,
    special_identity_report,
)
from .variation import (
    _check_levels,
    p_variation_sum,
    variation_sequence,
    variation_trichotomy,
)

__all__ = ["main", "run_config", "load_preset", "PRESET_NAMES"]

PRESET_NAMES = ("prop7-trichotomy", "thm10-grid", "fbm-singularity", "validate-all")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(GreyVarError):
    """A config field is missing or malformed (usage error)."""


def _convert(value, kind):
    if isinstance(kind, list):  # [kind]: a list of any length
        if not isinstance(value, list):
            raise ValueError
        return [_convert(v, kind[0]) for v in value]
    if isinstance(kind, tuple):  # (kind, ...): a list of exactly that length
        if not isinstance(value, list) or len(value) != len(kind):
            raise ValueError
        return tuple(_convert(v, k) for v, k in zip(value, kind))
    if kind is int:
        if isinstance(value, bool) or int(value) != value:
            raise ValueError
        return int(value)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError
        return float(value)
    if kind in (str, bool):
        if not isinstance(value, kind):
            raise ValueError
        return value
    raise AssertionError(kind)


def _field(cfg: dict, key: str, kind, required: bool = True, default=None):
    """Read and check one config field.

    `kind` is int, float, str or bool, `[kind]` for a nonempty list, or a
    tuple of kinds such as `(int, int)` for a list of that length.
    A missing optional field gives `default` as it is.
    """
    if key not in cfg:
        if required:
            raise ConfigError(f"config field {key!r} is required")
        return default
    value = cfg[key]
    if isinstance(kind, list) and value == []:
        raise ConfigError(f"config field {key!r} is an empty list: it must hold at least one entry")
    try:
        return _convert(value, kind)
    except (TypeError, ValueError, OverflowError):
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


def _output(cfg: dict, default_format: str) -> Tuple[Optional[str], str]:
    """The shared `out` and `format` fields, checked."""
    out = _field(cfg, "out", str, required=False)
    fmt = _field(cfg, "format", str, required=False, default=default_format)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"config field 'format' must be 'csv' or 'json', got {fmt!r}")
    return out, fmt


def _write(cfg: dict, results: dict, header: Sequence[str] = (), rows: Sequence = ()) -> dict:
    """Write a command's output to `out`, if set, and return `results`: the
    CSV table (header, rows) when `format` is csv, the JSON report otherwise."""
    out, fmt = _output(cfg, "json")
    if out:
        atomic_write_bytes(out, (table_csv(header, rows) if fmt == "csv" else dump_report(results)).encode())
    return results


def _pmap(fn: Callable, items: Sequence, threads: int, executor: Optional[Callable] = None,
          first: Sequence[int] = ()) -> List:
    """Order-preserving map; results do not depend on scheduling.

    With more than one worker the items run on a pool of `executor` (a
    ThreadPoolExecutor by default) of min(threads, len(items), CPU count)
    workers, the items at the indices in `first` started before the others.
    An error is raised for the first failing item in order, as in a loop.
    """
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    with (executor or ThreadPoolExecutor)(max_workers=workers) as pool:
        futures = {i: pool.submit(fn, items[i]) for i in first}
        futures.update((i, pool.submit(fn, x)) for i, x in enumerate(items) if i not in futures)
        try:
            return [futures[i].result() for i in range(len(items))]
        finally:
            for future in futures.values():
                future.cancel()


# Config fields every command takes; each command declares the rest with _reads.
_SHARED_KEYS = frozenset({"command", "master_seed", "out", "format"})


def _reads(*keys: str):
    """Declare the config fields a command reads besides the shared ones
    (_SHARED_KEYS); run_config rejects any other field as a typo."""

    def declare(cmd: Callable) -> Callable:
        cmd.keys = frozenset(keys)
        return cmd

    return declare


# ---------------------------------------------------------------- sample


_FBM_IS_GGBM = "fBm is 'ggbm' with alpha = 2 * hurst and beta: 1"


@_reads("process", "grid", "level", "n", "n_paths", "alpha", "beta")
def cmd_sample(cfg: dict, threads: int = 1) -> dict:
    process = _field(cfg, "process", str, required=False, default="ggbm")
    if process != "ggbm":
        raise ConfigError(f"unknown process {process!r}: the one process is 'ggbm', and {_FBM_IS_GGBM}")
    grid = _grid_from(cfg)
    n_paths = _n_paths(cfg, 1)
    out, fmt = _output(cfg, "csv")
    if fmt == "json":
        raise ConfigError("sample writes CSV files or a .npz bundle: config field 'format' must be 'csv'")
    base = _seed_spec(cfg)
    params = GreyParams(_field(cfg, "alpha", float), _field(cfg, "beta", float))

    paths = _pmap(lambda i: sample_ggbm(params, grid, base.stream(i)), range(n_paths), threads)
    checksum = hashlib.sha256(b"".join(p.values.tobytes() for p in paths)).hexdigest()
    results: dict = {
        "n_paths": n_paths,
        "process": process,
        "checksum": checksum,
        "files": [],
    }

    if not out:
        return results
    results["files"] = [out]
    if out.endswith(".npz"):
        save_bundle(out, paths, config=cfg)
    else:
        if n_paths > 1:
            stem, ext = os.path.splitext(out)
            results["files"] = [f"{stem}_{i:04d}{ext or '.csv'}" for i in range(n_paths)]
        for name, p in zip(results["files"], paths):
            atomic_write_bytes(name, path_to_csv(p).encode())
    return results


# ------------------------------------------------------------- variation


@_reads("alpha", "beta", "level", "n_paths", "p_values", "levels")
def cmd_variation(cfg: dict, threads: int = 1) -> dict:
    alpha = _field(cfg, "alpha", float)
    beta = _field(cfg, "beta", float)
    params = GreyParams(alpha, beta)
    grid = DyadicGrid(_field(cfg, "level", int))
    level = grid.level
    n_paths = _n_paths(cfg, 1)
    p_values = _field(cfg, "p_values", [float])
    lo, hi = _field(cfg, "levels", (int, int), required=False, default=(min(level, max(1, level - 8)), level))
    if lo > hi:
        raise ConfigError(f"config field 'levels' must be [low, high], got {[lo, hi]}")
    levels = _check_levels(range(lo, hi + 1), level)
    labels = [variation_trichotomy(alpha, beta, p) for p in p_values]
    base = _seed_spec(cfg)

    def one(i: int):
        path = sample_ggbm(params, grid, base.stream(i))
        return {p: [r.value for r in variation_sequence(path, p, levels)] for p in p_values}

    rows = _pmap(one, range(n_paths), threads)

    table = []
    for p, label in zip(p_values, labels):
        values = np.array([row[p] for row in rows])  # (n_paths, n_levels)
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
    results = {
        "table": table,
        "critical_p": 2.0 / alpha,
        "mu": theoretical_variation_limit(params),
        "n_paths": n_paths,
    }
    rows = [(lev, e["p"], mean) for e in table for lev, mean in zip(e["levels"], e["mean"])]
    return _write(cfg, results, ("level", "p", "value"), rows)


# -------------------------------------------------------------- estimate


@_reads("alpha", "beta", "level", "n_paths", "fit_levels")
def cmd_estimate(cfg: dict, threads: int = 1) -> dict:
    alpha = _field(cfg, "alpha", float)
    beta = _field(cfg, "beta", float)
    params = GreyParams(alpha, beta)
    grid = DyadicGrid(_field(cfg, "level", int))
    level = grid.level
    n_paths = _n_paths(cfg, 100)
    fit_levels = _field(cfg, "fit_levels", (int, int), required=False)
    try:
        fit_levels = _check_level_range(fit_levels or (8, level), level)
    except InputError as exc:
        if fit_levels:
            raise
        raise InputError(f"{exc}: config field 'fit_levels' is unset, so it is [8, level] = [8, {level}]") from None
    region = region_for(params)
    base = _seed_spec(cfg)

    def one(i: int):
        path = sample_ggbm(params, grid, base.stream(i))
        a = estimate_alpha(path, 1.0, fit_levels)
        row = {
            "path": i,
            "alpha_hat": a.alpha_hat,
            "alpha_se": a.std_error,
            "alpha_boundary": a.boundary,
        }
        # The critical sum is all that the per-path and pooled beta read,
        # so the path is dropped here.  A sum that overflows is None.
        v = None
        try:
            v = p_variation_sum(path, 2.0 / alpha).value
            b = _beta_from_sums(alpha, [v], region)
            row.update(beta_hat=b.beta_hat, beta_boundary=b.boundary, beta_error=None)
        except GreyVarError as exc:
            row.update(beta_hat=None, beta_boundary=None, beta_error=type(exc).__name__)
        return row, v

    pairs = _pmap(one, range(n_paths), threads)
    rows = [r for r, _ in pairs]
    sums = [v for _, v in pairs]

    alpha_hats = np.array([r["alpha_hat"] for r in rows])
    beta_hats = [r["beta_hat"] for r in rows if r["beta_hat"] is not None]
    if None in sums:
        pooled_dict = {"error": NumericalError.__name__}
    else:
        try:
            pooled = _beta_from_sums(alpha, sums, region)
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
    header = ("path", "alpha_hat", "alpha_se", "alpha_boundary", "beta_hat", "beta_boundary", "beta_error")
    return _write(cfg, results, header, [[r[c] for c in header] for r in rows])


# ---------------------------------------------------------- discriminate


@_reads("candidates", "level", "n_paths", "threshold")
def cmd_discriminate(cfg: dict, threads: int = 1) -> dict:
    cand_list = _field(cfg, "candidates", [(float, float)])
    if len(cand_list) < 2:
        raise ConfigError("need at least two candidates")
    candidates = [Candidate(GreyParams(a, b)) for a, b in cand_list]
    level = _field(cfg, "level", int)
    n_paths = _n_paths(cfg, 100)
    threshold = _field(cfg, "threshold", float, required=False, default=0.5)
    _check_discrimination(level, threshold)
    base = _seed_spec(cfg)

    pairs = []
    skipped = []
    for j, k in itertools.combinations(range(len(candidates)), 2):
        check = distinguishability_check(candidates[j], candidates[k])
        if check:
            pairs.append((j, k))
        else:
            skipped.append({"pair": [j, k], "reason": check.reason})

    # Path i of candidate c comes from substream c * n_paths + i. It is drawn
    # once, and every pair that holds c decides on it.
    drawn = sorted({c for pair in pairs for c in pair})

    def one(n: int) -> dict:
        c, i = drawn[n // n_paths], n % n_paths
        path = sample_ggbm(candidates[c].params, DyadicGrid(level), base.stream(c * n_paths + i))
        held = (pair for pair in pairs if c in pair)
        return {(j, k): discriminate(path, candidates[j], candidates[k], threshold).label for j, k in held}

    rows = _pmap(one, range(len(drawn) * n_paths), threads)

    matrix = []
    for pair in pairs:
        for truth in pair:
            start = drawn.index(truth) * n_paths
            labels = [row[pair] for row in rows[start : start + n_paths]]
            counts = {label.value: labels.count(label) for label in Label}
            correct = counts["first"] if truth == pair[0] else counts["second"]
            matrix.append(
                {
                    "pair": list(pair),
                    "truth": truth,
                    "counts": counts,
                    "accuracy": correct / n_paths,
                }
            )

    results = {
        "candidates": [{"alpha": c.params.alpha, "beta": c.params.beta, "mu": c.mu} for c in candidates],
        "threshold": threshold,
        "level": level,
        "n_paths": n_paths,
        "matrix": matrix,
        "skipped_pairs": skipped,
    }
    header = ("pair_j", "pair_k", "truth", "first", "second", "inconclusive", "accuracy")
    rows = [(*m["pair"], m["truth"], *m["counts"].values(), m["accuracy"]) for m in matrix]
    return _write(cfg, results, header, rows)


# -------------------------------------------------------------- validate


# The one battery: the increment cf over x(1) - x(1/2) at these frequencies,
# the moments of x(1) of these orders, and the mixing decay at these lags.
_THETAS, _S, _T = (0.0, 0.5, 1.0, 2.0), 0.5, 1.0
_MOMENT_ORDERS = (2, 4)
_LAGS = (1, 2, 4, 8, 16, 32, 64)


def _forked_pool(max_workers: int):
    """A pool of forked worker processes, which start at once and inherit the
    parent's warm caches.  Its modules are imported here, on first use, so
    that importing the CLI loads no multiprocessing module."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("fork"))


def _report(check: Callable) -> dict:
    """Run one check of the battery; its report as a dict."""
    report = check()
    return report if isinstance(report, dict) else report.to_dict()


@_reads("param_sets", "n_paths")
def cmd_validate(cfg: dict, threads: int = 1) -> dict:
    if _output(cfg, "json")[1] == "csv":
        raise ConfigError("validate writes no table: config field 'format' must be 'json'")
    param_sets = [GreyParams(a, b) for a, b in _field(cfg, "param_sets", [(float, float)])]
    n_paths = _cf_path_count(_n_paths(cfg, 20000))
    base = _seed_spec(cfg)

    # Each check draws from its own stream offset, so the reports are those
    # of any worker count.  The checks hold the GIL, so with threads > 1 they
    # run in up to `threads` forked processes, the level-6 mixing checks, the
    # costliest, first.  Where fork is unavailable they run in order here.
    battery = [special_identity_report]
    for k, params in enumerate(param_sets):
        cf, moments, mixing = (base.stream(1_000_000 + (3 * k + j) * n_paths) for j in range(3))
        battery += [
            functools.partial(check_increment_cf, params, _THETAS, _S, _T, n_paths, cf),
            functools.partial(check_even_moments, params, _T, _MOMENT_ORDERS, n_paths, moments),
            functools.partial(check_mixing_decay, params, _LAGS, n_paths, mixing),
        ]
    checks = _pmap(_report, battery, threads if hasattr(os, "fork") else 1, _forked_pool, range(3, len(battery), 3))

    results = {
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "n_paths": n_paths,
    }
    return _write(cfg, results)


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
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    named = cfg.get("command", command)
    if named != command:
        raise ConfigError(f"config is for command {named!r}, but {command!r} was run")
    unknown = sorted(set(cfg) - _SHARED_KEYS - _COMMANDS[command].keys)
    if unknown:
        # 'hurst' was a field of the retired fBm processes: name their replacement.
        hint = f"; {_FBM_IS_GGBM}" if "hurst" in unknown else ""
        raise ConfigError(f"unknown config field(s) for {command}: {', '.join(map(repr, unknown))}{hint}")
    _output(cfg, "json")  # the shared fields, checked before any work
    if not isinstance(threads, (int, np.integer)) or isinstance(threads, bool) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    started = time.perf_counter()
    results = _COMMANDS[command](cfg, threads=threads)
    return {
        "config": cfg,
        "results": results,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }


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
        cmd.add_argument("--threads", type=int, default=1, help="workers: threads, or forked processes for validate")
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
            except ValueError as exc:  # JSONDecodeError, or an int too long to convert
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        elif args.preset:
            cfg = load_preset(args.preset)
        else:
            raise ConfigError("a config is required (--config FILE or --preset NAME)")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        cfg = dict(cfg)
        if args.seed is not None:
            cfg["master_seed"] = args.seed
        if args.out:
            cfg["out"] = args.out
        if args.format:
            cfg["format"] = args.format

        report = run_config(args.command, cfg, threads=args.threads)
        sys.stdout.write(dump_report(report) + "\n")
        return EXIT_OK
    except NumericalError as exc:
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
