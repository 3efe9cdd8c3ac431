"""File formats: path CSV, binary run bundles, variation tables, reports.

All writes are atomic (temp file in the target directory, then rename).
Floats are written with Python's shortest round-trip representation.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .params import GreyParams
from .sampling import DyadicGrid, Grid, RngSpec, SamplePath, UniformGrid
from .variation import VariationRecord

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "path_to_csv",
    "path_from_csv",
    "save_bundle",
    "load_bundle",
    "variation_table_csv",
    "dump_report",
]


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid_header(grid: Grid) -> Dict[str, str]:
    if isinstance(grid, DyadicGrid):
        return {"grid": "dyadic", "level": str(grid.level)}
    return {"grid": "uniform", "n": str(grid.n)}


def path_to_csv(path: SamplePath) -> str:
    """CSV with columns t, value; header comments carry grid, params, seed."""
    meta = _grid_header(path.grid)
    if path.params is not None:
        meta["alpha"] = _fmt(path.params.alpha)
        meta["beta"] = _fmt(path.params.beta)
    if path.seed is not None:
        meta["master_seed"] = str(path.seed.master_seed)
        meta["stream_id"] = str(path.seed.stream_id)
    out = io.StringIO()
    out.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    out.write("t,value\n")
    for t, v in zip(path.grid.times(), path.values):
        out.write(f"{_fmt(t)},{_fmt(v)}\n")
    return out.getvalue()


def path_from_csv(text: str) -> SamplePath:
    meta: Dict[str, str] = {}
    values: List[float] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    k, v = token.split("=", 1)
                    meta[k] = v
            continue
        if line.startswith("t,"):
            continue
        _, value = line.split(",")
        values.append(float(value))
    if "grid" not in meta:
        raise InputError("path CSV missing grid header")
    grid: Grid
    if meta["grid"] == "dyadic":
        grid = DyadicGrid(int(meta["level"]))
    elif meta["grid"] == "uniform":
        grid = UniformGrid(int(meta["n"]))
    else:
        raise InputError(f"unknown grid type {meta['grid']!r}")
    params = None
    if "alpha" in meta and "beta" in meta:
        params = GreyParams(float(meta["alpha"]), float(meta["beta"]))
    seed = None
    if "master_seed" in meta:
        seed = RngSpec(int(meta["master_seed"]), int(meta.get("stream_id", "0")))
    return SamplePath(grid=grid, values=np.array(values), params=params, seed=seed)


def save_bundle(path: str, paths: Sequence[SamplePath], config: Optional[dict] = None) -> None:
    """Binary bundle: one npz holding all path values plus a JSON header."""
    if not paths:
        raise InputError("bundle needs at least one path")
    grid = paths[0].grid
    for p in paths:
        if p.grid != grid:
            raise InputError("bundle paths must share one grid")
    header = {
        "grid": _grid_header(grid),
        "n_paths": len(paths),
        "params": None,
        "seeds": [
            {"master_seed": p.seed.master_seed, "stream_id": p.seed.stream_id}
            if p.seed
            else None
            for p in paths
        ],
        "config": config,
    }
    if paths[0].params is not None:
        header["params"] = {"alpha": paths[0].params.alpha, "beta": paths[0].params.beta}
    values = np.stack([p.values for p in paths], axis=1)
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        values=values,
        times=grid.times(),
        header=np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
    )
    atomic_write_bytes(path, buf.getvalue())


def load_bundle(path: str):
    with np.load(path) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode())
        values = data["values"]
    gh = header["grid"]
    grid: Grid = (
        DyadicGrid(int(gh["level"])) if gh["grid"] == "dyadic" else UniformGrid(int(gh["n"]))
    )
    params = None
    if header.get("params"):
        params = GreyParams(header["params"]["alpha"], header["params"]["beta"])
    seeds = header.get("seeds") or [None] * values.shape[1]
    paths = []
    for i in range(values.shape[1]):
        seed = None
        if seeds[i]:
            seed = RngSpec(seeds[i]["master_seed"], seeds[i]["stream_id"])
        paths.append(SamplePath(grid=grid, values=values[:, i], params=params, seed=seed))
    return paths, header


def variation_table_csv(records: Sequence[VariationRecord]) -> str:
    out = io.StringIO()
    out.write("level,p,value\n")
    for r in records:
        out.write(f"{r.level_or_n},{_fmt(r.p)},{_fmt(r.value)}\n")
    return out.getvalue()


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def dump_report(results: dict) -> str:
    """Canonical JSON for a results section (byte-stable under re-runs).

    A NaN or infinity anywhere in it raises NumericalError rather than
    reaching the report.
    """
    try:
        return json.dumps(
            results, sort_keys=True, indent=2, default=_json_default, allow_nan=False
        )
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite value ({exc})") from None
