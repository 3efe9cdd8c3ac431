"""File formats: path CSV, binary run bundles, CSV tables, reports.

All writes are atomic (temp file in the target directory, then rename).
Floats are written with Python's shortest round-trip representation.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import zipfile
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .params import GreyParams
from .sampling import DyadicGrid, Grid, RngSpec, SamplePath, UniformGrid

__all__ = [
    "atomic_write_bytes",
    "path_to_csv",
    "path_from_csv",
    "save_bundle",
    "load_bundle",
    "table_csv",
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


def _fmt(x: float) -> str:
    return repr(float(x))


def table_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with a header line and one line per row.

    Floats (numpy float64 too) are written as the shortest round-trip repr,
    integers as integers, bools as True/False and None as an empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
    comment = "# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"
    return comment + table_csv(("t", "value"), zip(path.grid.times().tolist(), path.values.tolist()))


def _header_value(meta: dict, key: str, kind: type):
    """The header field key, parsed by kind (int or float)."""
    try:
        return kind(meta[key])
    except (KeyError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise InputError(f"header field {key}= must be {what}, got {meta.get(key)!r}") from None


def _grid_from_header(meta: dict) -> Grid:
    """The grid that _grid_header wrote meta for."""
    if meta.get("grid") == "dyadic":
        return DyadicGrid(_header_value(meta, "level", int))
    if meta.get("grid") == "uniform":
        return UniformGrid(_header_value(meta, "n", int))
    raise InputError(f"header grid= must be 'dyadic' or 'uniform', got {meta.get('grid')!r}")


def path_from_csv(text: str) -> SamplePath:
    """The path written by path_to_csv; InputError names the line (1-based)
    or the header field that does not parse."""
    meta: Dict[str, str] = {}
    values: List[float] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith("#"):
            meta.update(token.split("=", 1) for token in line[1:].split() if "=" in token)
        elif line and not line.startswith("t,"):
            try:
                _, value = line.split(",")
                values.append(float(value))
            except ValueError:
                raise InputError(f"path CSV line {number} is not 't,value': {line!r}") from None
    grid = _grid_from_header(meta)
    params = None
    if "alpha" in meta and "beta" in meta:
        params = GreyParams(_header_value(meta, "alpha", float), _header_value(meta, "beta", float))
    seed = None
    if "master_seed" in meta:
        stream_id = _header_value(meta, "stream_id", int) if "stream_id" in meta else 0
        seed = RngSpec(_header_value(meta, "master_seed", int), stream_id)
    return SamplePath(grid=grid, values=np.array(values), params=params, seed=seed)


def save_bundle(path: str, paths: Sequence[SamplePath], config: Optional[dict] = None) -> None:
    """Binary bundle: one uncompressed npz, each path a contiguous column, plus a JSON header."""
    if not paths:
        raise InputError("bundle needs at least one path")
    grid, params = paths[0].grid, paths[0].params
    for p in paths:
        if p.grid != grid:
            raise InputError("bundle paths must share one grid")
        if p.params != params:
            raise InputError("bundle paths must share one params")
    header = {
        "grid": _grid_header(grid),
        "n_paths": len(paths),
        "params": None if params is None else {"alpha": params.alpha, "beta": params.beta},
        "seeds": [
            {"master_seed": p.seed.master_seed, "stream_id": p.seed.stream_id}
            if p.seed
            else None
            for p in paths
        ],
        "config": config,
    }
    values = np.stack([p.values for p in paths]).T
    buf = io.BytesIO()
    np.savez(
        buf,
        values=values,
        times=grid.times(),
        header=np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
    )
    atomic_write_bytes(path, buf.getvalue())


def load_bundle(path: str):
    """Paths and header of a save_bundle file; InputError names any other file."""
    try:
        with np.load(path) as data:
            header = json.loads(bytes(data["header"].tobytes()).decode())
            values = data["values"]
        grid = _grid_from_header(header["grid"])
        # Only the header's shape is read here; the values are checked by
        # GreyParams and RngSpec below, whose errors name the field.
        params = header.get("params")
        params = (params["alpha"], params["beta"]) if params else None
        seeds = [(s["master_seed"], s["stream_id"]) if s else None for s in header.get("seeds") or ()]
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path!r} is not a greyvar bundle ({type(exc).__name__}: {exc})") from None
    params = GreyParams(*params) if params else None
    if values.ndim != 2:
        raise InputError(f"bundle {path!r} values have shape {values.shape}, not 2-D")
    seeds = seeds or [None] * values.shape[1]
    if len(seeds) != values.shape[1]:
        raise InputError(f"bundle {path!r} has {len(seeds)} seeds for {values.shape[1]} paths")
    paths = []
    for i, seed in enumerate(seeds):
        seed = RngSpec(*seed) if seed else None
        paths.append(SamplePath(grid=grid, values=values[:, i], params=params, seed=seed))
    return paths, header


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
