"""Outside-in layer spans for the greyvar benchmark.

`Tracer.install` wraps every function named in the `__all__` of each layer
module with a timing wrapper and rebinds every module-level name in the
`greyvar` package that refers to it, because `cli`, `validation` and
`inference` import names directly.  Private functions are never wrapped.

Spans stay in memory as (name, start, end, parent, pass_id, info) and are
written out once, at the end of the run.  The traced run is single
threaded, so a span's children never overlap and its self time is its
duration minus the summed durations of its children.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional

LAYERS = ("special", "sampling", "variation", "inference", "validation", "serialize", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    pass_id: int
    info: Optional[dict]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _info(name: str, args, kwargs, result, error) -> Optional[dict]:
    """Work counts and outcomes of one call, read from its arguments and result."""
    if name == "sampling.sample_ggbm":
        grid = _arg(args, kwargs, 1, "grid")
        n = grid.n_increments
        # Grids with a power-of-two number of increments (every dyadic grid)
        # take the circulant sampler; other uniform grids take Cholesky.
        return {"branch": "dyadic" if n & (n - 1) == 0 else "uniform", "points": n + 1}
    if name == "sampling.sample_ggbm_batch":
        n_paths = _arg(args, kwargs, 3, "n_paths")
        return {"points": (_arg(args, kwargs, 1, "grid").n_increments + 1) * n_paths,
                "paths": n_paths}
    if name in ("variation.p_variation_sum", "variation.hoelder_dominance_bound"):
        return {"increments": len(_arg(args, kwargs, 0, "path").values) - 1}
    if name == "variation.variation_sequence":
        levels = _arg(args, kwargs, 2, "levels")
        return {"increments": sum(2 ** int(l) for l in levels) if hasattr(levels, "__len__") else 0}
    if name in ("inference.estimate_beta", "inference.estimate_beta_pooled"):
        return {"solved": error is None}
    if name == "inference.discriminate":
        return {"decided": error is None and result.label.value != "inconclusive"}
    if name == "validation.special_identity_report":
        return {"passed": error is None and bool(result["passed"])}
    if name in ("validation.check_increment_cf", "validation.check_even_moments",
                "validation.check_mixing_decay"):
        return {"passed": error is None and bool(result.passed)}
    if name == "serialize.load_bundle":
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    if name == "serialize.atomic_write_bytes":
        return {"bytes": len(_arg(args, kwargs, 1, "data"))}
    if name == "cli.run_config":
        return {"command": _arg(args, kwargs, 0, "command")}
    return None


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._pass_id = -1
        self._patches: list = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self._pass_id,
                                  _info(name, args, kwargs, result, error))

        return traced

    def install(self, pass_id: int) -> None:
        """Wrap the public layer functions and rebind every name that refers to them."""
        self._pass_id = pass_id
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"greyvar.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for modname, module in list(sys.modules.items()):
            if modname != "greyvar" and not modname.startswith("greyvar."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patches:
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s._asdict(), sort_keys=True) + "\n")


def pass_metrics(spans: List[Span], pass_id: int, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass of `wall` seconds."""
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.pass_id == pass_id and s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    m: Dict[str, float] = defaultdict(float)
    covered = 0.0
    for idx, s in enumerate(spans):
        if s.pass_id != pass_id:
            continue
        duration = s.end - s.start
        own = duration - child_time[idx]
        covered += own
        layer = s.name.split(".", 1)[0]
        info = s.info or {}
        m[f"{layer}.self_s"] += own
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += own
        if s.name == "sampling.sample_ggbm":
            branch = f"sampling.sample_ggbm.{info['branch']}"
            m[f"{branch}.calls"] += 1
            m[f"{branch}.self_s"] += own
            m[f"{branch}.points"] += info["points"]
        if "points" in info:
            m["sampling.points"] += info["points"]
        if "paths" in info:
            m["sampling.sample_ggbm_batch.paths"] += info["paths"]
        if "increments" in info:
            m["variation.increments"] += info["increments"]
            m["variation.increment_s"] += own
        if "solved" in info:
            m["inference.beta_attempted"] += 1
            m["inference.beta_solved"] += info["solved"]
        if "decided" in info:
            m["inference.decisions"] += 1
            m["inference.decided"] += info["decided"]
        if "passed" in info:
            m["validation.checks"] += 1
            m["validation.checks_passed"] += info["passed"]
        if s.name == "serialize.load_bundle":
            m["serialize.bytes_read"] += info["bytes"]
        if s.name == "serialize.atomic_write_bytes":
            m["serialize.bytes_written"] += info["bytes"]
        if s.name == "cli.run_config":
            m[f"cli.run_config.{info['command']}.s"] += duration

    def ratio(num, den, scale=1.0):
        return scale * m[num] / m[den] if m[den] else 0.0

    for branch in ("dyadic", "uniform"):
        key = f"sampling.sample_ggbm.{branch}"
        m[f"{key}.us_per_point"] = ratio(f"{key}.self_s", f"{key}.points", 1e6)
    m["sampling.sample_ggbm_batch.us_per_path"] = ratio(
        "sampling.sample_ggbm_batch.self_s", "sampling.sample_ggbm_batch.paths", 1e6)
    m["variation.ns_per_increment"] = ratio("variation.increment_s", "variation.increments", 1e9)
    m["inference.beta_solved_ratio"] = ratio("inference.beta_solved", "inference.beta_attempted")
    m["inference.decided_ratio"] = ratio("inference.decided", "inference.decisions")
    m["validation.checks_passed_ratio"] = ratio("validation.checks_passed", "validation.checks")
    m["trace.wall_s"] = wall
    m["trace.coverage"] = covered / wall
    return m
