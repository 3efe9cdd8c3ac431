"""The benchmark calls the library by name: every span name in
bench/smoke.py's SPAN_NAMES is a public function of its greyvar module, the
checks it traces return what its spans read, every greyvar name that
bench/workloads.py reads exists, and its commands' configs set only fields
that those commands read."""

import ast
import importlib
import importlib.util
import os
from collections.abc import Mapping

import pytest

from greyvar import cli, validation
from greyvar.params import GreyParams
from greyvar.sampling import RngSpec

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
BENCH_SMOKE = os.path.join(BENCH, "smoke.py")
BENCH_WORKLOADS = os.path.join(BENCH, "workloads.py")


def _span_names():
    """SPAN_NAMES read from the script's source, which is not run."""
    with open(BENCH_SMOKE) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPAN_NAMES"]:
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("bench/smoke.py defines no SPAN_NAMES")


@pytest.mark.parametrize("span", _span_names())
def test_span_name_is_public(span):
    module_name, name = span.split(".")
    module = importlib.import_module(f"greyvar.{module_name}")
    assert name in module.__all__
    assert callable(getattr(module, name))


def test_traced_checks_report_passed():
    """bench/spans.py reads `.passed` of each traced check's result and
    `["passed"]` of the identity report."""
    params, rng = GreyParams(1.0, 1.0), RngSpec(1)
    calls = {
        "check_increment_cf": lambda: validation.check_increment_cf(params, (1.0,), 0.5, 1.0, 10_000, rng),
        "check_even_moments": lambda: validation.check_even_moments(params, 1.0, (2,), 1_000, rng),
        "check_mixing_decay": lambda: validation.check_mixing_decay(params, (1, 2), 1_000, rng),
    }
    checks = [s.split(".")[1] for s in _span_names() if s.startswith("validation.check_")]
    assert checks
    for name in checks:
        assert type(calls[name]().passed) is bool, name
    report = validation.special_identity_report()
    assert isinstance(report, Mapping) and type(report["passed"]) is bool


def _workload_names():
    """(greyvar module, name) for each `import greyvar.m as a` and a.name, and
    each `from greyvar.m import name`, in the script's source."""
    with open(BENCH_WORKLOADS) as handle:
        tree = ast.parse(handle.read())
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name.startswith("greyvar."))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("greyvar"):
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add((aliases[node.value.id], node.attr))
    return sorted(names)


def test_workloads_read_the_six_modules():
    modules = {module for module, _ in _workload_names()}
    assert {f"greyvar.{m}" for m in ("cli", "inference", "sampling", "serialize", "special", "variation")} <= modules


@pytest.mark.parametrize(("module_name", "name"), _workload_names())
def test_workload_name_exists(module_name, name):
    assert hasattr(importlib.import_module(module_name), name)


def test_workload_configs_set_only_fields_their_commands_read(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = []
    for build in workloads.WORKLOADS.values():
        workload = build(1, workloads.SIZES["tiny"], str(tmp_path))
        ops += [(command, cfg) for _, command, cfg in getattr(workload, "ops", [])]
        ops += getattr(workload, "warm_ops", [])
    assert {command for command, _ in ops} == {"discriminate", "sample", "validate", "variation"}
    for command, cfg in ops:
        assert set(cfg) <= cli._SHARED_KEYS | cli._COMMANDS[command].keys, (command, sorted(cfg))
