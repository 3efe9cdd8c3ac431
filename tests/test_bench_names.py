"""The benchmark traces library functions by name: every span name in
bench/smoke.py's SPAN_NAMES is a public function of its greyvar module, and
the checks it traces return what its spans read."""

import ast
import importlib
import os
from collections.abc import Mapping

import pytest

from greyvar import validation
from greyvar.params import GreyParams
from greyvar.sampling import RngSpec

BENCH_SMOKE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "smoke.py")


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
