"""The benchmark traces library functions by name: every span name in
bench/smoke.py's SPAN_NAMES is a public function of its greyvar module."""

import ast
import importlib
import os

import pytest

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
