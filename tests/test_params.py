"""The one integer rule: every level, count, lag, order, seed and thread
count goes through params._integer, which names the argument and raises the
caller's error class."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import greyvar
from greyvar.cli import ConfigError, run_config
from greyvar.errors import InputError, ParameterError
from greyvar.params import GreyParams, _integer
from greyvar.sampling import (
    DyadicGrid,
    RngSpec,
    UniformGrid,
    sample_ggbm,
    sample_ggbm_batch,
    sample_mwright,
)
from greyvar.validation import (
    check_even_moments,
    check_increment_cf,
    check_mixing_decay,
    gauss_legendre_integral,
)
from greyvar.variation import variation_sequence

P, RNG = GreyParams(1.0, 1.0), RngSpec(7)
SAMPLE = {"alpha": 1.0, "beta": 1.0, "level": 2, "master_seed": 1}

# Argument: (call with the value, name in the message, error class, minimum or
# None, a valid value).  Each call runs cheaply on the valid value.
ARGUMENTS = {
    "RngSpec.master_seed": (lambda v: RngSpec(v), "master_seed", ParameterError, 0, 3),
    "RngSpec.stream_id": (lambda v: RngSpec(1, v), "stream_id", ParameterError, 0, 3),
    "DyadicGrid.level": (DyadicGrid, "dyadic level", ParameterError, 0, 3),
    "UniformGrid.n": (UniformGrid, "uniform grid size", ParameterError, 1, 3),
    "sample_ggbm_batch.n_paths": (
        lambda v: sample_ggbm_batch(P, DyadicGrid(2), RNG, v), "n_paths", ParameterError, 0, 2),
    "sample_mwright.size": (lambda v: sample_mwright(0.5, RNG, v), "size", ParameterError, 0, 2),
    "gauss_legendre_integral.panels": (
        lambda v: gauss_legendre_integral(np.cos, 0.0, 1.0, panels=v), "panels", ParameterError, 1, 2),
    "gauss_legendre_integral.order": (
        lambda v: gauss_legendre_integral(np.cos, 0.0, 1.0, order=v), "order", ParameterError, 1, 8),
    "check_even_moments.n_paths": (
        lambda v: check_even_moments(P, 1.0, [2], v, RNG), "n_paths", ParameterError, 1, 10),
    "check_mixing_decay.n_paths": (
        lambda v: check_mixing_decay(P, [1, 2], v, RNG), "n_paths", ParameterError, 1, 10),
    "check_increment_cf.n_paths": (
        lambda v: check_increment_cf(P, [1.0], 0.0, 1.0, v, RNG), "n_paths", ParameterError, 10_000, 10_000),
    "check_even_moments.orders": (
        lambda v: check_even_moments(P, 1.0, [2, v], 10, RNG), "orders[1]", ParameterError, None, 4),
    "check_mixing_decay.lags": (
        lambda v: check_mixing_decay(P, [v], 10, RNG), "lags[0]", InputError, 1, 2),
    "variation_sequence.levels": (
        lambda v: variation_sequence(sample_ggbm(P, DyadicGrid(3), RNG), 2.0, [v]), "level", InputError, None, 2),
    "run_config.threads": (lambda v: run_config("sample", dict(SAMPLE), threads=v), "threads", ConfigError, 1, 1),
}


def _bad_values():
    for arg, (_, _, _, minimum, _) in ARGUMENTS.items():
        for label, value in (("bool", True), ("float", 2.0), ("string", "3")):
            yield pytest.param(arg, value, id=f"{arg}-{label}")
        if minimum is not None:
            yield pytest.param(arg, minimum - 1, id=f"{arg}-below-minimum")


class TestOneRule:
    @pytest.mark.parametrize(("arg", "value"), _bad_values())
    def test_rejected_with_the_callers_class(self, arg, value):
        call, name, error, minimum, _ = ARGUMENTS[arg]
        bound = "" if minimum is None else f" >= {minimum}"
        with pytest.raises(error, match=f"^{re.escape(name)} must be an integer{bound}, got {re.escape(repr(value))}$"):
            call(value)

    @pytest.mark.parametrize("arg", ARGUMENTS)
    def test_numpy_integer_accepted(self, arg):
        call, _, _, _, valid = ARGUMENTS[arg]
        call(np.int64(valid))

    def test_numpy_integer_comes_back_as_int(self):
        for value in (np.int64(5), np.uint16(5), 5):
            out = _integer(value, "x", 0)
            assert type(out) is int and out == 5

    @pytest.mark.parametrize(
        ("make", "error", "rule"),
        [
            (DyadicGrid, ParameterError, "dyadic level must be an integer >= 0"),
            (UniformGrid, ParameterError, "uniform grid size must be an integer >= 1"),
            (RngSpec, ParameterError, "master_seed must be an integer >= 0"),
            (lambda v: check_mixing_decay(P, [v], 10, RNG), InputError, r"lags\[0\] must be an integer >= 1"),
        ],
        ids=["DyadicGrid", "UniformGrid", "RngSpec", "check_mixing_decay-lags"],
    )
    def test_integer_too_long_to_print_is_named_by_its_size(self, make, error, rule):
        # str() of an int past 4,300 digits raises a bare ValueError.
        with pytest.raises(error, match=f"^{rule}, got an integer of 16610 bits$"):
            make(-10 ** 5000)


def _src_files():
    return sorted(Path(greyvar.__file__).parent.glob("*.py"))


class _Uses(ast.NodeVisitor):
    """(module, enclosing function) of each numbers.Integral or np.integer."""

    def __init__(self, module):
        self.module, self.stack, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name):
            dotted = f"{node.value.id}.{node.attr}"
            if dotted in ("numbers.Integral", "np.integer", "numpy.integer"):
                self.found.append((self.module, self.stack[-1] if self.stack else None))
        self.generic_visit(node)


class TestOneCopy:
    def test_numbers_imported_by_params_alone(self):
        importers = set()
        for path in _src_files():
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module]
                if "numbers" in names:
                    importers.add(path.stem)
        assert importers == {"params"}

    def test_integer_type_tests_only_in_the_rule_and_the_json_encoder(self):
        found = set()
        for path in _src_files():
            visitor = _Uses(path.stem)
            visitor.visit(ast.parse(path.read_text()))
            found.update(visitor.found)
        assert found == {("params", "_integer"), ("serialize", "_json_default")}
