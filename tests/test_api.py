"""The package's public surface: every exported name resolves."""

import dataclasses
import inspect

import numpy as np
import pytest

import lagdde
from lagdde import accuracy, cli, collocation, config, reference


def test_every_exported_name_resolves():
    assert len(lagdde.__all__) == len(set(lagdde.__all__))
    for name in lagdde.__all__:
        assert getattr(lagdde, name, None) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lagdde import *", namespace)
    assert set(lagdde.__all__) <= set(namespace)


def test_names_the_benchmark_tracer_wraps_exist():
    # perfbench/tracing.py wraps these by name and reads zero for a
    # name that no longer exists, so a rename must fail here instead
    assert "__call__" in vars(config.Expression)
    for name in ("parse_config", "build_problem"):
        function = getattr(config, name)
        assert inspect.isfunction(function)
        assert function.__module__ == "lagdde.config"
    assert "value" in vars(collocation.History)
    assert inspect.isfunction(reference.rk4_method_of_steps)
    assert reference.rk4_method_of_steps.__module__ == "lagdde.reference"
    assert "__call__" in vars(reference.Trajectory)


def test_names_the_benchmark_workloads_read_exist():
    # perfbench/workloads.py builds its jobs from these names, parses the
    # shipped configs and reads these fields to set up its CLI jobs
    for name in ("DDEProblem", "DelayTerm", "History", "NonlinearDelayTerm"):
        assert inspect.isclass(getattr(lagdde, name)), name
    for name in ("solve_linear", "solve_nonlinear", "error_report", "evaluate",
                 "rk4_method_of_steps"):
        assert inspect.isfunction(getattr(lagdde, name)), name
    assert inspect.isfunction(cli.main)
    assert inspect.isfunction(config.parse_config)
    fields = {f.name for f in dataclasses.fields(config.ProblemConfig)}
    assert {"n_list", "n_max", "oracle"} <= fields


@pytest.mark.parametrize("make", [
    lambda: lagdde.SpectralSolution(np.ones((1, 3)), 1.0),
    lambda: accuracy.ErrorReport(*(np.ones(3) for _ in range(5))),
    lambda: accuracy.ConvergenceRow(4, np.ones(1), np.ones(1), np.ones(1),
                                    0.0, 1.0),
    lambda: reference.Trajectory(*(np.ones((3, 1)) for _ in range(4))),
], ids=["SpectralSolution", "ErrorReport", "ConvergenceRow", "Trajectory"])
def test_results_with_array_fields_compare_by_identity(make):
    # a generated __eq__ compares the array fields as a tuple, which
    # raises "truth value of an array is ambiguous"
    first, second = make(), make()
    assert first == first
    assert not first == second
    assert first != second
