"""The package's public surface: every exported name resolves."""

import dataclasses
import inspect

import lagdde
from lagdde import cli, collocation, config, reference


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
