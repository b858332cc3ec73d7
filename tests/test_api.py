"""The package's public surface: every exported name resolves."""

import dataclasses
import inspect
import math
import re

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


_ARRAY = np.ones(1)
_TERM = lagdde.DelayTerm(0, 0.5, 1.0)

# (class, fields, repr, kind of ==, [(invalid fields, ValueError message)])
_RECORDS = [
    (lagdde.DelayTerm, dict(target=0, beta=0.5, tau=1.0),
     "DelayTerm(target=0, beta=0.5, tau=1.0)", "frozen",
     [(dict(beta=math.nan),
       "delay needs a finite beta and tau >= 0, got beta=nan, tau=1.0"),
      (dict(tau=-1.0),
       "delay needs a finite beta and tau >= 0, got beta=0.5, tau=-1.0")]),
    (lagdde.NonlinearDelayTerm, dict(f=math.sin, target=0, tau=1.0),
     "NonlinearDelayTerm(f=<built-in function sin>, target=0, tau=1.0)",
     "frozen",
     [(dict(tau=0.0), "nonlinear delay must be finite and positive, got 0.0")]),
    (lagdde.History, dict(functions=(math.cos,), end=0.5),
     "History(functions=(<built-in function cos>,), end=0.5)", "frozen",
     [(dict(end=-1.0), "history end must be finite and >= 0, got -1.0")]),
    (reference.IdentityCheck, dict(passed=True, max_deviation=0.0),
     "IdentityCheck(passed=True, max_deviation=0.0)", "frozen", []),
    (lagdde.DDEProblem,
     dict(gamma=[1], delays=[[_TERM]], g=[math.cos], phi=[1], b=2.0),
     "DDEProblem(gamma=(1.0,), delays=((DelayTerm(target=0, beta=0.5, "
     "tau=1.0),),), g=(<built-in function cos>,), phi=(1.0,), b=2.0, "
     "history=None, nonlinear=(None,))", "value",
     [(dict(gamma=[]), "equation count must be 1-3, got 0"),
      (dict(b=0.0), "b must be finite and positive, gamma and phi finite: "
                    "got b=0.0, gamma=(1.0,), phi=(1.0,)"),
      (dict(phi=[1, 2]), "phi has 2 entries for 1 equations"),
      (dict(delays=[[lagdde.DelayTerm(1, 0.5, 1.0)]]),
       "delay target 1 out of range"),
      (dict(delays=[[lagdde.DelayTerm(0.0, 0.5, 1.0)]]),
       "delay target must be an integer, got 0.0")]),
    (lagdde.SpectralSolution, dict(chebyshev=np.ones((1, 2)), b=1.0),
     "SpectralSolution(chebyshev=array([[1., 1.]]), b=1.0, iterations=0, "
     "condition=nan)", "identity", []),
    (accuracy.ErrorReport, dict(points=_ARRAY, errors=_ARRAY, l2=_ARRAY,
                                linf=_ARRAY, rms=_ARRAY),
     "ErrorReport(points=array([1.]), errors=array([1.]), l2=array([1.]), "
     "linf=array([1.]), rms=array([1.]))", "identity", []),
    (accuracy.ConvergenceRow, dict(n_max=4, l2=None, linf=None, rms=None,
                                   cpu_time=0.0, condition=1.0),
     "ConvergenceRow(n_max=4, l2=None, linf=None, rms=None, cpu_time=0.0, "
     "condition=1.0, iterations=0, error=None)", "identity", []),
    (reference.Trajectory, dict(t=_ARRAY, u=_ARRAY, du=_ARRAY, slope=_ARRAY),
     "Trajectory(t=array([1.]), u=array([1.]), du=array([1.]))", "identity",
     []),
]


@pytest.mark.parametrize("cls, fields, text, kind, invalid", _RECORDS,
                         ids=[case[0].__name__ for case in _RECORDS])
def test_records_keep_the_behaviour_of_their_dataclasses(cls, fields, text,
                                                         kind, invalid):
    # the records are plain classes: this pins the repr, ==, hash and
    # immutability the dataclass decorator generated for them
    record, twin = cls(**fields), cls(*fields.values())
    assert repr(record) == repr(twin) == text
    assert record == record
    assert not record == tuple(fields.values())
    if kind == "identity":
        assert record != twin
    else:
        assert record == twin and not record != twin
    if kind == "frozen":
        assert hash(record) == hash(twin)
        name = list(fields)[1]
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        assert record == twin
    elif kind == "value":
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
        record.b = 3.0
        assert record != twin
    for change, message in invalid:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{**fields, **change})
