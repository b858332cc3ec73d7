"""Laguerre matrix-collocation solver for retarded delay differential
equations, with residual-based error estimation and an RK4 method-of-steps
reference integrator."""

import importlib

from .collocation import (
    DDEProblem,
    DelayTerm,
    History,
    NonConvergenceError,
    NonlinearDelayTerm,
    SingularSystemError,
    SpectralSolution,
    basis_row,
    collocation_points,
    evaluate,
    single_equation,
    solve_linear,
    solve_nonlinear,
)

__version__ = "0.1.0"

__all__ = [
    "DDEProblem",
    "DelayTerm",
    "History",
    "NonConvergenceError",
    "NonlinearDelayTerm",
    "SingularSystemError",
    "SpectralSolution",
    "Trajectory",
    "basis_row",
    "collocation_points",
    "convergence_study",
    "error_report",
    "evaluate",
    "residual",
    "rk4_method_of_steps",
    "single_equation",
    "solve_linear",
    "solve_nonlinear",
]

# the accuracy checks and the RK4 oracle only check the solver: their
# modules load on first use, and the first read binds the name here
_LAZY = {"convergence_study": "accuracy", "error_report": "accuracy",
         "residual": "accuracy", "Trajectory": "reference",
         "rk4_method_of_steps": "reference"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
