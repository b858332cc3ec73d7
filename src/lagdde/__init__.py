"""Laguerre matrix-collocation solver for retarded delay differential
equations, with residual-based error estimation and an RK4 method-of-steps
reference integrator."""

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
from .accuracy import convergence_study, error_report, residual

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

# the RK4 oracle only checks the solver: its module loads on first use
_REFERENCE = ("Trajectory", "rk4_method_of_steps")


def __getattr__(name):
    if name not in _REFERENCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference

    return getattr(reference, name)
