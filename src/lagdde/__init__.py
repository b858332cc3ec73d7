"""Laguerre matrix-collocation solver for retarded delay differential
equations, with residual-based error estimation and an RK4 method-of-steps
reference integrator."""

from .basis import basis_row
from .collocation import (
    DDEProblem,
    DelayTerm,
    History,
    NonConvergenceError,
    NonlinearDelayTerm,
    SingularSystemError,
    SpectralSolution,
    collocation_points,
    evaluate,
    single_equation,
    solve_linear,
    solve_nonlinear,
)
from .accuracy import convergence_study, error_report, residual
from .reference import Trajectory, rk4_method_of_steps

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
