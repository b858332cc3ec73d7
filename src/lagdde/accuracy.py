"""Residual defect, error norms, and convergence studies over the truncation."""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .collocation import (
    DDEProblem,
    NonConvergenceError,
    SingularSystemError,
    SpectralSolution,
    _check_iteration,
    _check_truncation,
    _each,
    _feedback,
    _system,
    evaluate,
    solve_nonlinear,
)

SAMPLES_PER_UNIT = 10  # 11 points per unit interval, integer t included
MAX_SAMPLES = 10**4  # intervals in all: integer t is included up to b = 1000


def residual(problem: DDEProblem, solution: SpectralSolution, t) -> np.ndarray:
    """Pointwise defect |u_N' + gamma u_N - sum beta u_N(t-tau) - f(...) - g|
    per equation at t, a number or any array-like of points, shape
    (l,) + np.shape(t).

    It is |A(t) @ c - G(t) - f(u(t - tau))| over the collocation rows of
    ``_system`` at t, so delayed values come from the history or the series
    exactly as the solvers assemble them. A solution of another interval
    or equation count than ``problem`` is a ValueError.
    """
    if (solution.b, solution.n_equations) != (problem.b, problem.n_equations):
        raise ValueError(
            f"the solution (b={solution.b}, equations={solution.n_equations}) "
            f"is not of the problem (b={problem.b}, equations={problem.n_equations})")
    q = np.asarray(t, dtype=float)
    A, G, feedback = _system(problem, solution.n_max, q.ravel())
    c = solution.chebyshev
    defect = A @ c.ravel() - _feedback(feedback, c, G)
    out = np.abs(defect.reshape(problem.n_equations, -1)[:, :-1])
    return out.reshape((problem.n_equations,) + q.shape)


def _norms(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(l2, linf, rms) of each row of pointwise errors e, in one reduction
    along its last axis (for a C-contiguous e, the same pairwise sums as row
    by row). The RMS divisor is the sample count, so l2**2 == count * rms**2
    and rms <= linf. A row whose sum of squares could pass the float range
    is summed as e / linf and scaled back by linf; one with an inf or a nan
    reads inf or nan, with no warning."""
    count = e.shape[-1]
    if count == 0:
        raise ValueError("error sample must be non-empty")
    linf = np.abs(e).max(axis=-1)
    # a row in range, or with an inf or a nan, has scale 1; the latter's
    # squares may overflow, but its L2 and RMS are inf or nan either way
    scale = np.where((linf > math.sqrt(sys.float_info.max / count))
                     & (linf < math.inf), linf, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.sum((e / scale[..., None]) ** 2, axis=-1)
    return np.sqrt(squares) * scale, linf, np.sqrt(squares / count) * scale


def sample_points(b: float) -> np.ndarray:
    """Equally spaced norm-sampling grid on [0, b]: ``SAMPLES_PER_UNIT``
    intervals per unit of t, and at most ``MAX_SAMPLES``."""
    count = max(1, round(min(b * SAMPLES_PER_UNIT, MAX_SAMPLES)))
    return np.linspace(0.0, b, count + 1)


@dataclass(eq=False)  # == is identity: ndarray fields have no truth value
class ErrorReport:
    """Reference errors, or residuals, at sample points, with their norms."""

    points: np.ndarray
    errors: np.ndarray  # shape (l, len(points))
    l2: np.ndarray
    linf: np.ndarray
    rms: np.ndarray


def read_reference(reference: Callable[[float], np.ndarray],
                   points: np.ndarray) -> np.ndarray:
    """The reference at the 1-D ``points``, shape (l, len(points)): one call
    of its ``each`` where it has one (an RK4 ``Trajectory``, the CLI's exact
    oracle), else one call per Python float (see ``collocation._each``)."""
    return np.array(_each(reference, points)).T


def error_report(problem: DDEProblem, solution: SpectralSolution,
                 reference: Optional[Callable[[float], np.ndarray]] = None,
                 points: Optional[np.ndarray] = None) -> ErrorReport:
    """Errors against a reference callable (an exact solution or an RK4
    ``Trajectory``), or residuals when none is given, at ``points`` (the sample
    grid by default, any shape flattened to one row), in one series read."""
    points = (sample_points(problem.b) if points is None
              else np.asarray(points, dtype=float).ravel())
    if reference is None:
        errors = residual(problem, solution, points)
    else:
        errors = np.abs(evaluate(solution, points)
                        - read_reference(reference, points))
    l2, linf, rms = _norms(errors)
    return ErrorReport(points=points, errors=errors, l2=l2, linf=linf, rms=rms)


@dataclass(eq=False)  # == is identity: ndarray fields have no truth value
class ConvergenceRow:
    n_max: int
    l2: Optional[np.ndarray]
    linf: Optional[np.ndarray]
    rms: Optional[np.ndarray]
    cpu_time: float
    condition: float
    iterations: int = 0
    error: Optional[str] = None


def convergence_study(problem: DDEProblem, n_list: Sequence[int],
                      reference: Optional[Callable[[float], np.ndarray]] = None,
                      tol: float = 1e-8, max_iter: int = 50) -> list[ConvergenceRow]:
    """Solve at each truncation and tabulate norms and solve time.

    A failed solve is recorded in its row rather than aborting the study:
    a singular system, no convergence, or an ArithmeticError or ValueError
    (an overflow, a config expression, a math domain error). Any other
    exception is a bug in the problem's callables and propagates. A bad
    truncation, ``tol`` or ``max_iter`` raises ValueError before any
    solve. Timing covers assembly and solve only.
    """
    if not n_list:
        raise ValueError("truncation list must be non-empty")
    for n_max in n_list:
        _check_truncation(n_max)
    _check_iteration(tol, max_iter)
    rows = []
    for n_max in n_list:
        start = time.perf_counter()
        try:
            solution = solve_nonlinear(problem, n_max, tol=tol, max_iter=max_iter)
        except (SingularSystemError, NonConvergenceError, ArithmeticError,
                ValueError) as err:
            rows.append(ConvergenceRow(
                n_max=n_max, l2=None, linf=None, rms=None,
                cpu_time=time.perf_counter() - start,
                condition=float("nan"), error=str(err),
            ))
            continue
        cpu_time = time.perf_counter() - start
        report = error_report(problem, solution, reference)
        rows.append(ConvergenceRow(
            n_max=n_max, l2=report.l2, linf=report.linf, rms=report.rms,
            cpu_time=cpu_time, condition=solution.condition,
            iterations=solution.iterations,
        ))
    return rows
