"""Collocation assembly and solve for retarded delay differential equations.

The problem class is

    u_l'(t) = -gamma_l u_l(t) + sum_j beta_j u_{m_j}(t - tau_j)
              [+ f_l(u_m(t - tau_f))] + g_l(t),      0 <= t <= b,
    u_l(0) = phi_l,

with prescribed history wherever a delayed argument falls before the
computed range, that is at or below the history's ``end``. The computed
range always starts at t = 0 from u(0) = phi: a history with end > 0
serves delayed arguments on [0, end] while u there is computed, and the
two need not agree (see History). The approximate solution is a truncated
Laguerre series per equation; its coefficients come from forcing the
equation to hold at equally spaced collocation points, with the last
collocation row of each equation replaced by the initial-condition row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import basis as _basis
from .linalg import SingularSystemError, condition_estimate, lu_factor, lu_solve

HISTORY_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class DelayTerm:
    """A linear delayed term beta * u_target(t - tau) on some equation's RHS.

    ``target`` is the 0-based index of the equation being sampled, which
    allows coupled systems where one equation feeds another.
    """

    target: int
    beta: float
    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"delay must be non-negative, got {self.tau}")


@dataclass(frozen=True)
class NonlinearDelayTerm:
    """A nonlinear delayed term f(u_target(t - tau)) on some equation's RHS."""

    f: Callable[[float], float]
    target: int
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"nonlinear delay must be positive, got {self.tau}")


@dataclass(frozen=True)
class History:
    """Prescribed solution values for delayed arguments at or below ``end``.

    ``functions`` holds one callable per equation, queried at each delayed
    argument t - tau <= end, so on [-tau, end] for a delay tau.

    The DDE still runs from t = 0 with u(0) = phi whatever ``end`` is, so
    with end > 0 the solution on [0, end] is computed, not taken from the
    history: delayed arguments there read the history, the state reads the
    computed u. Where the two disagree at ``end``, the delayed terms jump
    at end + tau and u' jumps with them. To prescribe u itself on
    [0, end], move the time origin to ``end``: solve on [0, b - end] from
    phi = u(end), with history s -> u(s + end) and end = 0.
    """

    functions: tuple
    end: float = 0.0

    def covers(self, t: float) -> bool:
        return t <= self.end + HISTORY_EDGE_TOL

    def value(self, eq: int, t: float) -> float:
        return float(self.functions[eq](t))


@dataclass
class DDEProblem:
    """A retarded DDE system of 1-3 equations on [0, b]."""

    gamma: Sequence[float]
    delays: Sequence[Sequence[DelayTerm]]
    g: Sequence[Callable[[float], float]]
    phi: Sequence[float]
    b: float
    history: Optional[History] = None
    nonlinear: Sequence[Optional[NonlinearDelayTerm]] = None

    def __post_init__(self):
        self.gamma = tuple(float(x) for x in self.gamma)
        l = len(self.gamma)
        if not 1 <= l <= 3:
            raise ValueError(f"equation count must be 1-3, got {l}")
        if self.b <= 0:
            raise ValueError(f"interval endpoint must be positive, got {self.b}")
        self.delays = tuple(tuple(terms) for terms in self.delays)
        self.g = tuple(self.g)
        self.phi = tuple(float(x) for x in self.phi)
        if self.nonlinear is None:
            self.nonlinear = (None,) * l
        self.nonlinear = tuple(self.nonlinear)
        for name, seq in (("delays", self.delays), ("g", self.g),
                          ("phi", self.phi), ("nonlinear", self.nonlinear)):
            if len(seq) != l:
                raise ValueError(
                    f"{name} has {len(seq)} entries for {l} equations"
                )
        for terms in self.delays:
            for term in terms:
                if not 0 <= term.target < l:
                    raise ValueError(f"delay target {term.target} out of range")
        for term in self.nonlinear:
            if term is not None and not 0 <= term.target < l:
                raise ValueError(f"nonlinear target {term.target} out of range")

    @property
    def n_equations(self) -> int:
        return len(self.gamma)

    @property
    def has_nonlinearity(self) -> bool:
        return any(term is not None for term in self.nonlinear)


def single_equation(gamma, beta, tau, g, phi, b, history=None,
                    nonlinear=None) -> DDEProblem:
    """Convenience constructor for the scalar problem
    u' = -gamma u + beta u(t-tau) + g(t), u(0) = phi."""
    delays = [DelayTerm(0, beta, tau)] if beta != 0 else []
    return DDEProblem(
        gamma=[gamma], delays=[delays], g=[g], phi=[phi], b=b,
        history=history, nonlinear=[nonlinear] if nonlinear else None,
    )


@dataclass(frozen=True)
class CollocationGrid:
    """Equally spaced collocation points t_i = (b/N) i, i = 0..N."""

    points: np.ndarray
    h: float


def collocation_points(n_max: int, b: float) -> CollocationGrid:
    """The grid of truncation ``n_max``, which must lie in 2..MAX_TRUNCATION."""
    if n_max < 2:
        raise ValueError(f"truncation must be >= 2, got {n_max}")
    if n_max > _basis.MAX_TRUNCATION:
        raise ValueError(f"truncation {n_max} exceeds supported maximum "
                         f"{_basis.MAX_TRUNCATION}")
    if b <= 0:
        raise ValueError(f"interval endpoint must be positive, got {b}")
    h = b / n_max
    points = np.linspace(0.0, b, n_max + 1)
    return CollocationGrid(points=points, h=h)


@dataclass
class SpectralSolution:
    """Truncated Laguerre series solution u_{l,N}(t) = sum_n a_{l,n} L_n(t)."""

    coefficients: np.ndarray  # shape (l, N+1)
    b: float
    iterations: int = 0
    condition: float = math.nan

    @property
    def n_max(self) -> int:
        return self.coefficients.shape[1] - 1

    @property
    def n_equations(self) -> int:
        return self.coefficients.shape[0]


def _series_row(n_max: int, t: float) -> np.ndarray:
    """basis_row extended to negative arguments through the monomial frame.

    The recurrence rows are polynomial identities, but basis_row keeps its
    t >= 0 contract; delayed arguments below zero (extrapolation) go through
    basis_row(t) = X(t) @ M instead.
    """
    if t < 0:
        return _basis.monomial_row(n_max, t) @ _basis.laguerre_change_matrix(n_max)
    return _basis.basis_row(n_max, t)


def evaluate(solution: SpectralSolution, t: float) -> np.ndarray:
    """Series value per equation at t. Values outside [0, b] extrapolate."""
    row = _series_row(solution.n_max, t)
    return solution.coefficients @ row


def evaluate_derivative(solution: SpectralSolution, t: float) -> np.ndarray:
    """Series derivative per equation at t, via the differentiation matrix."""
    n_max = solution.n_max
    row = _series_row(n_max, t) @ _basis.laguerre_diff_matrix(n_max)
    return solution.coefficients @ row


def solve_linear(problem: DDEProblem, n_max: int) -> SpectralSolution:
    """Solve a linear problem by collocation at truncation ``n_max``."""
    if problem.has_nonlinearity:
        raise ValueError("problem has a nonlinear delay term; use solve_nonlinear")
    return _FactoredOperator(problem, n_max).solve(problem.g)


def _monomial_operator(problem: DDEProblem, n_max: int) -> np.ndarray:
    """Collocation operator W of the monomial-frame system W @ c = G.

    Each equation's block of N+1 rows holds the collocation rows at t_0 ..
    t_{N-1} and, last, the condition row u(0) = phi. With
    basis_row(t) = X(t) @ M the unknowns transform as c = M @ a, so
    W @ kron(I_l, M) is the same system in the Laguerre frame, the one the
    method is defined by: both have identical solutions in function space.
    Eliminating in the monomial frame avoids the extra conditioning the
    factored delay product X T M and the basis rows put on the assembled
    entries; the basis coefficients are recovered afterwards through the
    triangular change of basis. W depends only on the problem's
    coefficients, delays and history interval, never on its forcing.
    """
    grid = collocation_points(n_max, problem.b)
    l = problem.n_equations
    width = n_max + 1
    B = _basis.monomial_diff_matrix(n_max)
    shifts = {}
    W = np.zeros((l * width, l * width))
    for eq in range(l):
        for i, t in enumerate(grid.points[:-1]):
            X = _basis.monomial_row(n_max, t)
            r = eq * width + i
            W[r, eq * width:(eq + 1) * width] = X @ B + problem.gamma[eq] * X
            for term in problem.delays[eq]:
                t_delayed = t - term.tau
                if problem.history is None or not problem.history.covers(t_delayed):
                    if term.tau not in shifts:
                        shifts[term.tau] = _basis.delay_shift_matrix(n_max, term.tau)
                    block = slice(term.target * width, (term.target + 1) * width)
                    W[r, block] -= term.beta * (X @ shifts[term.tau])
        # condition row u_eq(0) = phi_eq; X(0) = [1, 0, ..., 0]
        W[(eq + 1) * width - 1, eq * width] = 1.0
    return W


def _monomial_rhs(problem: DDEProblem, n_max: int,
                  g: Sequence[Callable[[float], float]]) -> np.ndarray:
    """Right-hand side G of the monomial-frame system for forcing ``g``.

    Each collocation row carries g_eq(t) plus the delayed terms the history
    serves; each equation's last row carries phi_eq.
    """
    grid = collocation_points(n_max, problem.b)
    l = problem.n_equations
    width = n_max + 1
    G = np.zeros(l * width)
    for eq in range(l):
        for i, t in enumerate(grid.points[:-1]):
            r = eq * width + i
            G[r] = float(g[eq](t))
            for term in problem.delays[eq]:
                t_delayed = t - term.tau
                if problem.history is not None and problem.history.covers(t_delayed):
                    G[r] += term.beta * problem.history.value(term.target, t_delayed)
        G[(eq + 1) * width - 1] = problem.phi[eq]
    return G


def _solve_upper_triangular(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Back substitution for the (invertible) change-of-basis matrix."""
    n = M.shape[0]
    out = np.zeros(n)
    for row in range(n - 1, -1, -1):
        out[row] = (rhs[row] - M[row, row + 1:] @ out[row + 1:]) / M[row, row]
    return out


class _FactoredOperator:
    """The monomial-frame operator of one problem and truncation, factored once.

    ``solve`` takes a forcing and substitutes through the stored factors, so
    successive substitution pays for one elimination, not one per iteration.
    ``condition`` is the infinity-norm condition of the basis-frame operator
    W @ kron(I_l, M), the system the method is defined by; it is
    inf when that matrix is numerically singular, which never aborts a solve
    the monomial frame completed.
    """

    def __init__(self, problem: DDEProblem, n_max: int):
        self.problem = problem
        self.n_max = n_max
        W = _monomial_operator(problem, n_max)
        self.factors = lu_factor(W)
        self.M = _basis.laguerre_change_matrix(n_max)
        try:
            self.condition = condition_estimate(
                W @ np.kron(np.eye(problem.n_equations), self.M))
        except SingularSystemError:
            self.condition = math.inf

    def solve(self, g: Sequence[Callable[[float], float]]) -> SpectralSolution:
        c = lu_solve(self.factors, _monomial_rhs(self.problem, self.n_max, g))
        width = self.n_max + 1
        coeffs = np.vstack([
            _solve_upper_triangular(self.M, c[eq * width:(eq + 1) * width])
            for eq in range(self.problem.n_equations)
        ])
        return SpectralSolution(
            coefficients=coeffs, b=self.problem.b,
            condition=self.condition,
        )


class NonConvergenceError(Exception):
    """Successive substitution failed to converge.

    Attributes
    ----------
    iterations : int
    last_delta : float
        Infinity norm of the final coefficient update.
    """

    def __init__(self, iterations: int, last_delta: float):
        self.iterations = iterations
        self.last_delta = last_delta
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last coefficient delta {last_delta:.3e})"
        )


def solve_nonlinear(problem: DDEProblem, n_max: int, tol: float = 1e-8,
                    max_iter: int = 50) -> SpectralSolution:
    """Solve a problem with nonlinear delay terms by successive substitution.

    Each iteration freezes every f(u(t - tau)) at the previous iterate
    (or at the history where the delayed argument is covered), moves it to
    the right-hand side as a known forcing, and solves the linear system.
    Iteration stops when the coefficient update falls below ``tol``.
    """
    if not problem.has_nonlinearity:
        return solve_linear(problem, n_max)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    history = problem.history

    def initial_iterate(eq, t):
        # history extended constantly beyond its interval
        if history is not None:
            return history.value(eq, min(t, history.end))
        return problem.phi[eq]

    previous: Optional[SpectralSolution] = None

    def delayed_value(eq, t):
        if history is not None and history.covers(t):
            return history.value(eq, t)
        if previous is None:
            return initial_iterate(eq, t)
        return float(evaluate(previous, t)[eq])

    def frozen_forcing(eq, term):
        base_g = problem.g[eq]

        def g_eff(t, _g=base_g, _term=term):
            return _g(t) + _term.f(delayed_value(_term.target, t - _term.tau))

        return g_eff

    g_frozen = tuple(
        frozen_forcing(eq, term) if term is not None else problem.g[eq]
        for eq, term in enumerate(problem.nonlinear)
    )
    # the linearised operator never changes: only the frozen forcing does
    operator = _FactoredOperator(problem, n_max)

    last_delta = math.inf
    for iteration in range(1, max_iter + 1):
        solution = operator.solve(g_frozen)
        if previous is not None:
            # relative to coefficient scale: the raw coefficients grow with N
            # and carry roundoff far above any absolute tolerance
            scale = max(1.0, float(np.abs(solution.coefficients).max()))
            last_delta = float(
                np.abs(solution.coefficients - previous.coefficients).max()
            ) / scale
            if last_delta < tol:
                # count substitution updates beyond the initial solve
                solution.iterations = iteration - 1
                return solution
        previous = solution
    raise NonConvergenceError(max_iter, last_delta)
