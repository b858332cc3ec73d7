"""Collocation assembly and solve for retarded delay differential equations.

The problem class is

    u_l'(t) = -gamma_l u_l(t) + sum_j beta_j u_{m_j}(t - tau_j)
              [+ f_l(u_m(t - tau_f))] + g_l(t),      0 <= t <= b,
    u_l(0) = phi_l,

with prescribed history wherever a delayed argument falls before the
computed range. The approximate solution is a truncated Laguerre series
per equation; its coefficients come from forcing the equation to hold at
equally spaced collocation points, with the last collocation row of each
equation replaced by the initial-condition row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import basis as _basis
from .basis import BasisKind, PolynomialBasis
from .linalg import (
    AugmentedSystem,
    SingularSystemError,
    block_diagonal,
    condition_estimate,
    lu_factor,
    lu_solve,
)

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

    ``functions`` holds one callable per equation. The callables are also
    queried below any stated lower bound of validity (e.g. sin(t) history
    given on [0, tau] is evaluated at slightly negative arguments early in
    the interval); they must tolerate that.
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
    if n_max < 2:
        raise ValueError(f"truncation must be >= 2, got {n_max}")
    if b <= 0:
        raise ValueError(f"interval endpoint must be positive, got {b}")
    h = b / n_max
    points = np.linspace(0.0, b, n_max + 1)
    return CollocationGrid(points=points, h=h)


@dataclass
class SpectralSolution:
    """Truncated series solution u_{l,N}(t) = sum_n a_{l,n} P_n(t)."""

    coefficients: np.ndarray  # shape (l, N+1)
    basis: PolynomialBasis
    b: float
    iterations: int = 0
    condition: float = math.nan

    @property
    def n_max(self) -> int:
        return self.basis.n_max

    @property
    def n_equations(self) -> int:
        return self.coefficients.shape[0]


def _series_row(pbasis: PolynomialBasis, t: float) -> np.ndarray:
    """basis_row extended to negative arguments through the monomial frame.

    The recurrence rows are polynomial identities, but basis_row keeps its
    t >= 0 contract for the Laguerre family; delayed arguments below zero
    (extrapolation) go through basis_row(t) = X(t) @ M instead.
    """
    if pbasis.kind is BasisKind.LAGUERRE and t < 0:
        return _basis.monomial_row(pbasis.n_max, t) @ _basis.change_of_basis_matrix(pbasis)
    return _basis.basis_row(pbasis, t)


def evaluate(solution: SpectralSolution, t: float) -> np.ndarray:
    """Series value per equation at t. Values outside [0, b] extrapolate."""
    row = _series_row(solution.basis, t)
    return solution.coefficients @ row


def evaluate_derivative(solution: SpectralSolution, t: float) -> np.ndarray:
    """Series derivative per equation at t, via the differentiation matrix."""
    row = _series_row(solution.basis, t) @ _basis.diff_matrix(solution.basis)
    return solution.coefficients @ row


def _delay_row(pbasis: PolynomialBasis, t: float, tau: float) -> np.ndarray:
    """Row r with u_N(t - tau) = r @ A, valid for any sign of t - tau."""
    X = _basis.monomial_row(pbasis.n_max, t)
    T = _basis.delay_shift_matrix(pbasis.n_max, tau)
    return X @ T @ _basis.change_of_basis_matrix(pbasis)


def assemble_row_block(problem: DDEProblem, pbasis: PolynomialBasis, eq: int,
                       t: float):
    """One collocation row for equation ``eq`` at point ``t``.

    Returns ``(row, rhs)`` where ``row`` spans all l*(N+1) coefficient
    columns. Delayed terms whose argument is covered by the history are
    moved to the right-hand side as known values.
    """
    l = problem.n_equations
    width = pbasis.n_max + 1
    row = np.zeros(l * width)
    Lrow = _basis.basis_row(pbasis, t)
    row[eq * width:(eq + 1) * width] = (
        Lrow @ _basis.diff_matrix(pbasis) + problem.gamma[eq] * Lrow
    )
    rhs = float(problem.g[eq](t))
    for term in problem.delays[eq]:
        t_delayed = t - term.tau
        if problem.history is not None and problem.history.covers(t_delayed):
            rhs += term.beta * problem.history.value(term.target, t_delayed)
        else:
            block = slice(term.target * width, (term.target + 1) * width)
            row[block] -= term.beta * _delay_row(pbasis, t, term.tau)
    return row, rhs


def assemble_system(problem: DDEProblem, n_max: int,
                    kind: BasisKind = BasisKind.LAGUERRE) -> AugmentedSystem:
    """Stack collocation rows for all equations and points into W @ A = G."""
    pbasis = PolynomialBasis(kind, n_max)
    grid = collocation_points(n_max, problem.b)
    l = problem.n_equations
    width = n_max + 1
    W = np.zeros((l * width, l * width))
    G = np.zeros(l * width)
    for eq in range(l):
        for i, t in enumerate(grid.points):
            row, rhs = assemble_row_block(problem, pbasis, eq, t)
            W[eq * width + i] = row
            G[eq * width + i] = rhs
    return AugmentedSystem(W, G)


def apply_initial_conditions(system: AugmentedSystem, problem: DDEProblem,
                             pbasis: PolynomialBasis) -> AugmentedSystem:
    """Replace the last row of each equation's block with u_l(0) = phi_l."""
    W = system.W.copy()
    G = system.G.copy()
    width = pbasis.n_max + 1
    row0 = _basis.basis_row(pbasis, 0.0)
    for eq in range(problem.n_equations):
        r = (eq + 1) * width - 1
        W[r] = 0.0
        W[r, eq * width:(eq + 1) * width] = row0
        G[r] = problem.phi[eq]
    return AugmentedSystem(W, G)


def solve_linear(problem: DDEProblem, n_max: int,
                 kind: BasisKind = BasisKind.LAGUERRE) -> SpectralSolution:
    """Solve a linear problem by collocation at truncation ``n_max``."""
    if problem.has_nonlinearity:
        raise ValueError("problem has a nonlinear delay term; use solve_nonlinear")
    return _FactoredOperator(problem, n_max, kind).solve(problem.g)


def _monomial_operator(problem: DDEProblem, n_max: int) -> np.ndarray:
    """Collocation operator W of the monomial-frame system W @ c = G.

    With basis_row(t) = X(t) @ M the unknowns transform as c = M @ a, so
    W @ block_diagonal([M] * l) is the operator of apply_initial_conditions
    (assemble_system(...)): both systems have identical solutions in function
    space. Eliminating in the monomial frame avoids the extra conditioning
    the factored delay product X T M and the basis rows put on the assembled
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
    W @ block_diagonal([M] * l), the system the method is defined by; it is
    inf when that matrix is numerically singular, which never aborts a solve
    the monomial frame completed.
    """

    def __init__(self, problem: DDEProblem, n_max: int, kind: BasisKind):
        self.problem = problem
        self.n_max = n_max
        self.pbasis = PolynomialBasis(kind, n_max)
        W = _monomial_operator(problem, n_max)
        self.factors = lu_factor(W)
        self.M = _basis.change_of_basis_matrix(self.pbasis)
        try:
            self.condition = condition_estimate(
                W @ block_diagonal([self.M] * problem.n_equations))
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
            coefficients=coeffs, basis=self.pbasis, b=self.problem.b,
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
                    max_iter: int = 50,
                    kind: BasisKind = BasisKind.LAGUERRE) -> SpectralSolution:
    """Solve a problem with nonlinear delay terms by successive substitution.

    Each iteration freezes every f(u(t - tau)) at the previous iterate
    (or at the history where the delayed argument is covered), moves it to
    the right-hand side as a known forcing, and solves the linear system.
    Iteration stops when the coefficient update falls below ``tol``.
    """
    if not problem.has_nonlinearity:
        return solve_linear(problem, n_max, kind)
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
    operator = _FactoredOperator(problem, n_max, kind)

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
