"""Collocation assembly and solve for retarded delay differential equations.

The problem class is

    u_l'(t) = -gamma_l u_l(t) + sum_j beta_j u_{m_j}(t - tau_j)
              [+ f_l(u_m(t - tau_f))] + g_l(t),      0 <= t <= b,
    u_l(0) = phi_l,

with prescribed history wherever a delayed argument (tau > 0) falls
before the computed range, that is at or below the history's ``end``. The
computed range always starts at t = 0 from u(0) = phi: a history with end > 0
serves delayed arguments on [0, end] while u there is computed, and the
two need not agree (see History). The approximate solution is a degree-N
polynomial per equation, the paper's truncated Laguerre series; it comes
from forcing the equation to hold at equally spaced collocation points,
with the last collocation row of each equation replaced by the
initial-condition row. The system is solved in Chebyshev coefficients on
[0, b], and the Laguerre coefficients are derived from them.
"""

from __future__ import annotations

import math
import numbers
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

MAX_TRUNCATION = 20
HISTORY_EDGE_TOL = 1e-12
# cond * eps above 1e-2 leaves fewer than two reliable digits
SINGULAR_CONDITION = 1e-2 / np.finfo(float).eps


class SingularSystemError(Exception):
    """The collocation system is singular to working precision; ``condition``
    is its infinity-norm condition number (inf when exactly singular).
    ``cause``, when given, says which matrix is singular and why, in place
    of the condition number."""

    def __init__(self, condition: float, cause: str = ""):
        self.condition = condition
        super().__init__("singular system: " + (
            cause or f"condition number {condition:.3e} "
                     f"(bound {SINGULAR_CONDITION:.3e})"))


class _Record:
    """A record whose ``__init__`` sets its fields, with the repr
    Name(field=value, ...) over the fields ``_FIELDS`` names. == is
    identity, as a record with array fields needs: an array has no truth
    value."""

    _FIELDS: tuple = ()

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._FIELDS) + ")")


class _ValueRecord(_Record):
    """A record equal to one of its own class whose fields are equal, in
    order; unhashable, as its fields may change."""

    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class _FrozenRecord(_ValueRecord):
    """A value record that no assignment or deletion changes once its
    ``__init__`` has set its fields through ``__dict__``; it hashes by
    them."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DelayTerm(_FrozenRecord):
    """A linear delayed term beta * u_target(t - tau) on some equation's RHS.

    ``target`` is the 0-based index of the equation being sampled, which
    allows coupled systems where one equation feeds another.
    """

    _FIELDS = ("target", "beta", "tau")

    def __init__(self, target: int, beta: float, tau: float):
        if not (math.isfinite(beta) and 0 <= tau < math.inf):
            raise ValueError(f"delay needs a finite beta and tau >= 0, got "
                             f"beta={beta}, tau={tau}")
        self.__dict__.update(target=target, beta=beta, tau=tau)


class NonlinearDelayTerm(_FrozenRecord):
    """A nonlinear delayed term f(u_target(t - tau)) on some equation's RHS."""

    _FIELDS = ("f", "target", "tau")

    def __init__(self, f: Callable[[float], float], target: int, tau: float):
        if not 0 < tau < math.inf:
            raise ValueError(
                f"nonlinear delay must be finite and positive, got {tau}")
        self.__dict__.update(f=f, target=target, tau=tau)


class History(_FrozenRecord):
    """Prescribed solution values for delayed arguments at or below ``end``.

    ``functions`` holds one callable per equation, queried at each delayed
    argument t - tau <= end, so on [-tau, end] for a delay tau > 0. A
    coupling with tau = 0 is not delayed: it reads the computed u at every
    t in [0, b], never the history.

    The DDE still runs from t = 0 with u(0) = phi whatever ``end`` is, so
    with end > 0 the solution on [0, end] is computed, not taken from the
    history: delayed arguments there read the history, the state reads the
    computed u. Where the two disagree at ``end``, the delayed terms jump
    at end + tau and u' jumps with them. To prescribe u itself on
    [0, end], move the time origin to ``end``: solve on [0, b - end] from
    phi = u(end), with history s -> u(s + end) and end = 0.
    """

    _FIELDS = ("functions", "end")

    def __init__(self, functions: tuple, end: float = 0.0):
        if not 0 <= end < math.inf:
            raise ValueError(f"history end must be finite and >= 0, got {end}")
        self.__dict__.update(functions=functions, end=end)

    def covers(self, t):
        """Whether the history serves t; elementwise for an array of t."""
        return t <= self.end + HISTORY_EDGE_TOL

    def at_end(self, t):
        """Whether t is the history's end, to HISTORY_EDGE_TOL; elementwise."""
        return np.abs(t - self.end) <= HISTORY_EDGE_TOL

    def value(self, eq: int, t: float) -> float:
        return float(self.functions[eq](t))


class DDEProblem(_ValueRecord):
    """A retarded DDE system of 1-3 equations on [0, b]."""

    _FIELDS = ("gamma", "delays", "g", "phi", "b", "history", "nonlinear")

    def __init__(self, gamma: Sequence[float],
                 delays: Sequence[Sequence[DelayTerm]],
                 g: Sequence[Callable[[float], float]], phi: Sequence[float],
                 b: float, history: Optional[History] = None,
                 nonlinear: Sequence[Optional[NonlinearDelayTerm]] = None):
        self.gamma = tuple(float(x) for x in gamma)
        l = len(self.gamma)
        if not 1 <= l <= 3:
            raise ValueError(f"equation count must be 1-3, got {l}")
        self.delays = tuple(tuple(terms) for terms in delays)
        self.g = tuple(g)
        self.phi = tuple(float(x) for x in phi)
        self.b, self.history = b, history
        if not (0 < b < math.inf
                and all(map(math.isfinite, self.gamma + self.phi))):
            raise ValueError(f"b must be finite and positive, gamma and phi "
                             f"finite: got b={b}, gamma={self.gamma}, "
                             f"phi={self.phi}")
        self.nonlinear = (None,) * l if nonlinear is None else tuple(nonlinear)
        counts = (("delays", self.delays), ("g", self.g),
                  ("phi", self.phi), ("nonlinear", self.nonlinear))
        if history is not None:
            counts += (("history", history.functions),)
        for name, seq in counts:
            if len(seq) != l:
                raise ValueError(
                    f"{name} has {len(seq)} entries for {l} equations"
                )
        for _, term in self.terms:
            kind = ("nonlinear" if isinstance(term, NonlinearDelayTerm)
                    else "delay")
            if not isinstance(term.target, numbers.Integral):
                raise ValueError(f"{kind} target must be an integer, got "
                                 f"{term.target!r}")
            if not 0 <= term.target < l:
                raise ValueError(f"{kind} target {term.target} out of range")

    @property
    def n_equations(self) -> int:
        return len(self.gamma)

    @property
    def terms(self) -> tuple:
        """(equation, term) for every delay and nonlinear term, in the order
        a stage sums them: per equation its delays as given (tau = 0
        couplings included), then its nonlinear term."""
        return tuple((eq, term) for eq, delays in enumerate(self.delays)
                     for term in (*delays, self.nonlinear[eq])
                     if term is not None)

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


def _check_truncation(n_max: int) -> None:
    """ValueError unless the truncation ``n_max`` is an integer in
    2..MAX_TRUNCATION."""
    if not isinstance(n_max, numbers.Integral):
        raise ValueError(f"truncation must be an integer, got {n_max!r}")
    if n_max < 2:
        raise ValueError(f"truncation must be >= 2, got {n_max}")
    if n_max > MAX_TRUNCATION:
        raise ValueError(f"truncation {n_max} exceeds supported maximum "
                         f"{MAX_TRUNCATION}")


def collocation_points(n_max: int, b: float) -> np.ndarray:
    """The equally spaced points t_i = (b/N) i, i = 0..N, of truncation
    N = ``n_max``, an integer in 2..MAX_TRUNCATION."""
    _check_truncation(n_max)
    if not 0 < b < math.inf:
        raise ValueError(
            f"interval endpoint must be finite and positive, got {b}")
    return np.linspace(0.0, b, n_max + 1)


def basis_row(n_max: int, t: float) -> np.ndarray:
    """The Laguerre row [L_0(t), ..., L_n_max(t)] for t >= 0.

    The recurrence (n+1) L_{n+1} = (2n+1-t) L_n - n L_{n-1} is stable where
    the alternating explicit sum loses digits for n beyond ~15.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evaluation point must be finite, got {t}")
    if t < 0:
        raise ValueError(f"Laguerre basis requires t >= 0, got {t}")
    row = np.empty(n_max + 1)
    row[0] = 1.0
    if n_max:
        row[1] = 1.0 - t
    for k in range(1, n_max):
        row[k + 1] = ((2 * k + 1 - t) * row[k] - k * row[k - 1]) / (k + 1)
    return row


class SpectralSolution(_Record):
    """Degree-N polynomial per equation, u_{l,N}(t) = sum_k c_{l,k} T_k(2t/b - 1).

    The system is solved in, and evaluation reads, the coefficients c.
    """

    _FIELDS = ("chebyshev", "b", "iterations", "condition")

    def __init__(self, chebyshev: np.ndarray, b: float, iterations: int = 0,
                 condition: float = math.nan):
        self.chebyshev = chebyshev  # shape (l, N+1)
        self.b = b
        self.iterations = iterations
        self.condition = condition

    @property
    def n_max(self) -> int:
        return self.chebyshev.shape[1] - 1

    @property
    def n_equations(self) -> int:
        return self.chebyshev.shape[0]

    @property
    def coefficients(self) -> np.ndarray:
        """Laguerre coefficients a, u_{l,N}(t) = sum_n a_{l,n} L_n(t).

        Interpolated with basis_row at N+1 equispaced points on each read.
        Their digits carry the Laguerre basis's own conditioning on [0, b];
        evaluation never goes through them. SingularSystemError when that
        interpolation matrix is singular (b tiny against N).
        """
        points = np.linspace(0.0, self.b, self.n_max + 1)
        laguerre = np.array([basis_row(self.n_max, t) for t in points])
        rows = np.ascontiguousarray(_chebyshev_rows(self.n_max, self.b, points)[0].T)
        values = rows @ self.chebyshev.T
        try:
            return np.linalg.solve(laguerre, values).T
        except np.linalg.LinAlgError:
            raise SingularSystemError(math.inf, (
                f"the Laguerre interpolation matrix at N={self.n_max} on "
                f"[0, b={self.b:g}] is singular: b is too small for "
                f"L_0..L_{self.n_max} to separate on [0, b]")) from None


def _chebyshev_rows(n_max: int, b: float, t: np.ndarray, m: int = 0):
    """Rows T_k(2t/b - 1), k = 0..N, at the points ``t``, shape (N+1, len(t)),
    and their t-derivatives at the first ``m`` points, shape (N+1, m), by
    T_{k+1} = 2x T_k - T_{k-1}, valid for any t. Both are views of one array,
    the slopes its last m columns; each k is one contiguous row of it, which
    each step writes in place: 2x row k, + 2 T_k on the slopes, - row k-1."""
    x = 2.0 * np.asarray(t, dtype=float) / b - 1.0
    p = x.size
    x2 = 2.0 * np.concatenate((x, x[:m]))
    rows = np.empty((n_max + 1, p + m))
    rows[0, :p], rows[0, p:] = 1.0, 0.0
    rows[1:2, :p], rows[1:2, p:] = x, 1.0  # slices: no row 1 at N = 0
    scratch = np.empty(m)
    for k in range(1, n_max):
        np.multiply(x2, rows[k], out=rows[k + 1])
        rows[k + 1, p:] += np.multiply(2.0, rows[k, :m], out=scratch)
        rows[k + 1] -= rows[k - 1]
    rows[:, p:] *= 2.0 / b
    return rows[:, :p], rows[:, p:]


def evaluate(solution: SpectralSolution, t) -> np.ndarray:
    """Series value per equation at t, a number or any array-like of points,
    shape (l,) + np.shape(t). Values outside [0, b] extrapolate.

    Clenshaw's recurrence b_k = c_k + 2x b_{k+1} - b_{k+2} gives u = c_0
    + x b_1 - b_2, in one pass for every equation and point, each c_k a
    column against the points. The operations are elementwise, so a point
    reads bit-identically whatever else is read with it.
    """
    q = np.asarray(t, dtype=float)
    x = 2.0 * q.ravel() / solution.b - 1.0
    x2 = 2.0 * x
    c = solution.chebyshev.T[:, :, None]  # (N+1, l, 1)
    b1 = b2 = np.zeros((solution.n_equations, x.size))
    for ck in c[:0:-1]:
        b1, b2 = ck + x2 * b1 - b2, b1
    return (c[0] + x * b1 - b2).reshape((solution.n_equations,) + q.shape)


def _each(f, xs) -> list:
    """f at each point of ``xs``, in order: one call of ``f.each`` where f
    has it (a config ``Expression``), else one call of f per point. An
    array is read as a list of Python floats, so f never sees a NumPy
    scalar."""
    if isinstance(xs, np.ndarray):
        xs = xs.tolist()
    return f.each(xs) if hasattr(f, "each") else [f(x) for x in xs]


def _delayed(history, t, taus, targets, right=None):
    """Per time of ``t`` (rows) and term of ``taus`` and ``targets``
    (columns): the delayed argument t - tau, whether the history serves it,
    and its value there (unset elsewhere), read on Python floats in one
    ``_each`` call per tau > 0 term, in order. The history serves an argument
    up to HISTORY_EDGE_TOL past its end, but never for tau = 0 nor, on the
    rows ``right`` sets, at its end: that argument becomes ``end`` exactly and
    reads the computed u(end), the right limit."""
    arg = np.subtract.outer(t, taus)
    values = np.empty(arg.shape)
    if history is None:
        return arg, np.zeros(arg.shape, dtype=bool), values
    known = history.covers(arg)
    if right is not None:
        at_end = right[:, None] & history.at_end(arg)
        arg[at_end] = history.end
        known &= ~at_end
    for j, (tau, target) in enumerate(zip(taus, targets)):
        rows = known[:, j]
        if tau == 0:
            rows[:] = False
        else:
            values[:, j][rows] = list(map(float, _each(
                history.functions[target], arg[:, j][rows])))
    return arg, known, values


def _system(problem: DDEProblem, n_max: int, t: np.ndarray):
    """The rows A @ c = G of the collocation system in Chebyshev coefficients
    at the m points ``t``, and the delayed points of each nonlinear term.

    Each equation's m+1 rows hold the collocation rows at ``t`` and, last,
    the condition row u(0) = phi; at the collocation points t_0 .. t_{N-1}
    A is square, and at other points its collocation rows give the
    equation's defect (see ``accuracy.residual``). A collocation row of A
    is T'(t) + gamma T(t), less beta T(t - tau) for each delay the series
    serves; its entry of G is g(t) plus beta u(t - tau) for each delay the
    history serves (see ``_delayed``). With S the Chebyshev coefficients of
    L_0..L_N, A @ kron(I_l, S) is the paper's Laguerre-frame operator, in
    a far better conditioned basis. Each nonlinear term f(u_m(t - tau)) adds
    (rows, term, served, T, u) to the third result: its equation's rows,
    the mask of delayed points the series serves, the T_k rows there, and
    the first iterate's delayed values: the history where it serves, else
    the history at its end (phi without one).

    Every g is read before the history, which one ``_delayed`` call reads for
    all terms of ``DDEProblem.terms``, in its stage-sum order; one
    recurrence gives T_k at ``t``, then at the points the series serves.
    """
    history = problem.history
    l = problem.n_equations
    m, width = t.size, n_max + 1
    forcing = [list(map(float, _each(g, t))) for g in problem.g]
    terms = problem.terms
    arg, known, read = _delayed(history, t, [x.tau for _, x in terms],
                                [x.target for _, x in terms])
    served = ~known
    bounds = list(accumulate(map(sum, served.T.tolist()), initial=m))
    values, slopes = _chebyshev_rows(n_max, problem.b,
                                     np.concatenate((t, arg.T[served.T])), m)
    T = values.T  # row j: T_0 .. T_N at point j; term j's from bounds[j]
    A = np.zeros((l * (m + 1), l * width))
    G = np.zeros(l * (m + 1))
    for eq in range(l):
        own = slice(eq * width, (eq + 1) * width)
        rows = slice(eq * (m + 1), eq * (m + 1) + m)
        A[rows, own] = slopes.T + problem.gamma[eq] * T[:m]
        A[rows.stop, own] = (-1.0) ** np.arange(width)  # T_k(-1) at t = 0
        G[rows], G[rows.stop] = forcing[eq], problem.phi[eq]
    feedback = []
    for j, (eq, term) in enumerate(terms):
        rows = slice(eq * (m + 1), eq * (m + 1) + m)
        known_j, T_j = known[:, j], T[bounds[j]:bounds[j + 1]]
        if isinstance(term, NonlinearDelayTerm):
            u = np.where(known_j, read[:, j], problem.phi[term.target]
                         if history is None
                         else history.value(term.target, history.end))
            # contiguous: Picard's T @ c then takes the row-major BLAS path
            feedback.append((rows, term, served[:, j], np.ascontiguousarray(T_j), u))
        else:
            G[rows][known_j] += term.beta * read[:, j][known_j]
            block = slice(term.target * width, (term.target + 1) * width)
            A[rows, block][served[:, j]] -= term.beta * T_j
    return A, G, feedback


def _feedback(feedback, chebyshev: Optional[np.ndarray], G: np.ndarray):
    """G plus f(u_m(t - tau)) for each nonlinear term of ``_system``, u read
    through its T_k rows from ``chebyshev`` (None keeps the first iterate)."""
    forcing = G.copy()
    for rows, term, served, T, u in feedback:
        if chebyshev is not None:
            u[served] = T @ chebyshev[term.target]
        forcing[rows] += _each(term.f, u)
    return forcing


def _invert(A: np.ndarray) -> tuple[np.ndarray, float]:
    """A^-1 and ||A||_inf ||A^-1||_inf; SingularSystemError when ||A||_inf
    overflows, LAPACK finds A singular or the condition number exceeds
    SINGULAR_CONDITION."""
    # the reductions np.linalg.norm(X, inf) performs, without its dispatch
    norm = float(np.abs(A).sum(axis=1).max())
    if not math.isfinite(norm):
        raise SingularSystemError(math.inf, (
            "the infinity norm of the system overflows: a gamma, a beta or "
            "1/b is past the float range"))
    try:
        inverse = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        raise SingularSystemError(math.inf) from None
    condition = norm * float(np.abs(inverse).sum(axis=1).max())
    if not condition <= SINGULAR_CONDITION:  # nan included
        raise SingularSystemError(condition)
    return inverse, condition


def _solve(A: np.ndarray, G: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """The solution c of A @ c = G through A's inverse. A product with an
    explicit inverse is not backward stable (its error scales with
    ||A^-1|| ||G||, not with the solution), so one residual correction
    through the same inverse follows it."""
    if not all(map(math.isfinite, G.tolist())):  # cheaper than numpy here
        raise FloatingPointError("the right-hand side is not finite: g, the "
                                 "history or f gave an inf or a nan")
    c = inverse @ G
    c += inverse @ (G - A @ c)
    return c


def solve_linear(problem: DDEProblem, n_max: int) -> SpectralSolution:
    """Solve a linear problem by collocation at truncation ``n_max``: the
    first solve of ``solve_nonlinear``, with no substitution after it."""
    if problem.has_nonlinearity:
        raise ValueError("problem has a nonlinear delay term; use solve_nonlinear")
    return solve_nonlinear(problem, n_max)


class NonConvergenceError(Exception):
    """Successive substitution failed to converge.

    Attributes
    ----------
    iterations : int
        The iterations made, or, when a ``cause`` says why an iterate
        diverged, that iterate.
    last_delta : float
        Infinity norm of the final coefficient update.
    """

    def __init__(self, iterations: int, last_delta: float, cause: str = ""):
        self.iterations = iterations
        self.last_delta = last_delta
        super().__init__(
            (f"no convergence: iterate {iterations} diverged, {cause}" if cause
             else f"no convergence after {iterations} iterations")
            + f" (last coefficient delta {last_delta:.3e})")


def _check_iteration(tol: float, max_iter: int) -> None:
    """ValueError unless ``tol`` > 0 and ``max_iter`` is an integer >= 1,
    the arguments of ``solve_nonlinear``."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def solve_nonlinear(problem: DDEProblem, n_max: int, tol: float = 1e-8,
                    max_iter: int = 50) -> SpectralSolution:
    """Solve a problem by collocation at truncation ``n_max``, by successive
    substitution where it has nonlinear delay terms.

    The system is assembled and inverted once. The first solve freezes each
    f(u(t - tau)) at the history where it serves, else at the history's end
    (phi without one). Each substitution freezes f at the previous iterate,
    read at the delayed points through the T_k rows of ``_system``, and
    solves the same system again, until the coefficient update falls below
    ``tol``. A linear problem stops after the first solve, ``iterations``
    0; else ``iterations`` counts the updates, and the first solve counts
    towards ``max_iter``, an integer >= 1. Both are checked for every
    problem. When f overflows, or gives an inf or a nan (as on an iterate
    past the float range), on an iterate after the first, the iteration has
    diverged: NonConvergenceError names that iterate and the cause, with no
    NumPy warning; when the previous iterate itself is not finite at the
    delayed points, the cause named is that iterate, not f. On the first
    iterate, which reads only phi and the history, the error is raised as
    it is. Past the float range the first solve ends, with no NumPy warning,
    in SingularSystemError where the norms of A overflow (a gamma or beta
    near it) and in FloatingPointError where its coefficients are not finite.
    """
    _check_iteration(tol, max_iter)
    # A, the first solve or an iterate may pass the float range: _invert's
    # condition, the scan below and _solve's finiteness check see it
    with np.errstate(over="ignore", invalid="ignore"):
        A, G, feedback = _system(problem, n_max,
                                 collocation_points(n_max, problem.b)[:-1])
        inverse, condition = _invert(A)
        shape = (problem.n_equations, n_max + 1)
        chebyshev = _solve(A, _feedback(feedback, None, G),
                           inverse).reshape(shape)
        if not all(map(math.isfinite, chebyshev.ravel().tolist())):
            raise FloatingPointError("the coefficients are not finite: the "
                                     "solution passes the float range")
        solves, last_delta = 1, math.inf
        while feedback and not last_delta < tol:
            if solves == max_iter:
                raise NonConvergenceError(max_iter, last_delta)
            solves += 1
            try:
                update = _solve(A, _feedback(feedback, chebyshev, G),
                                inverse).reshape(shape)
            except (OverflowError, FloatingPointError) as err:
                # G passed the first iterate's finiteness check, so either
                # the previous iterate or f failed
                if isinstance(err, OverflowError):
                    cause = f"f raised OverflowError: {err}"
                elif all(np.isfinite(u).all() for *_, u in feedback):
                    cause = "f gave an inf or a nan"
                else:
                    cause = (f"iterate {solves - 1} is not finite at the "
                             f"delayed points")
                raise NonConvergenceError(solves, last_delta, cause) from err
            # relative to the coefficient scale, as the solution's magnitude
            # sets the roundoff floor of its coefficients
            scale = max(1.0, float(np.abs(update).max()))
            last_delta = float(np.abs(update - chebyshev).max()) / scale
            chebyshev = update
    return SpectralSolution(chebyshev=chebyshev, b=problem.b,
                            iterations=solves - 1, condition=condition)
