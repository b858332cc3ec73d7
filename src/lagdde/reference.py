"""Independent oracles: an RK4 method-of-steps integrator for retarded DDEs
and a random-point check of the row-vector matrix identities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import basis as _basis
from .collocation import HISTORY_EDGE_TOL, DDEProblem, History, _each


@dataclass
class Trajectory:
    """Dense output of the RK4 integrator.

    Values between grid points are cubic Hermite interpolants built from the
    stored derivatives; queries at grid points return stored values exactly.
    ``du`` holds the derivative as the left limit. ``slope`` holds the slope
    each interval starts from: ``du``, but at a grid point where a delayed
    argument leaves the history, and u' may jump, the right limit.
    """

    t: np.ndarray          # strictly increasing grid
    u: np.ndarray          # shape (len(t), l)
    du: np.ndarray         # shape (len(t), l)
    slope: np.ndarray = field(repr=False)  # shape (len(t), l)

    def __call__(self, t) -> np.ndarray:
        """u per equation at t, a number or any array-like of times, shape
        (l,) + np.shape(t), as ``evaluate`` reads a series."""
        q = np.asarray(t, dtype=float)
        rows = _read(self.t, self.u, self.du, self.slope, q.ravel())
        return rows.T.reshape(self.u.shape[1:] + q.shape)


def _read(t, u, du, slope, q):
    """u at the times ``q`` (a 1-D float array), one row per time, from the
    points ``t``: the stored row at a point, and between two points the
    cubic Hermite interpolant from u at both ends, the ``slope`` the
    interval starts from and the left-limit ``du`` it ends with. A time
    outside [t[0], t[-1]], NaN included, raises ValueError."""
    inside = (q >= t[0]) & (q <= t[-1])
    if not inside.all():
        raise ValueError(f"query t={q[inside.argmin()]} outside computed "
                         f"range [{t[0]}, {t[-1]}]")
    i = t.searchsorted(q)
    out = u[i]
    miss = t[i] != q
    if miss.any():
        k = i[miss] - 1
        t0 = t[k]
        h = t[k + 1] - t0
        s = (q[miss] - t0) / h
        # float_power squares with the C pow, as Python's float ** does; the
        # ** operator on arrays squares by a product, which can round
        # differently in the last bit
        r2, s2 = np.float_power(1 - s, 2), np.float_power(s, 2)
        h00 = (1 + 2 * s) * r2
        h10 = s * r2
        h01 = s2 * (3 - 2 * s)
        h11 = s2 * (s - 1)
        out[miss] = (h00[:, None] * u[k] + (h * h10)[:, None] * slope[k]
                     + h01[:, None] * u[k + 1] + (h * h11)[:, None] * du[k + 1])
    return out


def _float_gcd(values: Sequence[float]) -> float:
    """The rational GCD of nonzero values. The smallest in magnitude is
    rounded with ``limit_denominator(10**9)`` and each value as its ratio to
    it, so exact multiples of the smallest stay multiples whatever digits it
    has."""
    base = min(map(abs, values))
    gcd = Fraction(0)
    for v in values:
        r = Fraction(abs(v) / base).limit_denominator(10**9)
        gcd = Fraction(math.gcd(gcd.numerator, r.numerator),
                       math.lcm(gcd.denominator, r.denominator))
    return float(Fraction(base).limit_denominator(10**9) * gcd)


def _aligned_step(taus: list[float], history: Optional[History], b: float,
                  step: float) -> float:
    """The RK4 step: ``step`` rounded down so every breaking point is on the
    grid (see ``rk4_method_of_steps``)."""
    if not taus:
        return b / math.ceil(b / step)
    base = _float_gcd(taus)
    h = base / math.ceil(base / step)
    # the shortest delay's own step, rounded as base is, so that a single
    # delay always passes
    own = _float_gcd([min(taus)])
    if h < own / math.ceil(own / step) and h < step / 10:
        raise ValueError(
            f"the delays {taus} are not commensurate: a grid through every "
            f"breaking point k*tau needs step {h:.3g}, below step/10 = "
            f"{step / 10:.3g}; put every delay on a multiple of a common step")
    end = history.end if history is not None else 0.0
    if end != 0 and any(0 < end + tau < b for tau in taus):
        joint = _float_gcd(taus + [end])
        h_end = joint / math.ceil(joint / step)
        if h_end < h and h_end < step / 10:
            raise ValueError(
                f"history.end = {end!r} is not commensurate with the delays "
                f"{taus}: a grid through every breaking point end + k*tau "
                f"needs step {h_end:.3g}, below step/10 = {step / 10:.3g}; "
                f"put history.end on a multiple of {base:.6g}")
        h = h_end
    return h


def rk4_method_of_steps(problem: DDEProblem, step: float = 1e-3) -> Trajectory:
    """Integrate the problem on [0, b] with classical RK4 from
    ``problem.history``, stepping so that every delay breaking point lands
    on the grid.

    The step is rounded down to d / ceil(d / step) where d is the (rational)
    GCD of the delays and, if it is nonzero and its jumps fall inside
    (0, b), of history.end, so delayed lookups always hit history or
    previously computed sub-intervals, and every breaking point
    history.end + k*tau is a grid point. Delays whose GCD would shrink the
    step below both step / 10 and the step the shortest delay alone needs
    (incommensurate delays such as 1 and sqrt(2)), or a history.end that
    would shrink it below step / 10, raise ValueError. A step that is not
    finite and positive raises ValueError.

    At a grid point t with t - tau == history.end, delayed arguments leave
    the history for the trajectory; where the two disagree at history.end,
    u' jumps at t. The step from t then starts from the right-limit
    derivative, which reads u(history.end) from the trajectory, and keeps it
    as the trajectory's slope there; every other step reuses the
    derivative stored at its left end.

    Every delay is at least one step, so at a stage time t the forcing
    g(t), each delayed term beta * u(t - tau) and the nonlinear term
    f(u(t - tau_f)) do not depend on the stage. They are evaluated once per
    distinct time: at the midpoint (shared by k2 and k3), at the step end
    (shared by k4 and the stored u'), and at a history edge once more as
    the right limit; that is 2 * steps + 1 + edges values of each g and f,
    and a value of the history function at each of those times a delayed
    term reads it, all on Python floats, a block's times in one call of
    ``each`` where the function has it (a config ``Expression``). Each
    must therefore be a function of its argument alone. Each stage then adds
    them to -gamma * u and the tau = 0 couplings in the order of the
    equation: -gamma * u + g, the delay terms in list order, then the
    nonlinear term.

    The integrator steps in blocks, by the method of steps: with points
    0..p stored, a block is the steps p+1..q whose delayed arguments all
    lie at or before t_p, so every delayed value a block needs is known
    before it starts. Step k's latest delayed argument is
    min(t_k - tau_min, t_{k-1}), nondecreasing in k, so one search finds q;
    a problem without delays is one block. Before stepping a block, the
    forcing of all its stage times is computed: first the history at each
    delayed argument it serves, delayed term by delayed term; then the
    trajectory at every other delayed argument, in one array read of the
    stored points, the read ``Trajectory.__call__`` makes, so a delayed
    value is what the finished trajectory returns; then g and f, equation
    by equation. An argument up to 1e-12 past t_p reads u(t_p). Each
    function is called in increasing time, so of its own failures the
    earliest is raised; when two functions fail in one block, the one
    called first is. The forcing is one row per stage time of the parts
    every equation's stages add there, equation after equation: g, the
    delay terms with tau > 0 in list order, then f. All equations of a
    block step together from these rows, in one loop over floats generated
    once per problem shape (per equation, which of its terms are forcing
    parts and which are tau = 0 couplings, in order). Each stage of each
    equation is written out as one sum, -gamma * y + g + the other terms
    in the equation's order, y the stage's argument and a tau = 0 coupling
    beta times the same stage's argument of its target, which Python adds
    left to right; the derivative at t = 0 is the same sum.

    Stepping runs on Python floats, which overflow to inf without raising,
    so the finished u and u' are checked once: a value that is not finite
    raises FloatingPointError naming the first grid time where it appears.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step}")
    # every delayed read, as (target, tau), in the order a stage adds them;
    # the forcing's parts, as (read, beta, f): g with read None, then per
    # delayed term one of beta and f; per equation its terms after g, None
    # for a part or the target of a tau = 0 coupling, whose beta is in betas
    reads, parts, shape, betas = [], [], [], []
    for g, terms, nl in zip(problem.g, problem.delays, problem.nonlinear):
        parts.append((None, None, g))
        eq_shape = []
        for term in terms:
            if term.tau == 0:
                eq_shape.append(term.target)
                betas.append(term.beta)
            else:
                eq_shape.append(None)
                parts.append((len(reads), term.beta, None))
                reads.append((term.target, term.tau))
        if nl is not None:
            eq_shape.append(None)
            parts.append((len(reads), None, nl.f))
            reads.append((nl.target, nl.tau))
        shape.append(tuple(eq_shape))
    read_targets = np.array([target for target, _ in reads], dtype=int)
    taus = [tau for _, tau in reads]
    history = problem.history
    h = _aligned_step(taus, history, problem.b, step)

    l = problem.n_equations
    n_full = int(math.floor(problem.b / h + 1e-9))
    grid = [k * h for k in range(n_full + 1)]
    if grid[-1] < problem.b - 1e-12:
        grid.append(problem.b)
    t_all = np.asarray(grid, dtype=float)
    # u, u' and the slope each interval starts from, filled block by block
    u_all, du_all, slope = (np.empty((len(grid), l)) for _ in range(3))
    # grid indices k with grid[k] - tau == history.end for some delay tau
    edges = set()
    if history is not None:
        for tau in taus:
            k = round((history.end + tau) / h)
            if (0 < k < len(grid) - 1
                    and abs(grid[k] - tau - history.end) <= HISTORY_EDGE_TOL):
                edges.add(k)

    def forcing(times, right, front):
        # per time in times, a row of the parts: every equation's g(t),
        # delay terms with tau > 0, then f; right marks the right limits at
        # edges, front the stored points the trajectory read sees. The
        # history and the trajectory values fill one (times, reads) array
        arg = np.subtract.outer(np.array(times), taus)
        values = np.empty_like(arg)
        stored = np.ones(arg.shape, dtype=bool)
        if history is not None:
            stored = ~history.covers(arg)
            if any(right):
                # past the edge u continues from the trajectory
                edge = (np.array(right)[:, None]
                        & (np.abs(arg - history.end) <= HISTORY_EDGE_TOL))
                arg[edge] = history.end
                stored |= edge
            for j in np.flatnonzero(~stored.all(axis=0)).tolist():
                served = ~stored[:, j]
                values[served, j] = list(map(float, _each(
                    history.functions[reads[j][0]], arg[served, j].tolist())))
        i, j = stored.nonzero()
        if len(i):
            # a block reads no later than its last stored point, up to the
            # 1e-12 the clamp below forgives, so only t = 0 can find nothing
            if front == 0:
                raise ValueError(
                    f"delayed value at t={arg[i[0], j[0]]} not available; "
                    "history does not cover it and the trajectory has not "
                    "reached it")
            q = np.minimum(arg[i, j], grid[front - 1])
            rows = _read(t_all[:front], u_all[:front], du_all[:front],
                         slope[:front], q)
            values[i, j] = rows[np.arange(len(q)), read_targets[j]]
        columns = values.T.tolist()
        return zip(*[[beta * v for v in columns[j]] if f is None
                     else _each(f, times if j is None else columns[j])
                     for j, beta, f in parts])

    step_block = _block_stepper(tuple(shape))
    neg_gamma = [-gamma for gamma in problem.gamma]
    u_all[0] = u = list(problem.phi)
    _, du, *_ = step_block(forcing([0.0], [False], 0), (), u, None,
                           neg_gamma, betas)
    du_all[0] = slope[0] = du
    # step k (k >= 1) reads the trajectory at or before latest[k - 1]
    latest = np.minimum(t_all[1:] - min(taus), t_all[:-1]) if taus else None
    # u may pass the float range mid-run, as Python floats do without
    # raising, and the delayed reads with it; the finished trajectory is
    # checked once
    with np.errstate(over="ignore", invalid="ignore"):
        p = 0
        while p < len(grid) - 1:
            q = (len(grid) - 1 if latest is None
                 else int(np.searchsorted(latest, grid[p], side="right")))
            # the block's stage times in increasing order, its edges, and per
            # step its length, half and sixth and whether it starts at an edge
            times, right, steps, block_edges = [], [], [], []
            for k in range(p, q):
                t0 = grid[k]
                hk = grid[k + 1] - t0
                edge = k in edges
                if edge:
                    times.append(t0)
                    right.append(True)
                    block_edges.append(k)
                times += [t0 + hk / 2, grid[k + 1]]
                right += [False, False]
                steps.append((hk, hk / 2, hk / 6, edge))
            block = slice(p + 1, q + 1)
            u, du, xs, ds, rights = step_block(
                forcing(times, right, p + 1), steps, u, du, neg_gamma, betas)
            u_all[block].T[:] = xs
            du_all[block].T[:] = ds
            slope[block] = du_all[block]
            for k, right_limit in zip(block_edges, rights):
                slope[k] = right_limit
            p = q
    finite = np.isfinite(u_all).all(axis=1) & np.isfinite(du_all).all(axis=1)
    if not finite.all():
        raise FloatingPointError(
            f"the RK4 solution is not finite from t={grid[finite.argmin()]:g}")
    return Trajectory(t_all, u_all, du_all, slope)


# x, d: u and u' per equation at the step's start; without d, u' at t = 0
# from the first row. Returns u and u' at the end, u and u' per equation at
# each step end, and u' at each edge as its right limit
_STEP_BLOCK = """\
def step_block(rows, steps, x, d, ng, beta):
    rows_at = iter(rows)
    [{x}] = x
    [{ng}] = ng
    [{beta}] = beta
    if d is None:
        [{row}] = next(rows_at)
        {d_at_x}
    else:
        [{d}] = d
    {new_lists}
    rights = []
    for hk, half, sixth, edge in steps:
        if edge:
            [{row}] = next(rows_at)
            {d_at_x}
            rights.append([{d}])
        [{row}] = next(rows_at)  # the midpoint
        {k2}
        {k3}
        [{row}] = next(rows_at)  # the step end
        {k4}
        {x_next}
        {d_at_x}
        {appends}
    return [{x}], [{d}], [{xs}], [{ds}], rights
"""


@cache
def _block_stepper(shape: tuple):
    """The block loop of a problem whose equations have the terms ``shape``
    after g: per term, None for a part of the forcing rows or the target of
    a tau = 0 coupling. A stage of equation e is -gamma_e times its stage
    argument, then g and the terms in order, a coupling as beta times its
    target's stage argument, written out as one sum that Python adds left
    to right. -gamma and the betas are arguments, so one loop serves every
    problem of the shape."""
    n = len(shape)
    sums = []  # per equation its stage sum, {e} the stage argument of e
    p = b = 0
    for e, eq_shape in enumerate(shape):
        terms = [f"ng{e} * ({{{e}}})", f"p{p}"]
        p += 1
        for target in eq_shape:
            if target is None:
                terms.append(f"p{p}")
                p += 1
            else:
                terms.append(f"b{b} * ({{{target}}})")
                b += 1
        sums.append(" + ".join(terms))

    def names(template, count=n, sep=", "):
        return sep.join(template.format(i) for i in range(count))

    def stage(out, arg):
        args = [arg.format(e) for e in range(n)]
        return "; ".join(f"{out}{e} = {total.format(*args)}"
                         for e, total in enumerate(sums))

    source = _STEP_BLOCK.format(
        x=names("x{}"), d=names("d{}"), ng=names("ng{}"),
        beta=names("b{}", b), row=names("p{}", p), xs=names("xs{}"),
        ds=names("ds{}"), new_lists=names("xs{0} = []; ds{0} = []", sep="; "),
        d_at_x=stage("d", "x{}"), k2=stage("k2_", "x{0} + half * d{0}"),
        k3=stage("k3_", "x{0} + half * k2_{0}"),
        k4=stage("k4_", "x{0} + hk * k3_{0}"),
        x_next=names("x{0} = x{0} + sixth * (d{0} + 2 * k2_{0} + 2 * k3_{0}"
                     " + k4_{0})", sep="; "),
        appends=names("xs{0}.append(x{0}); ds{0}.append(d{0})", sep="; "))
    namespace = {}
    exec(source, namespace)
    return namespace["step_block"]


@dataclass(frozen=True)
class IdentityCheck:
    passed: bool
    max_deviation: float


def _laguerre_row_direct(n_max, t):
    return np.array([_basis.laguerre_eval_sum(n, t) for n in range(n_max + 1)])


def _laguerre_derivative_direct(n_max, t):
    # termwise derivative of the explicit alternating sum
    out = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        out[n] = sum(
            (-1) ** k / math.factorial(k) * math.comb(n, k) * k * t ** (k - 1)
            for k in range(1, n + 1)
        )
    return out


def identity_suite() -> list[tuple[str, IdentityCheck]]:
    """The paper's row-vector matrix identities, as (name, check) pairs;
    every check is expected to pass.

    For each N = 2..10: X(t) H is the Laguerre row L(t), X(t) B and
    L(t) C are the derivatives of X(t) and L(t), X(t) T(tau) is
    X(t - tau) for tau in {0.5, 1, 2}, and BH = HC entrywise. Each row
    check compares the direct row with the matrix product at 100 points
    drawn on [0, 5], every check from one ``default_rng(0)`` stream in this
    order, and passes when each point's deviation, relative to the larger
    of 1 and the magnitude of the compared values, is below 1e-9; BH = HC
    passes when its largest entry deviation is.
    """
    rng = np.random.default_rng(0)
    results = []

    def check(name, rows):
        # rows: t -> (direct row, product row)
        worst = 0.0
        for t in rng.uniform(0.0, 5.0, 100).tolist():
            a, b = rows(t)
            scale = max(1.0, np.abs(a).max(), np.abs(b).max())
            worst = max(worst, float(np.abs(a - b).max() / scale))
        results.append((name, IdentityCheck(worst < 1e-9, worst)))

    for n in range(2, 11):
        H = _basis.laguerre_change_matrix(n)
        B = _basis.monomial_diff_matrix(n)
        C = _basis.laguerre_diff_matrix(n)
        check(f"laguerre_from_monomials[N={n}]", lambda t: (
            _laguerre_row_direct(n, t), _basis.monomial_row(n, t) @ H))
        # k on Python ints: t ** (k - 1) as Python's float power
        check(f"monomial_derivative[N={n}]", lambda t: (
            np.array([k * t ** (k - 1) if k else 0.0 for k in range(n + 1)]),
            _basis.monomial_row(n, t) @ B))
        check(f"laguerre_derivative[N={n}]", lambda t: (
            _laguerre_derivative_direct(n, t), _basis.basis_row(n, t) @ C))
        for tau in (0.5, 1.0, 2.0):
            T = _basis.delay_shift_matrix(n, tau)
            check(f"delay_shift[N={n},tau={tau}]", lambda t: (
                np.power(t - tau, np.arange(n + 1)),
                _basis.monomial_row(n, t) @ T))
        bh_hc = float(np.abs(B @ H - H @ C).max())
        results.append((f"diff_consistency_BH_eq_HC[N={n}]",
                        IdentityCheck(bh_hc < 1e-9, bh_hc)))
    return results


def delay_product_mismatch() -> float:
    """Deviation of the product X(t) T B H from the true delayed row
    L(t - tau) at N = 3, tau = 1, t = 1.

    The extra differentiation factor B makes this product inconsistent with
    the change-of-basis identity, by which X(t) T H is the delayed row. The
    solver uses neither product: it assembles in Chebyshev coefficients
    (``collocation._system``). This helper exists so that tests and
    ``lagdde validate`` can pin down that the literal product is wrong.
    """
    literal = (_basis.monomial_row(3, 1.0)
               @ _basis.delay_shift_matrix(3, 1.0)
               @ _basis.monomial_diff_matrix(3)
               @ _basis.laguerre_change_matrix(3))
    return float(np.abs(literal - _laguerre_row_direct(3, 0.0)).max())
