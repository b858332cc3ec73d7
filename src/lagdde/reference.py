"""Independent oracles: an RK4 method-of-steps integrator for retarded DDEs
and a random-point check of the paper's row-vector matrix identities.

The paper's matrices act on *row* vectors of basis values, i.e. the
identities have the shape ``row_new = row_old @ M``:

* ``H``  maps the monomial row ``[1, t, ..., t^N]`` to the Laguerre row.
* ``B``  differentiates the monomial row.
* ``C``  differentiates the Laguerre row.
* ``T``  shifts the monomial row by a delay: ``[1, (t-tau), ..., (t-tau)^N]``.

The solver reads none of them: it assembles in Chebyshev coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .collocation import (DDEProblem, DelayTerm, History, _delayed, _each,
                          _FrozenRecord, _Record, basis_row)

MAX_RK4_STEPS = 10**6  # about 0.4 GB: example2.cfg keeps 370 B per point
# RK4 is stable on [-2.785, 0] of the real axis, but its error already grows
# near the edge: u' = -gamma u + ... at step 1e-3 is off by 2.5e-6 at
# gamma = 2700 and by 0.45 at 2780
RK4_STABILITY = 2.5


class Trajectory(_Record):
    """Dense output of the RK4 integrator, read by ``_read``. ``du`` holds
    the derivative as the left limit, ``slope`` the slope each interval
    starts from: ``du``, but at a grid point where a delayed argument
    leaves the history, and u' may jump, the right limit."""

    _FIELDS = ("t", "u", "du")  # the repr leaves out the slope

    def __init__(self, t: np.ndarray, u: np.ndarray, du: np.ndarray,
                 slope: np.ndarray):
        self.t = t          # strictly increasing grid
        self.u = u          # shape (len(t), l)
        self.du = du        # shape (len(t), l)
        self.slope = slope  # shape (len(t), l)

    def __call__(self, t) -> np.ndarray:
        """u per equation at t, a number or any array-like of times, shape
        (l,) + np.shape(t), as ``evaluate`` reads a series."""
        q = np.asarray(t, dtype=float)
        l = self.u.shape[1]
        values = _read(self.t, self.u, self.du, self.slope,
                       np.tile(q.ravel(), l), np.arange(l).repeat(q.size))
        return values.reshape((l,) + q.shape)

    def each(self, ts) -> np.ndarray:
        """u at each time of ``ts``, one row per time, shape (len(ts), l):
        the ``each`` of a config ``Expression``, read as ``__call__``."""
        return self(ts).T


def _read(t, u, du, slope, q, e):
    """u of equation ``e[n]`` at time ``q[n]`` (two 1-D arrays of one
    length) from the points ``t``: the stored value at a point, and between
    two points the cubic Hermite interpolant from u at both ends, the
    ``slope`` the interval starts from and the left-limit ``du`` it ends
    with. A time outside [t[0], t[-1]], NaN included, raises ValueError."""
    inside = (q >= t[0]) & (q <= t[-1])
    if not inside.all():
        raise ValueError(f"query t={q[inside.argmin()]} outside computed "
                         f"range [{t[0]}, {t[-1]}]")
    i = t.searchsorted(q)
    out = u[i, e]
    miss = t[i] != q
    k1 = i[miss]  # the interval from k to k1 = k + 1 holds the time
    if len(k1):
        k = k1 - 1
        e = e[miss]
        t0 = t[k]
        h = t[k1] - t0
        s = (q[miss] - t0) / h
        # float_power squares with the C pow, as Python's float ** does; the
        # ** operator on arrays squares by a product, which can round
        # differently in the last bit
        r2, s2 = np.float_power(1 - s, 2), np.float_power(s, 2)
        two_s = 2 * s
        h00 = (1 + two_s) * r2
        h10 = s * r2
        h01 = s2 * (3 - two_s)
        h11 = s2 * (s - 1)
        out[miss] = (h00 * u[k, e] + h * h10 * slope[k, e]
                     + h01 * u[k1, e] + h * h11 * du[k1, e])
    return out


def _float_gcd(values: Sequence[float]) -> float:
    """The rational GCD of nonzero values. The smallest in magnitude is
    rounded with ``limit_denominator(10**9)`` and each value as its ratio to
    it, so exact multiples of the smallest stay multiples whatever digits it
    has. ValueError when that rounding moves the smallest by more than a
    relative 1e-6: below about 1e-9 it rounds to 0 or to 1e-9."""
    base = min(map(abs, values))
    rounded = Fraction(base).limit_denominator(10**9)
    if not abs(rounded - Fraction(base)) <= 1e-6 * base:
        raise ValueError(
            f"the delay or history.end {base!r} is below the 1e-9 resolution "
            f"of the RK4 step grid: it rounds to {float(rounded)!r}")
    gcd = Fraction(0)
    for v in values:
        r = Fraction(abs(v) / base).limit_denominator(10**9)
        gcd = Fraction(math.gcd(gcd.numerator, r.numerator),
                       math.lcm(gcd.denominator, r.denominator))
    return float(rounded * gcd)


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

    The step is rounded down to d / ceil(d / step), d the (rational) GCD of
    the delays and, if it is nonzero and its jumps fall inside (0, b), of
    history.end, so every breaking point history.end + k*tau is a grid
    point; b is always the last point, so the last step may be shorter (or
    longer by less than 1e-12). Delays whose GCD would shrink the step below
    both step / 10 and the step the shortest delay alone needs (1 and sqrt(2)),
    a history.end that would shrink it below step / 10, a delay or
    history.end below about 1e-9 (see ``_float_gcd``), more than
    MAX_RK4_STEPS steps, a step h past RK4's stability bound (h times the
    largest gamma_e plus |beta| of e's tau = 0 couplings above
    RK4_STABILITY), and a step that is not finite and positive raise
    ValueError; so does, before any plan array, a delayed term without a
    history, whose argument -tau at t = 0 nothing serves.

    At a grid point t where a delayed argument is history.end (an edge, by
    ``History.at_end``), delayed arguments leave the history for the
    trajectory and u' may jump: the step from t starts from the right-limit
    derivative, which reads u(history.end) from the trajectory, and keeps
    it as the trajectory's slope there. Step 1 computes u'(0) at its start
    in the same way; every other step starts from the u' stored at its start.

    Every delay is at least one step, so at a stage time t the forcing
    g(t), each delayed term beta * u(t - tau) and the nonlinear term
    f(u(t - tau_f)) do not depend on the stage: they are evaluated once at
    the midpoint (for k2 and k3), once at the step end (for k4 and the
    stored u') and, at t = 0 and an edge, once at the step start.
    Each function must therefore depend on its argument alone. The step
    lengths, halves, sixths, stage times and delayed arguments of all steps
    are computed once, by array operations on the grid.

    Before the first step, the history (which never depends on u) is read
    at every delayed argument it serves, by ``collocation._delayed`` as in
    ``_system``, into the table of every delayed value of the run. The
    integrator then steps in blocks, by the method of steps: with points
    0..p stored, a block is the steps p+1..q whose delayed arguments all
    lie at or before t_p (one shortest delay long; without delays, the
    whole run). Before a block is stepped, u at its other delayed arguments
    is read into its rows of that table in one call of ``_read``, the formula
    ``Trajectory.__call__`` reads with, on the one equation each term
    reads, so a delayed value is what the finished trajectory returns (an
    argument up to 1e-12 past t_p reads u(t_p)); then every g, then each f
    in ``DDEProblem.terms`` order, a block's times in one ``each`` call
    where possible. Each function is called in increasing time, so of its
    own failures the earliest is raised; a failing history (the term
    listed first) before any failing g or f, and within a block, as in
    ``_system``, a failing g before any failing f. All equations of a
    block then step together in one loop over floats, generated once per
    problem shape, that writes each stage of each equation out as one sum
    Python adds left to right: -gamma * y + g, then its terms in
    ``DDEProblem.terms`` order (a tau = 0 coupling as beta times its
    target's stage argument y).

    Python floats overflow to inf without raising, so the state each block
    ends with is checked: once it is not finite, no further block is
    stepped, and FloatingPointError names the first grid time stored so far
    where u or u' is not finite. A g or f that would fail only in a later
    block is never called there.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step}")
    # the terms read at stored points (tau > 0), each one column of the
    # forcing rows after every g, and the betas of the tau = 0 couplings,
    # which read the stage's own arguments; both in stage-sum order
    terms = problem.terms
    delayed = [term for _, term in terms if term.tau > 0]
    betas = [term.beta for _, term in terms if term.tau == 0]
    read_targets = np.array([term.target for term in delayed], dtype=int)
    taus = [term.tau for term in delayed]
    history = problem.history
    h = _aligned_step(taus, history, problem.b, step)
    if problem.b / h > MAX_RK4_STEPS:
        raise ValueError(
            f"the RK4 grid on [0, b={problem.b:g}] at step {h:.3g} has "
            f"{problem.b / h:.3g} steps, above the limit of {MAX_RK4_STEPS}; "
            f"rk4_step must be at least {problem.b / MAX_RK4_STEPS:.3g}")
    # by Gershgorin, the stage matrix's eigenvalues are within gamma_e plus
    # |beta| of e's tau = 0 couplings left of 0; delayed terms and f read
    # stored points (every delay is at least a step), not the stages
    stiffest = max(gamma + sum(abs(x.beta) for e, x in terms
                               if e == eq and x.tau == 0)
                   for eq, gamma in enumerate(problem.gamma))
    if h * stiffest > RK4_STABILITY:
        largest = RK4_STABILITY / stiffest
        digit = 10.0 ** (math.floor(math.log10(largest)) - 2)  # 3 digits, down
        raise ValueError(
            f"the RK4 step {h:.3g} is unstable: step * {stiffest:.6g} (the "
            f"largest gamma plus |beta| of its tau = 0 couplings) exceeds "
            f"{RK4_STABILITY}; rk4_step must be at most "
            f"{math.floor(largest / digit) * digit:.3g}")
    # a block reads at or before its last stored point, so only the history
    # can serve the delayed arguments -tau < 0 of t = 0
    if taus and history is None:
        raise ValueError(
            f"delayed value at t={-float(taus[0])} not available; history "
            "does not cover it and the trajectory has not reached it")

    l = problem.n_equations
    n = math.floor(problem.b / h + 1e-9)
    # the multiples of h, then b: a last one short of b by at most 1e-12,
    # or past b (by at most 1e-9 steps), gives way to b
    t_all = np.append(np.arange(n if n and n * h >= problem.b - 1e-12
                                else n + 1) * h, problem.b)
    # u, u' and the slope each interval starts from, filled block by block
    u_all, du_all, slope = (np.empty((len(t_all), l)) for _ in range(3))
    # per step k + 1 (from t_k) whether it starts from the right limit:
    # step 1, and where a delayed argument t_k - tau is history.end
    edge = np.zeros(len(t_all) - 1, dtype=bool)
    edge[0] = True
    if history is not None:
        edge |= history.at_end(np.subtract.outer(t_all[:-1], taus)).any(axis=1)
    # per step its length, half, sixth and edge flag (1.0 or 0.0), and its
    # stage times: the start at an edge (the right limit; at t = 0, u'(0)),
    # the midpoint and the end. Step k + 1 starts at row first[k]
    hk = t_all[1:] - t_all[:-1]
    half = hk / 2
    steps = np.column_stack([hk, half, hk / 6, edge])
    taken = np.column_stack([edge, np.ones((len(hk), 2), dtype=bool)])
    stage = np.column_stack([t_all[:-1], t_all[:-1] + half, t_all[1:]])
    times = stage[taken]
    right = (taken & [True, False, False])[taken]
    first = np.concatenate([[0], np.cumsum(taken.sum(axis=1))])
    # the delayed argument of every read at every time (times, reads) and the
    # history's values; a block fills in the rest from the trajectory
    arg, known, values = _delayed(history, times, taus, read_targets, right)
    unknown = ~known  # the reads a block takes from the trajectory

    def forcing(a, b, front):
        # rows a..b-1 of the forcing, one per time: every g, then per term of
        # ``delayed`` beta * u or f(u); _read reads at or before point front - 1
        missing = unknown[a:b]
        if missing.any():
            values[a:b][missing] = _read(
                t_all, u_all, du_all, slope,
                np.minimum(arg[a:b][missing], t_all[front - 1]),
                read_targets[missing.nonzero()[1]])
        block_times = times[a:b].tolist()
        return zip(*[_each(g, block_times) for g in problem.g],
                   *[(term.beta * values[a:b, j]).tolist()
                     if isinstance(term, DelayTerm)
                     else _each(term.f, values[a:b, j])
                     for j, term in enumerate(delayed)])

    step_block = _block_stepper(problem.n_equations, tuple(
        (eq, None if term.tau else term.target) for eq, term in terms))
    neg_gamma = [-gamma for gamma in problem.gamma]
    u_all[0] = u = du = list(problem.phi)  # du unread: step 1 finds u'(0)
    # the block from point p ends at point ends[p]: step k (k >= 1) reads
    # the trajectory at or before min(t_k - tau_min, t_{k-1})
    ends = (np.minimum(t_all[1:] - min(taus), t_all[:-1]).searchsorted(
        t_all[:-1], side="right") if taus else np.full(len(hk), len(hk)))
    # u may pass the float range mid-run, and the delayed reads with it
    with np.errstate(over="ignore", invalid="ignore"):
        p = 0
        while p < len(hk):
            q = int(ends[p])
            block = slice(p + 1, q + 1)
            u, du, xs, ds, rights = step_block(
                forcing(first[p], first[q], p + 1), steps[p:q].tolist(), u, du,
                neg_gamma, betas)
            u_all[block].T[:] = xs
            du_all[block].T[:] = ds
            slope[block] = du_all[block]
            if rights:
                slope[p + np.flatnonzero(edge[p:q])] = rights
            p = q
            # a value past the float range stays inf or nan up to the state
            if not all(map(math.isfinite, u + du)):
                break
    du_all[0] = slope[0]
    stored = slice(p + 1)
    finite = (np.isfinite(u_all[stored]).all(axis=1)
              & np.isfinite(du_all[stored]).all(axis=1))
    if not finite.all():
        raise FloatingPointError(
            f"the RK4 solution is not finite from t={t_all[finite.argmin()]:g}")
    return Trajectory(t_all, u_all, du_all, slope)


# rows: an iterator of forcing rows, one per stage time; x, d: u and u' per
# equation at the step's start (d unread when the first step is an edge).
# Returns u and u' at the end, u and u' per equation at each step end, and
# u' at each edge as its right limit
_STEP_BLOCK = """\
def step_block(rows, steps, x, d, ng, beta):
    [{x}] = x
    [{d}] = d
    [{ng}] = ng
    [{beta}] = beta
    {new_lists}
    rights = []
    for hk, half, sixth, edge in steps:
        if edge:
            [{row}] = next(rows)
            {d_at_x}
            rights.append([{d}])
        [{row}] = next(rows)  # the midpoint
        {k2}
        {k3}
        [{row}] = next(rows)  # the step end
        {k4}
        {x_next}
        {d_at_x}
        {appends}
    return [{x}], [{d}], [{xs}], [{ds}], rights
"""


@cache
def _block_stepper(n: int, shape: tuple):
    """The block loop of a problem of ``n`` equations whose terms, in
    ``DDEProblem.terms`` order, are ``shape``: per term its equation and
    the target of a tau = 0 coupling, else None for the next column of the
    forcing rows after the n g's (see ``rk4_method_of_steps``). -gamma and
    the betas are arguments, so one loop serves every problem of the shape."""
    # per equation its stage sum, {e} the stage argument of e
    sums = [[f"ng{e} * ({{{e}}})", f"p{e}"] for e in range(n)]
    p, b = n, 0
    for e, target in shape:
        if target is None:
            sums[e].append(f"p{p}")
            p += 1
        else:
            sums[e].append(f"b{b} * ({{{target}}})")
            b += 1
    sums = [" + ".join(terms) for terms in sums]

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


def laguerre_eval_sum(n: int, t: float) -> float:
    """Explicit alternating-sum form of L_n(t).

    Numerically inferior to the recurrence of :func:`basis_row` for large n;
    kept as an independent cross-check.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    return float(
        sum((-1) ** k / math.factorial(k) * math.comb(n, k) * t**k
            for k in range(n + 1))
    )


def laguerre_change_matrix(n_max: int) -> np.ndarray:
    """Monomial-to-Laguerre change of basis: laguerre_row = monomial_row @ H."""
    H = np.zeros((n_max + 1, n_max + 1))
    for k in range(n_max + 1):
        fact = math.factorial(k)
        for n in range(k, n_max + 1):
            H[k, n] = (-1.0) ** k / fact * math.comb(n, k)
    return H


def monomial_diff_matrix(n_max: int) -> np.ndarray:
    """Differentiation of the monomial row: d/dt monomial_row = monomial_row @ B."""
    B = np.zeros((n_max + 1, n_max + 1))
    for k in range(n_max):
        B[k, k + 1] = k + 1
    return B


def laguerre_diff_matrix(n_max: int) -> np.ndarray:
    """Differentiation of the Laguerre row: d/dt laguerre_row = laguerre_row @ C.

    C is strictly upper triangular with every entry above the diagonal -1,
    which encodes L_n'(t) = -sum_{m<n} L_m(t).
    """
    C = np.zeros((n_max + 1, n_max + 1))
    for p in range(n_max + 1):
        C[p, p + 1:] = -1.0
    return C


def delay_shift_matrix(n_max: int, tau: float) -> np.ndarray:
    """Delay shift of the monomial row: [1, (t-tau), ...] = monomial_row @ T."""
    if tau < 0:
        raise ValueError(f"delay must be non-negative, got {tau}")
    T = np.zeros((n_max + 1, n_max + 1))
    for k in range(n_max + 1):
        for n in range(k, n_max + 1):
            T[k, n] = math.comb(n, k) * (-tau) ** (n - k)
    return T


def monomial_row(n_max: int, t: float) -> np.ndarray:
    """The row [1, t, t^2, ..., t^n_max]."""
    return np.power(float(t), np.arange(n_max + 1))


class IdentityCheck(_FrozenRecord):
    _FIELDS = ("passed", "max_deviation")

    def __init__(self, passed: bool, max_deviation: float):
        self.__dict__.update(passed=passed, max_deviation=max_deviation)


def _laguerre_row_direct(n_max, t):
    return np.array([laguerre_eval_sum(n, t) for n in range(n_max + 1)])


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
        H = laguerre_change_matrix(n)
        B = monomial_diff_matrix(n)
        C = laguerre_diff_matrix(n)
        check(f"laguerre_from_monomials[N={n}]", lambda t: (
            _laguerre_row_direct(n, t), monomial_row(n, t) @ H))
        # k on Python ints: t ** (k - 1) as Python's float power
        check(f"monomial_derivative[N={n}]", lambda t: (
            np.array([k * t ** (k - 1) if k else 0.0 for k in range(n + 1)]),
            monomial_row(n, t) @ B))
        check(f"laguerre_derivative[N={n}]", lambda t: (
            _laguerre_derivative_direct(n, t), basis_row(n, t) @ C))
        for tau in (0.5, 1.0, 2.0):
            T = delay_shift_matrix(n, tau)
            check(f"delay_shift[N={n},tau={tau}]", lambda t: (
                np.power(t - tau, np.arange(n + 1)),
                monomial_row(n, t) @ T))
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
    literal = (monomial_row(3, 1.0)
               @ delay_shift_matrix(3, 1.0)
               @ monomial_diff_matrix(3)
               @ laguerre_change_matrix(3))
    return float(np.abs(literal - _laguerre_row_direct(3, 0.0)).max())
