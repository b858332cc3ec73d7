"""Tests for system assembly, initial-condition rows, and the solvers."""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial import Chebyshev, Laguerre

from lagdde import collocation as collocation_mod
from lagdde import reference as reference_mod
from lagdde.accuracy import convergence_study, error_report, residual
from lagdde.collocation import (
    DDEProblem,
    DelayTerm,
    History,
    NonConvergenceError,
    NonlinearDelayTerm,
    SingularSystemError,
    SpectralSolution,
    _invert,
    _system,
    collocation_points,
    evaluate,
    single_equation,
    solve_linear,
    solve_nonlinear,
)


def _chebyshev_of_laguerre(n, b):
    """S, whose column k holds the Chebyshev coefficients of L_k(t) in
    T_j(2t/b - 1): laguerre_row(t) = chebyshev_row(t) @ S."""
    S = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        coef = Laguerre.basis(k).convert(domain=[0.0, b], kind=Chebyshev).coef
        S[:len(coef), k] = coef
    return S


def _solution(coeffs, b=1.0):
    """Solution with the Laguerre coefficients ``coeffs``."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    S = _chebyshev_of_laguerre(coeffs.shape[1] - 1, b)
    return SpectralSolution(chebyshev=coeffs @ S.T, b=b)


def _laguerre_frame(problem, n):
    """The collocation system in the Laguerre frame, A @ kron(I_l, S) and G.

    Each equation's block holds the collocation rows at t_0 .. t_{N-1} and,
    last, the initial-condition row.
    """
    S = _chebyshev_of_laguerre(n, problem.b)
    A, G, _ = _system(problem, n, collocation_points(n, problem.b)[:-1])
    return A @ np.kron(np.eye(problem.n_equations), S), G


# ---------------------------------------------------------------------------
# grids

def test_collocation_points_small():
    np.testing.assert_allclose(collocation_points(2, 1.0), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(collocation_points(4, 2.0),
                               [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(collocation_points(3, 5.0),
                               [0.0, 5.0 / 3.0, 10.0 / 3.0, 5.0])


def test_collocation_points_validation():
    with pytest.raises(ValueError, match="must be >= 2"):
        collocation_points(1, 1.0)
    with pytest.raises(ValueError, match="exceeds supported maximum 20"):
        collocation_points(21, 1.0)
    with pytest.raises(ValueError):
        collocation_points(3, 0.0)
    # every solve grids its truncation first
    problem = single_equation(1.0, 0.5, 0.5, lambda t: 0.0, 1.0, 1.0)
    for n in (1, 21):
        with pytest.raises(ValueError, match="truncation"):
            solve_linear(problem, n)


# ---------------------------------------------------------------------------
# row assembly, read in the Laguerre frame

def test_row_block_derivative_only():
    # N = 3 on [0, 1.8]: row 1 collocates at t = 0.6
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 1.0, 0.0, 1.8)
    t = 0.6
    W, G = _laguerre_frame(problem, 3)
    expected = (collocation_mod.basis_row(3, t)
                @ reference_mod.laguerre_diff_matrix(3))
    np.testing.assert_allclose(W[1], expected, atol=1e-14)
    assert G[1] == 1.0


def test_row_block_with_gamma_at_zero():
    problem = single_equation(1.0, 0.0, 1.0, lambda t: 0.0, 0.0, 1.0)
    W, _ = _laguerre_frame(problem, 2)
    # [1,1,1] @ C + [1,1,1] = [0,-1,-2] + [1,1,1]
    np.testing.assert_allclose(W[0], [1.0, 0.0, -1.0], atol=1e-14)


def test_row_block_delay_collapses_at_zero_tau():
    # N = 3 on [0, 1.2]: row 1 collocates at t = 0.4
    problem = single_equation(0.0, 1.0, 0.0, lambda t: 0.0, 0.0, 1.2)
    t = 0.4
    W, _ = _laguerre_frame(problem, 3)
    L = collocation_mod.basis_row(3, t)
    np.testing.assert_allclose(
        W[1], L @ reference_mod.laguerre_diff_matrix(3) - L, atol=1e-12)


def test_assemble_system_derivative_rows():
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 0.0, 0.0, 1.0)
    W, G = _laguerre_frame(problem, 2)
    assert W.shape == (3, 3)
    C = reference_mod.laguerre_diff_matrix(2)
    for i, t in enumerate(collocation_points(2, 1.0)[:-1]):
        np.testing.assert_allclose(W[i], collocation_mod.basis_row(2, t) @ C,
                                   atol=1e-14)
    np.testing.assert_array_equal(G, np.zeros(3))


def test_delay_collapse_matches_ode_assembly():
    gamma, beta = 0.7, 0.3
    problem = single_equation(gamma, beta, 0.0, lambda t: math.sin(t), 0.2, 2.0)
    W, _ = _laguerre_frame(problem, 5)
    C = reference_mod.laguerre_diff_matrix(5)
    for i, t in enumerate(collocation_points(5, 2.0)[:-1]):
        L = collocation_mod.basis_row(5, t)
        np.testing.assert_allclose(W[i], L @ C + (gamma - beta) * L,
                                   atol=1e-12)


def test_coupled_system_off_diagonal_block():
    history = History(functions=(lambda t: 1.0, lambda t: 1.0), end=0.0)
    problem = DDEProblem(
        gamma=[0.0, 0.0],
        delays=[[DelayTerm(0, 1.0, 2.0)],
                [DelayTerm(0, 1.0, 2.0), DelayTerm(1, 1.0, 0.5)]],
        g=[lambda t: 0.0, lambda t: 0.0],
        phi=[1.0, 1.0], b=5.0, history=history)
    n = 4
    W, _ = _laguerre_frame(problem, n)
    assert W.shape == (2 * (n + 1), 2 * (n + 1))
    # the delayed argument leaves the history interval at the later
    # collocation points, where the first equation's block must feed the
    # second equation's rows
    off_block = W[n + 1:, :n + 1]
    assert np.abs(off_block).max() > 0.0


def test_initial_condition_row_replacement():
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 0.0, 1.0, 1.0)
    W, G = _laguerre_frame(problem, 2)
    np.testing.assert_array_equal(W[2], [1.0, 1.0, 1.0])
    assert G[2] == 1.0


def test_initial_condition_rows_two_equations():
    history = History(functions=(lambda t: 1.0, lambda t: 1.0), end=0.0)
    problem = DDEProblem(
        gamma=[0.0, 0.0],
        delays=[[DelayTerm(0, 1.0, 2.0)], [DelayTerm(1, 1.0, 0.5)]],
        g=[lambda t: 0.0, lambda t: 0.0],
        phi=[1.0, 1.0], b=5.0, history=history)
    n = 3
    W, G = _laguerre_frame(problem, n)
    for r in (n, 2 * n + 1):
        block = 0 if r == n else 1
        np.testing.assert_array_equal(
            W[r, block * (n + 1):(block + 1) * (n + 1)], np.ones(n + 1))
        assert G[r] == 1.0


def test_solved_coefficients_sum_to_initial_value():
    problem = single_equation(0.5, 0.8, 1.0, lambda t: math.cos(t), 0.7, 2.0)
    solution = solve_linear(problem, 6)
    # L_n(0) = 1, so the coefficient sum is the value at zero
    assert solution.coefficients.sum() == pytest.approx(0.7, abs=1e-10)


# ---------------------------------------------------------------------------
# linear solve

def test_constant_solution():
    problem = single_equation(0.0, 0.0, 1.0, lambda t: 0.0, 1.0, 1.0)
    solution = solve_linear(problem, 2)
    np.testing.assert_allclose(solution.coefficients, [[1.0, 0.0, 0.0]],
                               atol=1e-12)


def test_manufactured_linear_solution():
    # u(t) = t solves u' = -u + u(t-1) + g with g = 1 + t - (t - 1) = 2;
    # the delayed argument stays inside the matrix-term range (no history)
    problem = single_equation(1.0, 1.0, 1.0, lambda t: 2.0, 0.0, 2.0)
    solution = solve_linear(problem, 4)
    # t = L_0 - L_1
    np.testing.assert_allclose(solution.coefficients,
                               [[1.0, -1.0, 0.0, 0.0, 0.0]], atol=1e-8)
    for t in np.linspace(0.0, 2.0, 9):
        assert evaluate(solution, t)[0] == pytest.approx(t, abs=1e-8)


def test_coupled_first_component_linear_growth():
    # constant history feeds u1' = u1(t - 2), so u1 = 1 + t up to t = 2
    history = History(functions=(lambda t: 1.0, lambda t: 1.0), end=0.0)
    problem = DDEProblem(
        gamma=[0.0, 0.0],
        delays=[[DelayTerm(0, 1.0, 2.0)],
                [DelayTerm(0, 1.0, 2.0), DelayTerm(1, 1.0, 0.5)]],
        g=[lambda t: 0.0, lambda t: 0.0],
        phi=[1.0, 1.0], b=2.0, history=history)
    solution = solve_linear(problem, 4)
    for t in np.linspace(0.0, 2.0, 11):
        assert evaluate(solution, t)[0] == pytest.approx(1.0 + t, abs=1e-6)


def test_polynomial_exactness_random_problems():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        deg = int(rng.integers(0, n))
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, deg + 1))
        dpoly = poly.deriv()
        gamma = float(rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(-2.0, 2.0))
        tau = float(rng.choice([0.5, 1.0, 2.0]))

        def g(t, dpoly=dpoly, poly=poly, gamma=gamma, beta=beta, tau=tau):
            return dpoly(t) + gamma * poly(t) - beta * poly(t - tau)

        problem = single_equation(gamma, beta, tau, g, poly(0.0), 2.0)
        solution = solve_linear(problem, n)
        ts = np.linspace(0.0, 2.0, 30)
        scale = max(1.0, max(abs(poly(t)) for t in ts))
        worst = max(abs(evaluate(solution, t)[0] - poly(t)) for t in ts)
        assert worst < 1e-8 * scale


def test_initial_condition_exactness():
    rng = np.random.default_rng(47)
    for _ in range(10):
        phi = float(rng.uniform(-2.0, 2.0))
        problem = single_equation(0.3, 0.9, 0.5, math.sin, phi, 3.0)
        solution = solve_linear(problem, 7)
        assert evaluate(solution, 0.0)[0] == pytest.approx(phi, abs=1e-10)


def test_solve_linear_rejects_nonlinear_problem():
    problem = single_equation(
        0.4, 0.0, 0.5, lambda t: 0.0, 0.0, 1.0,
        nonlinear=NonlinearDelayTerm(f=lambda u: math.exp(-u), target=0, tau=0.5))
    with pytest.raises(ValueError):
        solve_linear(problem, 4)


# ---------------------------------------------------------------------------
# nonlinear solve

def _nonlinear_problem(f, b=5.0):
    history = History(functions=(math.sin,), end=0.5)
    return DDEProblem(
        gamma=[0.4], delays=[[]], g=[lambda t: 0.0], phi=[0.0], b=b,
        history=history,
        nonlinear=[NonlinearDelayTerm(f=f, target=0, tau=0.5)])


def test_zero_nonlinearity_reduces_to_linear():
    nonlinear = _nonlinear_problem(lambda u: 0.0)
    linear = DDEProblem(gamma=[0.4], delays=[[]], g=[lambda t: 0.0],
                        phi=[0.0], b=5.0,
                        history=History(functions=(math.sin,), end=0.5))
    got = solve_nonlinear(nonlinear, 6)
    expected = solve_linear(linear, 6)
    np.testing.assert_array_equal(got.coefficients, expected.coefficients)


def test_constant_nonlinearity_converges_in_one_iteration():
    solution = solve_nonlinear(_nonlinear_problem(lambda u: 2.0), 6)
    assert solution.iterations == 1


def _scalar_feedback():
    beta = 0.8
    history = History(functions=(lambda t: math.cos(t),), end=0.0)
    nonlinear = DDEProblem(
        gamma=[0.5], delays=[[]], g=[lambda t: math.sin(t)], phi=[1.0], b=3.0,
        history=history,
        nonlinear=[NonlinearDelayTerm(f=lambda u: beta * u, target=0, tau=1.0)])
    linear = DDEProblem(
        gamma=[0.5], delays=[[DelayTerm(0, beta, 1.0)]],
        g=[lambda t: math.sin(t)], phi=[1.0], b=3.0, history=history)
    return nonlinear, linear


def _cross_feedback(history):
    """Two equations, each fed beta_k times the other at t - 0.5, once as
    nonlinear terms and once as linear delays."""
    betas = (0.3, -0.2)
    common = dict(gamma=[0.5, 1.0], g=[math.sin, math.cos], phi=[1.0, 0.0],
                  b=2.0, history=history)
    nonlinear = DDEProblem(
        delays=[[], []], **common,
        nonlinear=[NonlinearDelayTerm(f=lambda u, k=k: betas[k] * u,
                                      target=1 - k, tau=0.5) for k in (0, 1)])
    linear = DDEProblem(
        delays=[[DelayTerm(1 - k, betas[k], 0.5)] for k in (0, 1)], **common)
    return nonlinear, linear


def test_linear_nonlinearity_reproduces_linear_solve():
    # a scalar problem, and a coupled one with and without a history (the
    # delayed arguments below 0 then read the series)
    for nonlinear, linear in (
            _scalar_feedback(),
            _cross_feedback(History(functions=(math.cos, math.sin), end=0.0)),
            _cross_feedback(None)):
        got = solve_nonlinear(nonlinear, 8, tol=1e-10)
        expected = solve_linear(linear, 8)
        assert got.iterations > 1
        scale = max(1.0, np.abs(expected.coefficients).max())
        assert np.abs(got.coefficients - expected.coefficients).max() < 1e-6 * scale


def test_nonlinear_solution_satisfies_equation():
    problem = _nonlinear_problem(lambda u: math.exp(-u))
    solution = solve_nonlinear(problem, 10)
    assert solution.iterations <= 50
    derivative = Chebyshev(solution.chebyshev[0], domain=[0, solution.b]).deriv()
    # check the defect at a few interior points away from the seam
    for t in (1.5, 2.5, 3.5):
        u = evaluate(solution, t)[0]
        du = derivative(t)
        u_delayed = evaluate(solution, t - 0.5)[0]
        defect = abs(du + 0.4 * u - math.exp(-u_delayed))
        assert defect < 5e-2


def test_nonlinear_moderate_truncation_tracks_integrator():
    from lagdde.reference import rk4_method_of_steps

    problem = _nonlinear_problem(lambda u: math.exp(-u))
    solution = solve_nonlinear(problem, 6)
    trajectory = rk4_method_of_steps(problem, step=1e-3)
    diff = max(abs(evaluate(solution, t)[0] - trajectory(t)[0])
               for t in np.linspace(0.5, 3.0, 26))
    assert diff < 2e-2


def test_overlapping_history_gap_belongs_to_the_discrete_system():
    # In these data the DDE runs from u(0) = 0 while sin serves delayed
    # arguments <= 0.5, so u' jumps at t = 1 and no degree-10 polynomial
    # follows it: at N = 10 the solve misses RK4 by 1.18e-2 on [0.5, 3].
    # The same collocation system, assembled in the monomial frame and
    # iterated in 50-digit arithmetic, gives the float solution to 1e-8, so
    # the gap is a property of the discrete system, not of roundoff.
    mpmath = pytest.importorskip("mpmath")
    from lagdde.reference import rk4_method_of_steps

    n_max, gamma, tau, end, b = 10, 0.4, 0.5, 0.5, 5.0
    problem = _nonlinear_problem(lambda u: math.exp(-u), b=b)
    solution = solve_nonlinear(problem, n_max, tol=1e-8, max_iter=50)
    trajectory = rk4_method_of_steps(problem, step=1e-3)
    points = np.linspace(0.5, 3.0, 26)
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        nodes = [mpf(b) * i / n_max for i in range(n_max)]
        W = mpmath.matrix(n_max + 1, n_max + 1)
        for i, t in enumerate(nodes):
            for k in range(n_max + 1):
                W[i, k] = gamma * t ** k + (k * t ** (k - 1) if k else 0)
        W[n_max, 0] = 1

        def delayed(coeffs, s):
            if s <= end:
                return mpmath.sin(s)
            if coeffs is None:  # the solver's first iterate: history held at end
                return mpmath.sin(mpf(end))
            return mpmath.polyval(coeffs[::-1], s)

        coeffs = None
        for _ in range(200):
            G = [mpmath.exp(-delayed(coeffs, t - tau)) for t in nodes] + [0]
            previous, coeffs = coeffs, list(mpmath.lu_solve(W, mpmath.matrix(G)))
            if previous is not None and max(
                    abs(x - y) for x, y in zip(coeffs, previous)) < mpf(10) ** -45:
                break
        else:
            pytest.fail("50-digit substitution did not converge")
        precise = [float(mpmath.polyval(coeffs[::-1], mpf(t))) for t in points]
    roundoff = max(abs(evaluate(solution, t)[0] - x) for t, x in zip(points, precise))
    gap = max(abs(x - trajectory(t)[0]) for t, x in zip(points, precise))
    print(f"overlapping history, N=10: float vs 50 digits {roundoff:.2e}, "
          f"50 digits vs RK4 {gap:.5e}")
    assert roundoff <= 1e-8
    assert gap > 1e-2


def test_picard_evaluates_g_and_history_once_per_solve():
    # f is called at every delayed point in every substitution; g and the
    # history only while the system is assembled, whatever the iteration count
    calls = Counter()

    def counted(label, fn):
        def wrapper(x):
            calls[label] += 1
            return fn(x)
        return wrapper

    history = History(functions=(counted("history", math.sin),), end=0.5)
    problem = DDEProblem(
        gamma=[0.4], delays=[[DelayTerm(0, 0.3, 1.0)]],
        g=[counted("g", math.cos)], phi=[0.0], b=5.0, history=history,
        nonlinear=[NonlinearDelayTerm(f=counted("f", lambda u: math.exp(-u)),
                                      target=0, tau=0.5)])
    for n, max_iter in ((6, 50), (10, 50), (10, 3)):
        calls.clear()
        try:
            solves = solve_nonlinear(problem, n, max_iter=max_iter).iterations + 1
            assert solves > 3
        except NonConvergenceError:
            solves = max_iter
        t = collocation_points(n, problem.b)[:-1]
        covered = history.covers(t - 1.0).sum() + history.covers(t - 0.5).sum()
        assert calls["g"] == n
        # the points the history serves, and its end for the first iterate
        assert calls["history"] == covered + 1
        assert calls["f"] == n * solves


def test_nonlinear_non_convergence_error():
    problem = _nonlinear_problem(lambda u: math.exp(-u))
    with pytest.raises(NonConvergenceError) as info:
        solve_nonlinear(problem, 10, tol=1e-8, max_iter=2)
    assert info.value.iterations == 2
    assert math.isfinite(info.value.last_delta)


def _feedback_problem(f, phi=0.5):
    """u' = 0.5 u + f(u(t - 0.25)) + cos t on [0, 5], no history."""
    return DDEProblem(gamma=[-0.5], delays=[[]], g=[math.cos], phi=[phi],
                      b=5.0, nonlinear=[NonlinearDelayTerm(f=f, target=0,
                                                           tau=0.25)])


def test_picard_stops_when_f_overflows_on_a_later_iterate():
    # exp(-u) of the diverging iterate 13 overflows; the solve used to end
    # in a bare OverflowError from f
    problem = _feedback_problem(lambda u: math.exp(-u))
    with pytest.raises(NonConvergenceError, match=(
            r"^no convergence: iterate 14 diverged, f raised OverflowError: "
            r"math range error \(last coefficient delta ")) as info:
        solve_nonlinear(problem, 16)
    assert info.value.iterations == 14
    assert math.isfinite(info.value.last_delta)
    assert isinstance(info.value.__cause__, OverflowError)


def test_picard_stops_when_f_is_not_finite_on_a_later_iterate():
    # 1e300 u^2 is finite at phi and inf at the first computed iterate
    problem = _feedback_problem(lambda u: 1e300 * u * u)
    with pytest.raises(NonConvergenceError, match=(
            r"^no convergence: iterate 2 diverged, f gave an inf or a nan")
            ) as info:
        solve_nonlinear(problem, 6)
    assert info.value.iterations == 2
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_f_failing_on_the_first_iterate_raises_as_it_is():
    # the first iterate reads phi only: its failures are not divergence
    with pytest.raises(OverflowError):
        solve_nonlinear(_feedback_problem(lambda u: math.exp(-u), -1000.0), 6)
    with pytest.raises(FloatingPointError, match="right-hand side is not finite"):
        solve_nonlinear(_feedback_problem(lambda u: 1e308 * 10 * u), 6)


def test_user_callables_are_read_on_python_floats():
    # g, the history, f and a plain reference see floats, never NumPy
    # scalars, in both solvers, the residual and the error report
    seen = Counter()

    def typed(label, fn):
        def wrapper(x):
            seen[label, type(x)] += 1
            return fn(x)
        return wrapper

    history = History(functions=(typed("history", math.sin),), end=0.5)
    for f in (None, NonlinearDelayTerm(f=typed("f", lambda u: math.exp(-u)),
                                       target=0, tau=0.5)):
        problem = DDEProblem(
            gamma=[0.4], delays=[[DelayTerm(0, 0.3, 1.0)]],
            g=[typed("g", math.cos)], phi=[0.0], b=5.0, history=history,
            nonlinear=[f])
        solution = (solve_nonlinear if f else solve_linear)(problem, 8)
        residual(problem, solution, np.linspace(0.0, 5.0, 7))
        error_report(problem, solution)
        error_report(problem, solution,
                     typed("reference", lambda t: np.array([math.sin(t)])))
    assert {label for label, _ in seen} == {"g", "history", "f", "reference"}
    assert {kind for _, kind in seen} == {float}


def _diverging_cross_feedback():
    """f_k = beta_k u_{1-k}(t - 1), beta = (0.8, -0.5), gamma = (0.5, 1),
    g = (sin, cos), phi = (1, 0) on [0, 3], no history: at N = 10 the
    Picard iterates grow until they pass the float range at iterate 624."""
    betas = (0.8, -0.5)
    return DDEProblem(
        gamma=[0.5, 1.0], delays=[[], []], g=[math.sin, math.cos],
        phi=[1.0, 0.0], b=3.0,
        nonlinear=[NonlinearDelayTerm(f=lambda u, k=k: betas[k] * u,
                                      target=1 - k, tau=1.0) for k in (0, 1)])


@pytest.mark.parametrize("max_iter", [50.5, 2.0, "50", None])
def test_max_iter_must_be_an_integer(max_iter):
    # solves == max_iter never held for 50.5, so the cap never stopped the
    # iteration: this problem ran to iterate 624
    message = f"max_iter must be an integer >= 1, got {max_iter!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_nonlinear(_diverging_cross_feedback(), 10, max_iter=max_iter)
    with pytest.raises(ValueError, match=re.escape(message)):
        convergence_study(_diverging_cross_feedback(), [6, 10],
                          max_iter=max_iter)


def test_convergence_study_refuses_a_bad_tolerance():
    # it used to return one row per truncation holding this error
    with pytest.raises(ValueError, match="^tolerance must be positive, got 0$"):
        convergence_study(_diverging_cross_feedback(), [6, 10], tol=0)


def test_max_iter_may_be_a_numpy_integer():
    with pytest.raises(NonConvergenceError) as info:
        solve_nonlinear(_diverging_cross_feedback(), 10, max_iter=np.int64(3))
    assert info.value.iterations == 3


def _coupled_pair(delay=None, nonlinear=None):
    """Two equations on [0, 2] with a history, equation 0 reading equation 1
    through ``delay`` or ``nonlinear``."""
    return DDEProblem(
        gamma=[1.0, 0.5], delays=[[delay] if delay else [], []],
        g=[math.cos, math.sin], phi=[1.0, 0.0], b=2.0,
        history=History(functions=(math.cos, math.sin)),
        nonlinear=[nonlinear, None])


@pytest.mark.parametrize("target", [0.5, 1.0])
def test_term_targets_must_be_integers(target):
    # target 0.5 used to build a problem: solve_linear then raised a bare
    # TypeError, and the RK4 oracle integrated it as target 0
    with pytest.raises(ValueError, match=re.escape(
            f"delay target must be an integer, got {target!r}")):
        _coupled_pair(delay=DelayTerm(target, 0.5, 1.0))
    with pytest.raises(ValueError, match=re.escape(
            f"nonlinear target must be an integer, got {target!r}")):
        _coupled_pair(nonlinear=NonlinearDelayTerm(math.sin, target, 1.0))


def test_term_targets_may_be_numpy_integers():
    for problem in (
            lambda k: _coupled_pair(delay=DelayTerm(k, 0.5, 1.0)),
            lambda k: _coupled_pair(
                nonlinear=NonlinearDelayTerm(math.sin, k, 1.0))):
        assert np.array_equal(solve_nonlinear(problem(np.int64(1)), 8).chebyshev,
                              solve_nonlinear(problem(1), 8).chebyshev)


def _far_problem(gamma=0.0, phi=1.0):
    """u' = -gamma u + 0.5 u(t - 1) + cos t on [0, 5], u(0) = phi, history
    1; at the defaults every value is in range."""
    return single_equation(gamma, 0.5, 1.0, math.cos, phi, 5.0,
                           history=History(functions=(lambda t: 1.0,)))


def test_solve_past_the_float_range_is_a_typed_error_with_no_warning():
    # phi = 1e308 used to give nan coefficients after two RuntimeWarnings
    # from the residual correction; gamma = 1e308 warned in _invert's row
    # sums before its SingularSystemError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, phi in ((8, 1e308), (8, -1e308), (20, 1e306)):
            with pytest.raises(FloatingPointError,
                               match="^the coefficients are not finite"):
                solve_linear(_far_problem(phi=phi), n)
        for gamma in (1e308, -1e308):
            with pytest.raises(SingularSystemError):
                solve_linear(_far_problem(gamma=gamma), 8)
        assert np.isfinite(solve_linear(_far_problem(), 8).chebyshev).all()


@pytest.mark.parametrize("gamma, beta, b, n_list", [
    (1e308, 0.5, 5.0, (8, 20)),
    (-1e308, 0.5, 5.0, (8, 20)),
    (0.0, 1e308, 5.0, (8, 20)),
    (0.0, 0.5, 1e-306, (20,)),
], ids=["gamma", "negative_gamma", "beta", "tiny_b"])
def test_system_whose_norm_overflows_says_so(gamma, beta, b, n_list):
    # each used to read "condition number nan (bound 4.504e+13)", which
    # gave no reason
    problem = single_equation(gamma, beta, 1.0, math.cos, 1.0, b,
                              history=History(functions=(lambda t: 1.0,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in n_list:
            with pytest.raises(SingularSystemError) as info:
                solve_linear(problem, n)
            assert info.value.condition == math.inf
            assert str(info.value) == (
                "singular system: the infinity norm of the system overflows: "
                "a gamma, a beta or 1/b is past the float range")


def test_system_with_a_finite_norm_keeps_its_condition_number():
    with pytest.raises(SingularSystemError, match=re.escape(
            "singular system: condition number inf (bound 4.504e+13)")):
        solve_linear(_far_problem(gamma=1e300), 20)
    tiny_b = single_equation(0.0, 0.5, 1.0, math.cos, 1.0, 1e-300,
                             history=History(functions=(lambda t: 1.0,)))
    with pytest.raises(SingularSystemError, match=(
            r"^singular system: condition number \d\.\d{3}e\+30\d ")):
        solve_linear(tiny_b, 20)


@pytest.mark.parametrize("n_list, message", [
    ([6, 25], "truncation 25 exceeds supported maximum 20"),
    ([6, 1], "truncation must be >= 2, got 1"),
    ([6.0], "truncation must be an integer, got 6.0"),
    ([6, "8"], "truncation must be an integer, got '8'"),
])
def test_convergence_study_checks_every_truncation_before_any_solve(
        n_list, message):
    # each used to come back as a row holding the error, a float N as the
    # TypeError of np.linspace
    calls = []
    problem = single_equation(1.0, 0.5, 1.0, lambda t: calls.append(t) or 0.0,
                              1.0, 2.0, history=History((math.cos,)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        convergence_study(problem, n_list)
    assert calls == []


@pytest.mark.parametrize("n_max", [6.0, 6.5, "6", None])
def test_truncation_must_be_an_integer(n_max):
    message = f"truncation must be an integer, got {n_max!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        collocation_points(n_max, 1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_nonlinear(_diverging_cross_feedback(), n_max)
    assert len(collocation_points(np.int64(6), 1.0)) == 7


def test_diverging_iterate_is_a_non_convergence_error_not_a_warning():
    # T @ c of an iterate past the float range used to warn "overflow
    # encountered in matmul", an exception under -W error. The iterate, not
    # f = beta u, which only passes its inf on, is named as the cause
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match=(
                r"^no convergence: iterate \d+ diverged, iterate \d+ is not "
                r"finite at the delayed points")) as info:
            solve_nonlinear(_diverging_cross_feedback(), 10, max_iter=1000)
    assert info.value.iterations > 50
    assert (f"diverged, iterate {info.value.iterations - 1} is not finite"
            in str(info.value))
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_nonlinear_parameter_validation():
    problem = _nonlinear_problem(lambda u: u)
    with pytest.raises(ValueError):
        solve_nonlinear(problem, 6, tol=0.0)
    with pytest.raises(ValueError):
        solve_nonlinear(problem, 6, max_iter=0)


def test_solve_nonlinear_on_a_linear_problem_is_solve_linear():
    # one loop: a linear problem leaves after the first solve
    for linear in (_scalar_feedback()[1], _cross_feedback(None)[1]):
        got = solve_nonlinear(linear, 8)
        expected = solve_linear(linear, 8)
        assert got.iterations == expected.iterations == 0
        assert got.chebyshev.tobytes() == expected.chebyshev.tobytes()
        assert got.condition == expected.condition


def test_max_iter_one_allows_the_first_solve_only():
    # the first solve counts towards max_iter and has no update to measure
    with pytest.raises(NonConvergenceError) as info:
        solve_nonlinear(_nonlinear_problem(lambda u: 2.0), 6, max_iter=1)
    assert info.value.iterations == 1
    assert info.value.last_delta == math.inf


def test_linear_problem_checks_tol_and_max_iter_too():
    linear = _scalar_feedback()[1]
    for kwargs in ({"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan},
                   {"max_iter": 0}):
        with pytest.raises(ValueError):
            solve_nonlinear(linear, 6, **kwargs)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_constant_series():
    solution = _solution([1.0, 0.0, 0.0, 0.0])
    for t in (0.0, 0.3, 2.7):
        assert evaluate(solution, t)[0] == pytest.approx(1.0)


def test_evaluate_first_laguerre_at_one():
    solution = _solution([0.0, 1.0, 0.0])
    assert evaluate(solution, 1.0)[0] == pytest.approx(0.0, abs=1e-14)


def test_evaluate_linear_combination_is_t():
    solution = _solution([1.0, -1.0, 0.0])
    assert evaluate(solution, 0.7)[0] == pytest.approx(0.7, abs=1e-14)


def test_evaluate_extrapolates_below_zero():
    solution = _solution([1.0, -1.0, 0.0])
    assert evaluate(solution, -0.5)[0] == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 20])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_array_reads_equal_scalar_reads(l, n):
    # each point of an array read equals the scalar read at that point,
    # bit for bit, inside [0, b] and outside it; a read keeps the shape of
    # its points, (l,) + np.shape(t)
    b = 3.0
    rng = np.random.default_rng(10 * l + n)
    solution = SpectralSolution(chebyshev=rng.uniform(-2.0, 2.0, (l, n + 1)), b=b)
    points = np.concatenate([np.linspace(-1.5, b + 1.5, 19), rng.uniform(0.0, b, 6)])
    values = evaluate(solution, points)
    assert values.shape == (l, points.size)
    for j, t in enumerate(points):  # numpy.float64 scalars
        assert evaluate(solution, t).shape == (l,)
        assert (values[:, j] == evaluate(solution, t)).all()
        assert (values[:, j] == evaluate(solution, float(t))).all()
    zero_d = evaluate(solution, np.array(points[3]))
    assert zero_d.shape == (l,)
    assert (zero_d == values[:, 3]).all()
    grid = evaluate(solution, points.reshape(5, 5))
    assert grid.shape == (l, 5, 5)
    assert (grid.reshape(l, -1) == values).all()
    for like in (list, tuple):  # a sequence of numbers reads as an array
        assert (evaluate(solution, like(points.tolist())) == values).all()


# ---------------------------------------------------------------------------
# undelayed couplings

@pytest.mark.parametrize("history", [None, History((lambda t: 7.0,), end=0.5),
                                     History((lambda t: 3.0,), end=0.0)],
                         ids=["none", "end_half", "end_zero"])
def test_zero_delay_coupling_reads_the_computed_solution(history):
    # u' = -u + 0.5 u(t), u(0) = 1, so u = exp(-t/2) whatever the history:
    # beta u(t) is the state, never the history, even where t <= end
    problem = single_equation(1.0, 0.5, 0.0, lambda t: 0.0, 1.0, 2.0,
                              history=history)
    solution = solve_linear(problem, 12)
    points = np.linspace(0.0, 2.0, 21)
    error = np.abs(evaluate(solution, points)[0] - np.exp(-points / 2)).max()
    assert error < 1e-12
    unserved = solve_linear(single_equation(1.0, 0.5, 0.0, lambda t: 0.0, 1.0,
                                            2.0), 12)
    np.testing.assert_array_equal(solution.chebyshev, unserved.chebyshev)


# ---------------------------------------------------------------------------
# the one-pass assembly against the per-term one

def _rows_per_call(n_max, b, t):
    """T_k(2t/b - 1) and its t-derivative, one (len(t), N+1) block per call:
    the per-term kernel the assembly used before it ran one recurrence."""
    x = 2.0 * np.asarray(t, dtype=float) / b - 1.0
    values = np.empty((x.size, n_max + 1))
    slopes = np.empty_like(values)
    values[:, 0], slopes[:, 0] = 1.0, 0.0
    values[:, 1], slopes[:, 1] = x, 1.0
    for k in range(1, n_max):
        values[:, k + 1] = 2.0 * x * values[:, k] - values[:, k - 1]
        slopes[:, k + 1] = (2.0 * values[:, k] + 2.0 * x * slopes[:, k]
                            - slopes[:, k - 1])
    return values, slopes * (2.0 / b)


def _system_per_term(problem, n_max, t):
    """``_system`` with one recurrence run per delay term, frozen as the
    reference that the one-pass assembly must equal bit for bit."""
    b = problem.b
    values, slopes = _rows_per_call(n_max, b, t)
    history = problem.history
    l = problem.n_equations
    m, width = t.size, n_max + 1

    def delayed(target, tau):
        s = t - tau
        served = (np.ones(m, bool) if history is None or tau == 0
                  else ~history.covers(s))
        known = np.array([history.value(target, x) for x in s[~served]])
        return served, _rows_per_call(n_max, b, s[served])[0], known

    A = np.zeros((l * (m + 1), l * width))
    G = np.zeros(l * (m + 1))
    feedback = []
    for eq in range(l):
        own = slice(eq * width, (eq + 1) * width)
        rows = slice(eq * (m + 1), eq * (m + 1) + m)
        A[rows, own] = slopes + problem.gamma[eq] * values
        G[rows] = [float(problem.g[eq](x)) for x in t]
        for term in problem.delays[eq]:
            served, T, known = delayed(term.target, term.tau)
            block = slice(term.target * width, (term.target + 1) * width)
            A[rows, block][served] -= term.beta * T
            G[rows][~served] += term.beta * known
        A[rows.stop, own] = (-1.0) ** np.arange(width)
        G[rows.stop] = problem.phi[eq]
        term = problem.nonlinear[eq]
        if term is not None:
            served, T, known = delayed(term.target, term.tau)
            u = np.full(m, problem.phi[term.target] if history is None
                        else history.value(term.target, history.end))
            u[~served] = known
            feedback.append((rows, term, served, T, u))
    return A, G, feedback


def _guard_problem(l, with_history, with_nonlinear):
    """l coupled equations on [0, 2.5]: equation k delays its neighbour by
    0.5 (k + 1) and, for k = 1, also couples undelayed; with
    ``with_nonlinear`` each equation adds f(u_k(t - 0.3 (k + 1)))."""
    rng = np.random.default_rng(7 * l + 2 * with_history + with_nonlinear)
    gamma = rng.uniform(-1.0, 1.0, l).tolist()
    beta = rng.uniform(-1.0, 1.0, l).tolist()
    delays = [[DelayTerm((k + 1) % l, beta[k], 0.5 * (k + 1))] for k in range(l)]
    if l > 1:
        delays[1].append(DelayTerm(0, 0.25, 0.0))
    nonlinear = ([NonlinearDelayTerm(f=math.tanh, target=k, tau=0.3 * (k + 1))
                  for k in range(l)] if with_nonlinear else None)
    history = (History(functions=(math.cos, math.sin, math.exp)[:l], end=0.4)
               if with_history else None)
    return DDEProblem(gamma=gamma, delays=delays,
                      g=[math.sin, math.cos, lambda t: 0.5][:l],
                      phi=rng.uniform(-1.0, 1.0, l).tolist(), b=2.5,
                      history=history, nonlinear=nonlinear)


@pytest.mark.parametrize("with_nonlinear", [False, True])
@pytest.mark.parametrize("with_history", [False, True])
@pytest.mark.parametrize("n", [2, 10, 20])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_one_pass_system_equals_per_term_assembly(l, n, with_history,
                                                  with_nonlinear):
    problem = _guard_problem(l, with_history, with_nonlinear)
    for t in (collocation_points(n, problem.b)[:-1],
              np.linspace(0.0, problem.b, 26)):
        A, G, feedback = _system(problem, n, t)
        A_ref, G_ref, feedback_ref = _system_per_term(problem, n, t)
        assert np.array_equal(A, A_ref)
        assert np.array_equal(G, G_ref)
        assert len(feedback) == len(feedback_ref) == l * with_nonlinear
        for (rows, term, served, T, u), ref in zip(feedback, feedback_ref):
            assert (rows, term) == ref[:2]
            assert np.array_equal(served, ref[2])
            assert T.flags.c_contiguous
            assert np.array_equal(T, ref[3])
            assert np.array_equal(u, ref[4])


@pytest.mark.parametrize("with_nonlinear", [False, True])
@pytest.mark.parametrize("with_history", [False, True])
@pytest.mark.parametrize("n", [2, 10, 20])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_condition_equals_the_numpy_infinity_norms(l, n, with_history,
                                                   with_nonlinear):
    # np.linalg.norm(X, inf) is the reference for _invert's direct
    # reductions, bit for bit, singular systems included
    problem = _guard_problem(l, with_history, with_nonlinear)
    A, _, _ = _system(problem, n, collocation_points(n, problem.b)[:-1])
    expected = float(np.linalg.norm(A, np.inf)
                     * np.linalg.norm(np.linalg.inv(A), np.inf))
    try:
        condition = _invert(A)[1]
    except SingularSystemError as err:
        condition = err.condition
    assert condition == expected


def test_history_at_end_is_within_the_edge_tolerance():
    history = History(functions=(math.sin,), end=0.5)
    t = np.array([0.5, 0.5 + 5e-13, 0.5 - 5e-13, 0.5 + 2e-12, 0.4])
    assert history.at_end(t).tolist() == [True, True, True, False, False]
    assert history.covers(t).tolist() == [True, True, True, False, True]


@pytest.mark.parametrize("l", [1, 2, 3])
def test_one_delayed_call_per_assembly(l, monkeypatch):
    # every delayed term of every equation, in stage-sum order: per
    # equation its delays, then its nonlinear term
    calls = []
    delayed = collocation_mod._delayed

    def counting(history, t, taus, targets, right=None):
        calls.append((list(taus), list(targets)))
        return delayed(history, t, taus, targets, right)

    monkeypatch.setattr(collocation_mod, "_delayed", counting)
    problem = _guard_problem(l, with_history=True, with_nonlinear=True)
    terms = [term for eq in range(l)
             for term in problem.delays[eq] + (problem.nonlinear[eq],)]
    expected = ([term.tau for term in terms], [term.target for term in terms])
    _system(problem, 10, collocation_points(10, problem.b)[:-1])
    assert calls == [expected]
    solve_nonlinear(problem, 8)
    assert len(calls) == 2


def test_one_recurrence_per_assembly(monkeypatch):
    runs = []

    def counting(*args):
        runs.append(args)
        return rows(*args)

    rows = collocation_mod._chebyshev_rows
    monkeypatch.setattr(collocation_mod, "_chebyshev_rows", counting)
    problem = _guard_problem(3, with_history=True, with_nonlinear=True)
    _system(problem, 10, collocation_points(10, problem.b)[:-1])
    assert len(runs) == 1
    solve_nonlinear(problem, 8)
    assert len(runs) == 2


# ---------------------------------------------------------------------------
# one assembly and one inverse per solve; the frame identity; singularity

def _laguerre_frame_reference(problem, n):
    """The Laguerre-frame collocation operator assembled row by row from the
    definitions, frozen as the reference: L(t) @ C + gamma L(t) on the
    diagonal block, -beta L(t - tau) from the explicit sum (any sign of
    t - tau) where the series serves a delay (always for tau = 0), and L(0)
    as each block's last, initial-condition row."""
    l = problem.n_equations
    width = n + 1
    C = reference_mod.laguerre_diff_matrix(n)
    W = np.zeros((l * width, l * width))
    for eq in range(l):
        for i, t in enumerate(collocation_points(n, problem.b)[:-1]):
            r = eq * width + i
            L = collocation_mod.basis_row(n, t)
            W[r, eq * width:(eq + 1) * width] = L @ C + problem.gamma[eq] * L
            for term in problem.delays[eq]:
                if term.tau > 0 and problem.history.covers(t - term.tau):
                    continue
                delayed = [reference_mod.laguerre_eval_sum(k, t - term.tau)
                           for k in range(width)]
                block = slice(term.target * width, (term.target + 1) * width)
                W[r, block] -= term.beta * np.array(delayed)
        W[(eq + 1) * width - 1, eq * width:(eq + 1) * width] = (
            collocation_mod.basis_row(n, 0.0))
    return W


def test_chebyshev_operator_times_change_of_basis_is_basis_frame_operator():
    # coupled system: the history serves each delay at the early points and
    # the series at the later ones; equation 3 also has an undelayed term
    problem = DDEProblem(
        gamma=[0.5, -0.3, 1.2],
        delays=[[DelayTerm(1, 0.7, 0.5)],
                [DelayTerm(2, -0.4, 1.5), DelayTerm(0, 0.2, 0.25)],
                [DelayTerm(0, 0.3, 0.8), DelayTerm(2, -0.6, 0.0)]],
        g=[math.sin, math.cos, lambda t: 1.0], phi=[1.0, 0.0, 0.5], b=2.0,
        history=History(functions=(math.cos, math.sin, lambda t: 0.5), end=0.0))
    for n in (4, 8, 12):
        S = _chebyshev_of_laguerre(n, problem.b)
        reference = _laguerre_frame_reference(problem, n)
        A = _system(problem, n, collocation_points(n, problem.b)[:-1])[0]
        np.testing.assert_allclose(A @ np.kron(np.eye(3), S), reference,
                                   rtol=0.0, atol=1e-10 * np.abs(reference).max())


def _degree_four_problem():
    """u' = -u/2 + u(t - 0.2)/2 + g on [0, 1] with a degree-4 exact solution."""
    poly = np.polynomial.Polynomial([0.3, -0.7, 0.5, 0.9, -0.4])
    dpoly = poly.deriv()
    problem = DDEProblem(
        gamma=[0.5], delays=[[DelayTerm(0, 0.5, 0.2)]],
        g=[lambda t: dpoly(t) + 0.5 * poly(t) - 0.5 * poly(t - 0.2)],
        phi=[poly(0.0)], b=1.0, history=History(functions=(poly,), end=0.0))
    return problem, poly


def test_condition_is_finite_where_the_laguerre_frame_was_singular():
    # at N = 11 the Laguerre-frame matrix of this problem is numerically
    # singular; the Chebyshev frame the system is solved in is not, and its
    # condition number is the one reported
    problem, poly = _degree_four_problem()
    solution = solve_linear(problem, 11)
    assert 1.0 < solution.condition < 1e6
    worst = max(abs(evaluate(solution, t)[0] - poly(t))
                for t in np.linspace(0.0, 1.0, 41))
    assert worst < 1e-12

    (row,) = convergence_study(problem, [11],
                               reference=lambda t: np.array([poly(t)]))
    assert row.error is None
    assert row.condition == solution.condition
    assert row.linf[0] < 1e-12


def test_singular_monomial_operator_still_raises():
    # in monomial coefficients the collocation rows at t = 0 and 1 read
    # [2/3, 1/3, 2/3] and [2/3, 1, 2]; with the initial-condition row
    # [1, 0, 0] the operator is singular in every frame
    problem = single_equation(0.0, -2.0 / 3.0, 1.0, lambda t: 1.0, 0.0, 2.0)
    with pytest.raises(SingularSystemError, match="singular system") as info:
        solve_linear(problem, 2)
    assert info.value.condition > collocation_mod.SINGULAR_CONDITION


def test_singular_laguerre_interpolation_raises_singular_system_error():
    # at b = 1e-9 the system solves (condition 1.8e11), but L_0..L_6 at
    # seven points of [0, 1e-9] are singular to LAPACK
    problem = single_equation(1.0, 0.0, 1.0, lambda t: 0.0, 1.0, 1e-9)
    solution = solve_linear(problem, 6)
    assert solution.condition < collocation_mod.SINGULAR_CONDITION
    with pytest.raises(SingularSystemError, match="singular system"):
        solution.coefficients


def test_singular_laguerre_interpolation_names_the_matrix_and_its_cause():
    # the message used to read "condition number inf", which seemed to
    # contradict the solve's finite condition number
    problem = single_equation(1.0, 0.0, 1.0, lambda t: 0.0, 1.0, 1e-9)
    with pytest.raises(SingularSystemError) as info:
        solve_linear(problem, 6).coefficients
    assert info.value.condition == math.inf
    assert str(info.value) == (
        "singular system: the Laguerre interpolation matrix at N=6 on "
        "[0, b=1e-09] is singular: b is too small for L_0..L_6 to separate "
        "on [0, b]")


def _coupled_problem(b):
    """Three coupled equations whose delays b/5 the history serves early."""
    return DDEProblem(
        gamma=[0.5, 1.0, 1.5],
        delays=[[DelayTerm(1, 0.5, b / 5)], [DelayTerm(2, -0.5, b / 5)],
                [DelayTerm(0, 0.5, b / 5)]],
        g=[math.sin, math.cos, lambda t: 1.0], phi=[1.0, 0.0, 0.5], b=b,
        history=History(functions=(math.cos, math.sin, lambda t: 0.5), end=0.0))


def test_singularity_bound_admits_wide_and_narrow_intervals():
    # the condition number does not depend on the scale of t: from b = 0.01
    # to b = 50 the largest system, N = 20 with three equations, solves
    for b in (0.01, 10.0, 50.0):
        solution = solve_linear(_coupled_problem(b), 20)
        assert solution.condition < collocation_mod.SINGULAR_CONDITION
        assert np.all(np.isfinite(solution.chebyshev))


def _count_assemblies_and_inverses(monkeypatch):
    """Count system assemblies and matrix inversions."""
    calls = []

    def counting(label, fn):
        def wrapper(*args):
            calls.append(label)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(collocation_mod, "_system",
                        counting("system", collocation_mod._system))
    monkeypatch.setattr(collocation_mod.np.linalg, "inv",
                        counting("inverse", np.linalg.inv))
    return calls


def test_solve_nonlinear_factors_once_however_many_iterations(monkeypatch):
    calls = _count_assemblies_and_inverses(monkeypatch)
    for n in (6, 10):
        calls.clear()
        solution = solve_nonlinear(_nonlinear_problem(lambda u: math.exp(-u)), n)
        assert solution.iterations > 3
        assert calls == ["system", "inverse"]
    calls.clear()
    with pytest.raises(NonConvergenceError):
        solve_nonlinear(_nonlinear_problem(lambda u: math.exp(-u)), 10, max_iter=3)
    assert calls == ["system", "inverse"]


def test_solve_linear_factors_once(monkeypatch):
    calls = _count_assemblies_and_inverses(monkeypatch)
    problem = single_equation(0.5, 0.8, 1.0, lambda t: math.cos(t), 0.7, 2.0)
    solve_linear(problem, 8)
    assert calls == ["system", "inverse"]


# ---------------------------------------------------------------------------
# problem validation

def test_problem_validation():
    with pytest.raises(ValueError):
        DDEProblem(gamma=[], delays=[], g=[], phi=[], b=1.0)
    with pytest.raises(ValueError):
        DDEProblem(gamma=[0.0] * 4, delays=[[]] * 4,
                   g=[lambda t: 0.0] * 4, phi=[0.0] * 4, b=1.0)
    with pytest.raises(ValueError):
        single_equation(0.0, 0.0, 1.0, lambda t: 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        DelayTerm(0, 1.0, -0.5)
    with pytest.raises(ValueError):
        NonlinearDelayTerm(f=lambda u: u, target=0, tau=0.0)
    with pytest.raises(ValueError):
        DDEProblem(gamma=[0.0], delays=[[DelayTerm(1, 1.0, 1.0)]],
                   g=[lambda t: 0.0], phi=[0.0], b=1.0)
    with pytest.raises(ValueError):
        DDEProblem(gamma=[0.0, 0.0], delays=[[]],
                   g=[lambda t: 0.0], phi=[0.0], b=1.0)
    # one history function per equation, or a delay on u_2 raises IndexError
    # from the solver and the RK4 oracle
    with pytest.raises(ValueError, match="history has 1 entries for 2 equations"):
        DDEProblem(gamma=[0.0, 0.0], delays=[[], [DelayTerm(1, 1.0, 0.5)]],
                   g=[math.cos, math.cos], phi=[0.0, 0.0], b=1.0,
                   history=History(functions=(math.sin,)))
    for target in (1, -1):
        term = NonlinearDelayTerm(f=math.sin, target=target, tau=0.5)
        with pytest.raises(ValueError, match="nonlinear target"):
            DDEProblem(gamma=[0.0], delays=[[]], g=[lambda t: 0.0], phi=[0.0],
                       b=1.0, nonlinear=[term])


def _scalar(**changes):
    args = dict(gamma=[0.5], delays=[[]], g=[math.cos], phi=[1.0], b=1.0)
    args.update(changes)
    return DDEProblem(**args)


@pytest.mark.parametrize("build", [
    lambda: _scalar(b=math.nan),
    lambda: _scalar(b=math.inf),
    lambda: _scalar(gamma=[math.nan]),
    lambda: _scalar(phi=[math.inf]),
    lambda: DelayTerm(0, math.nan, 0.5),
    lambda: DelayTerm(0, 0.5, math.nan),
    lambda: DelayTerm(0, 0.5, math.inf),
    lambda: NonlinearDelayTerm(f=math.sin, target=0, tau=math.nan),
    lambda: History(functions=(math.sin,), end=math.nan),
    lambda: History(functions=(math.sin,), end=-0.5),
    lambda: solve_nonlinear(_nonlinear_problem(math.sin), 6, tol=math.nan),
], ids=["b_nan", "b_inf", "gamma_nan", "phi_inf", "beta_nan", "tau_nan",
        "tau_inf", "nonlinear_tau_nan", "history_end_nan",
        "history_end_negative", "tol_nan"])
def test_non_finite_inputs_are_refused(build):
    # a NaN passes every "x <= 0" check; a NaN tol ended in a false
    # NonConvergenceError; nothing defines u on (end, 0) for a negative end
    with pytest.raises(ValueError, match="finite|positive"):
        build()
